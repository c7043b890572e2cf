"""Shared test oracles, deliberately independent of the package internals:
permutation-based isomorphism, naive subgraph counting, and direct
independent-set enumeration.  Also the helpers that only tests call:
vertex and edge deletions, the path closed form, the unicyclic coefficient
signature, float evaluation and polynomial subtraction."""
from __future__ import annotations

import math
import random
from itertools import combinations, permutations, zip_longest

import pytest

from indequiv.graphs import Graph
from indequiv.intpoly import ExactDivisionError, IntPoly, poly_exact_div


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every vertex bijection; only usable for tiny graphs."""
    if g.n != h.n or g.n_edges != h.n_edges:
        return False
    he = h.edges
    for perm in permutations(range(g.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in he
            for u, v in g.edges
        ):
            return True
    return False


def delete_vertex(g: Graph, v: int) -> Graph:
    """G - v, remaining vertices re-indexed densely, order preserved."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return g.subgraph([u for u in range(g.n) if u != v])


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    """G - N[v]: remove v and all its neighbors."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    dropped = set(g.neighbors(v)) | {v}
    return g.subgraph([u for u in range(g.n) if u not in dropped])


def delete_edge_closure(g: Graph, e: tuple[int, int]) -> tuple[Graph, Graph]:
    """For an edge e = uv, return (G - e, G - (N(u) ∪ N(v)))."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    g_minus_e = Graph(g.n, (x for x in g.edges if x != (min(u, v), max(u, v))))
    dropped = set(g.neighbors(u)) | set(g.neighbors(v))
    return g_minus_e, g.subgraph([w for w in range(g.n) if w not in dropped])


def poly_sub(p: IntPoly, q: IntPoly) -> IntPoly:
    """p - q (`IntPoly` has no `-`: only tests subtract polynomials)."""
    return IntPoly(a - b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0))


def path_coeff(n: int, k: int) -> int:
    """Number of independent k-subsets of the path P_n: C(n-k+1, k)."""
    if n < 0:
        raise ValueError(f"path requires n >= 0, got {n}")
    if k < 0:
        return 0
    return math.comb(n - k + 1, k) if n - k + 1 >= k else 0


def path_poly(n: int) -> IntPoly:
    """Independence polynomial of the path P_n (P_0 is the empty graph)."""
    return IntPoly(path_coeff(n, k) for k in range((n + 1) // 2 + 1))


def is_unicyclic_poly(p: IntPoly) -> bool:
    """Test the coefficient signature shared by independence polynomials of
    disjoint unions of unicyclic graphs: nonnegative coefficients, constant
    term 1, and p2 = C(p1, 2) - p1.
    """
    if any(c < 0 for c in p.coeffs):
        return False
    if p[0] != 1:
        return False
    return p[2] == math.comb(p[1], 2) - p[1]


def eval_float(p: IntPoly, x: float) -> float:
    """Horner evaluation in double precision."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divides(q, p) -> bool:
    """True iff q divides p exactly over the integers."""
    try:
        poly_exact_div(p, q)
    except ExactDivisionError:
        return False
    return True


def naive_independent_counts(g: Graph) -> list[int]:
    """Independent-set counts by checking every vertex subset edge by edge."""
    counts = [0] * (g.n + 1)
    vertices = list(range(g.n))
    for r in range(g.n + 1):
        for subset in combinations(vertices, r):
            s = set(subset)
            if not any(u in s and v in s for u, v in g.edges):
                counts[r] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _subgraph_copies(g: Graph, pattern_edges: list[tuple[int, int]],
                     pattern_n: int) -> int:
    """Labelled-pattern subgraph count / automorphisms, by trying every
    injection of pattern vertices into g."""
    auts = 0
    pat = {tuple(sorted(e)) for e in pattern_edges}
    for perm in permutations(range(pattern_n)):
        if all(tuple(sorted((perm[u], perm[v]))) in pat for u, v in pat):
            auts += 1
    hits = 0
    for image in permutations(range(g.n), pattern_n):
        if all(g.has_edge(image[u], image[v]) for u, v in pat):
            hits += 1
    assert hits % auts == 0
    return hits // auts


def naive_census(g: Graph) -> dict[str, int]:
    """Subgraph counts by brute injection, for cross-checking the census."""
    n = g.n
    e2 = sum(
        1
        for (a, b), (c, d) in combinations(sorted(g.edges), 2)
        if len({a, b, c, d}) == 4
    )
    triangles = _subgraph_copies(g, [(0, 1), (1, 2), (0, 2)], 3)
    p3 = _subgraph_copies(g, [(0, 1), (1, 2)], 3)
    p4 = _subgraph_copies(g, [(0, 1), (1, 2), (2, 3)], 4)
    k13 = _subgraph_copies(g, [(0, 1), (0, 2), (0, 3)], 4)
    d4 = _subgraph_copies(g, [(0, 1), (1, 2), (0, 2), (2, 3)], 4)
    c4 = _subgraph_copies(g, [(0, 1), (1, 2), (2, 3), (0, 3)], 4)
    return {
        "e2": e2,
        "p3_k1": p3 * (n - 3) if n >= 3 else 0,
        "c3_k1": triangles * (n - 3),
        "p4": p4,
        "k13": k13,
        "d4": d4,
        "c4": c4,
        "triangles": triangles,
    }


def random_graph(rng: random.Random, n: int, p: float = 0.35) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC91)
