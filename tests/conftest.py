"""Shared test oracles, deliberately independent of the package internals:
permutation-based isomorphism, naive subgraph counting, and direct
independent-set enumeration."""
from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from indequiv.graphs import Graph
from indequiv.intpoly import ExactDivisionError, poly_exact_div


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
