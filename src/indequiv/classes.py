"""Independence equivalence classes of odd cycles.

Two independent computations of the class are provided:

* ``structured_class_search`` follows the structural narrowing: besides C_n
  and the tailed triangle D_n, a disconnected member is C_3 together with
  divisor cycles (or their D variants) and at most one component from the
  A/B/E one-cycle families, with parities fixed by the component-count
  equation.  Every parity-admissible candidate is polynomial-tested exactly
  rather than eliminated by hand.

* ``exhaustive_class_search`` knows nothing of that narrowing.  Mode
  ``all_graphs`` scans every n-vertex, n-edge graph (the linear and
  quadratic coefficients force those counts), pruning on the cubic
  coefficient before computing full polynomials.  Mode
  ``unicyclic_multisets`` scans multisets of connected unicyclic graphs,
  pruning components whose polynomial does not divide the target exactly.

The two must agree; the test suite enforces it.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .canon import (
    MAX_COMPONENT_VERTICES,
    CanonicalRefusalError,
    canonical_graph,
    canonical_key,
)
from .census import subgraph_census
from .factors import divisors, f_poly_by_division
from .graph6 import emit_graph6
from .graphs import (
    Graph,
    component_vertex_sets,
    degree_histogram,
    is_unicyclic,
    max_degree,
    union,
)
from .gspec import parse_spec
from .indpoly import PolyCache, indpoly, indpoly_bruteforce
from .intpoly import ONE, IntPoly, cycle_poly, poly_divides, poly_exact_div

MAX_ALL_GRAPHS_N = 9
MAX_UNICYCLIC_N = 21

# --- structural identities -------------------------------------------------


@dataclass(frozen=True)
class StructuralChecks:
    """Per-member verdicts for the degree, triangle and 4-subset identities.

    A clause is None where its identity does not apply (small n).  Any
    False on a polynomial-verified member falsifies a structural identity
    and deserves loud attention.
    """

    vertex_count: bool            # sum g_i = n
    degree_sum: bool              # sum i*g_i = 2n
    triangle_sum: Optional[bool]  # sum C(i,2) g_i = n + triangles
    no_isolated: bool             # g_0 = 0
    max_degree_3: Optional[bool]  # max degree <= 3 and triangles = g_3
    components_unicyclic: bool
    matching_identity: Optional[bool]  # the size-4 coefficient identity

    @property
    def ok(self) -> bool:
        return all(v for v in self.__dict__.values() if v is not None)


def structural_checks(g: Graph, n: int) -> StructuralChecks:
    hist = degree_histogram(g)
    census = subgraph_census(g)
    tri = census.triangles
    sum_g = sum(hist.values())
    sum_ig = sum(i * c for i, c in hist.items())
    sum_choose = sum(math.comb(i, 2) * c for i, c in hist.items())
    matching = None
    if n >= 5:
        lhs = n * (3 * n - 11) // 2
        rhs = (
            census.e2 + census.p3_k1 - census.c3_k1
            - census.p4 - census.k13 + census.d4 + census.c4
        )
        matching = lhs == rhs
    return StructuralChecks(
        vertex_count=sum_g == n,
        degree_sum=sum_ig == 2 * n,
        triangle_sum=(sum_choose == n + tri) if n >= 4 else None,
        no_isolated=hist.get(0, 0) == 0,
        max_degree_3=(max_degree(g) <= 3 and tri == hist.get(3, 0))
        if n >= 4 else None,
        components_unicyclic=all(
            is_unicyclic(g.subgraph(vs)) for vs in component_vertex_sets(g)
        ),
        matching_identity=matching,
    )


def alpha_formula(kind: str, params: tuple[int, ...]) -> int:
    """Closed-form independence numbers of the A/B/E families, by parity."""
    if kind in ("A", "E"):
        m1, m2 = params
        if m1 < 1 or m2 < 1:
            raise ValueError(f"{kind} requires m1, m2 >= 1, got {params}")
        odd = (m1 % 2) + (m2 % 2)
        return (m1 + m2 + 2 + odd) // 2
    if kind == "B":
        m1, m2, m3 = params
        if m1 < 0 or m2 < 1 or m3 < 1:
            raise ValueError(f"B requires m1 >= 0, m2, m3 >= 1, got {params}")
        odd = (m1 % 2) + (m2 % 2) + (m3 % 2)
        s = m1 + m2 + m3
        if odd == 3:
            return (s + 5) // 2
        if odd == 1:
            return (s + 3) // 2
        return (s + 4) // 2
    raise ValueError(f"unknown family kind {kind!r}")


def family_vertex_count(kind: str, params: tuple[int, ...]) -> int:
    return sum(params) + (4 if kind == "B" else 3)


def component_count_bound(n: int, kind: str, params: tuple[int, ...]) -> tuple[int, ...]:
    """Admissible component counts r for a member of the class of C_n having
    the given special component, from 2*alpha = |V| + r - 2.

    r = 1 is excluded (the member would be connected); values outside {2, 3}
    are inconsistent, giving an empty result.
    """
    size = family_vertex_count(kind, params)
    if size > n - 3:
        return ()
    r = 2 * alpha_formula(kind, params) - size + 2
    return (r,) if r in (2, 3) else ()


# --- class reports ----------------------------------------------------------


@dataclass(frozen=True)
class ClassMember:
    key: bytes
    description: str
    graph6: str
    poly: IntPoly
    checks: StructuralChecks


@dataclass
class ClassReport:
    n: int
    mode: str
    members: list[ClassMember]
    stats: dict[str, int]
    wall_time: float

    def member_keys(self) -> set[bytes]:
        return {m.key for m in self.members}


def describe_graph(g: Graph) -> str:
    """Name a graph by recognized families, components joined with '+'."""
    parts = [
        _describe_connected(g.subgraph(vs)) for vs in component_vertex_sets(g)
    ]
    parts.sort(key=lambda s: (len(s), s))
    return " + ".join(parts) if parts else "empty"


def _describe_connected(g: Graph) -> str:
    n, m = g.n, g.n_edges
    hist = degree_histogram(g)
    if m == n - 1 and hist.get(2, 0) == n - 2 and n >= 2:
        return f"P{n}"
    if n == 1:
        return "P1"
    if hist == {2: n} and m == n:
        return f"C{n}"
    if m == n and set(hist) <= {1, 2, 3} and hist.get(3, 0) in (1, 2):
        # One cycle and as many leaves as branch (degree-3) vertices.  Each
        # leaf ends an arm of `a` vertices hanging on its nearest branch
        # vertex, its hub; a triangle leaves n - 3 vertices off the cycle.
        branch = [v for v in range(n) if g.degree(v) == 3]
        arms = []
        for leaf in (v for v in range(n) if g.degree(v) == 1):
            dist = _distances(g, leaf)
            hub = min(branch, key=dist.__getitem__)
            arms.append((dist[hub], hub))
        if len(branch) == 1:
            t = arms[0][0]  # the tail
            return f"D{n}" if t == n - 3 else f"E({n - t - 3},{t})"
        (a1, hub1), (a2, hub2) = sorted(arms)
        if hub1 != hub2:
            # one arm on each of two cycle vertices
            if a1 + a2 == n - 3:
                return f"A({a1},{a2})"
        else:
            # a stem of d - 1 vertices from the cycle to a fork with both arms
            d = _distances(g, branch[0])[branch[1]]
            if d + a1 + a2 == n - 3:
                return f"B({d - 1},{a1},{a2})"
    if n == 4 and m == 3 and hist.get(3, 0) == 1:
        return "K1_3"
    if n == 4 and m == 5:
        return "K4-e"
    degs = "".join(str(d) for d in sorted(g.degree(v) for v in range(n)))
    return f"graph(n={n},m={m},degs={degs})"


def _distances(g: Graph, source: int) -> list[int]:
    """Breadth-first distances from source (-1 where unreachable)."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _make_member(g: Graph, n: int, poly: IntPoly) -> ClassMember:
    return ClassMember(
        key=canonical_key(g),
        description=describe_graph(g),
        graph6=emit_graph6(canonical_graph(g)),
        poly=poly,
        checks=structural_checks(g, n),
    )


# --- structured search ------------------------------------------------------


def _special_family_specs(n: int, kind: str, total: int, r: int) -> Iterator[str]:
    """The A/B/E specs with the given total of arm vertices whose
    closed-form independence number admits exactly r components in a
    member of the class of C_n (see component_count_bound)."""
    if kind == "B":
        params = (
            (m1, m2, total - m1 - m2)
            for m1 in range(0, total - 1)
            for m2 in range(1, total - m1)
        )
    else:
        params = ((m1, total - m1) for m1 in range(1, total))
    for ps in params:
        if component_count_bound(n, kind, ps) == (r,):
            yield f"{kind}({','.join(map(str, ps))})"


def _divisor_cycle_multisets(n: int) -> Iterator[tuple[int, ...]]:
    """Multisets of proper odd divisors (>= 3) of n summing to n, with at
    least two parts, in non-increasing order."""
    parts = [d for d in divisors(n) if d >= 3 and d % 2 == 1 and d < n]
    parts.sort(reverse=True)

    def rec(remaining: int, idx: int, chosen: tuple[int, ...]):
        if remaining == 0:
            if len(chosen) >= 2:
                yield chosen
            return
        for i in range(idx, len(parts)):
            p = parts[i]
            if p <= remaining:
                yield from rec(remaining - p, i, chosen + (p,))

    yield from rec(n, 0, ())


def _cd_variants(ms: tuple[int, ...]) -> Iterator[tuple[str, ...]]:
    """All cycle/tailed-triangle substitutions of a divisor multiset."""
    choices = [(f"C{m}",) if m < 4 else (f"C{m}", f"D{m}") for m in ms]
    yield from itertools.product(*choices)


def structured_class_search(n: int, cache: Optional[PolyCache] = None,
                            seed: Optional[int] = None) -> ClassReport:
    """The class of C_n via the structural narrowing, every candidate
    polynomial-tested exactly."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"structured search requires odd n >= 3, got {n}")
    if n > MAX_COMPONENT_VERTICES:
        # members are identified by canonical key, and C_n is a component
        raise CanonicalRefusalError(
            f"structured search supports n <= {MAX_COMPONENT_VERTICES} "
            f"(MAX_COMPONENT_VERTICES, the canonical-key limit), got {n}"
        )
    started = time.perf_counter()
    if cache is None:
        cache = PolyCache()
    target = cycle_poly(n)
    stats = {
        "candidates_generated": 0,
        "polynomial_tests": 0,
        "divisor_multisets_scanned": 0,
    }
    members: dict[bytes, ClassMember] = {}
    # spec strings, each built only when tested: building all 1,121 graphs
    # of n = 45 up front would cost several MB of peak memory
    candidates = [f"C{n}"]
    if n >= 4:
        candidates.append(f"D{n}")

    # members that are disjoint unions of divisor cycles (or D variants)
    for ms in _divisor_cycle_multisets(n):
        stats["divisor_multisets_scanned"] += 1
        product = ONE
        for m in ms:
            product = product * cycle_poly(m)
        if product == target:
            candidates.extend("+".join(v) for v in _cd_variants(ms))

    if n % 3 == 0 and n > 3:
        # r = 2: C_3 plus one special component
        for kind in "AEB":
            body = n - 3 - family_vertex_count(kind, ())
            for spec in _special_family_specs(n, kind, body, 2):
                candidates.append(f"C3+{spec}")
        # r = 3: C_3, one divisor cycle (or its D variant), one special
        for m in divisors(n):
            if m < 5 or m % 2 == 0 or m % 3 == 0 or m >= n:
                continue
            for kind in "AEB":
                body = n - 3 - m - family_vertex_count(kind, ())
                for mid in (f"C{m}", f"D{m}"):
                    for spec in _special_family_specs(n, kind, body, 3):
                        candidates.append(f"C3+{mid}+{spec}")

    if seed is not None:
        random.Random(seed).shuffle(candidates)

    for spec in candidates:
        stats["candidates_generated"] += 1
        g = parse_spec(spec)
        if g.n != n:
            raise AssertionError(f"candidate {spec} has wrong size")
        stats["polynomial_tests"] += 1
        if indpoly(g, cache) == target:
            member = _make_member(g, n, target)
            members.setdefault(member.key, member)

    ordered = [members[k] for k in sorted(members)]
    return ClassReport(
        n=n,
        mode="structured",
        members=ordered,
        stats=stats,
        wall_time=time.perf_counter() - started,
    )


# --- rooted trees and unicyclic enumeration ---------------------------------


class RootedTree:
    """A rooted tree up to isomorphism, as a canonical nested shape tuple.

    Carries the data the unicyclic enumerator needs: the independent-set
    generating polynomials with the root excluded (w0) and included (w1),
    and the branch-vertex weights that the degree-census prefilter uses.
    """

    __slots__ = ("shape", "size", "root_degree", "inner_weight",
                 "attach_weight", "w0", "w1")

    def __init__(self, children: tuple["RootedTree", ...]):
        self.shape = tuple(sorted(c.shape for c in children))
        self.size = 1 + sum(c.size for c in children)
        self.root_degree = len(children)
        self.inner_weight = math.comb(self.root_degree, 2) + sum(
            c.inner_weight for c in children
        )
        self.attach_weight = (
            math.comb(self.root_degree + 1, 2)
            + self.inner_weight
            - math.comb(self.root_degree, 2)
        )
        w0 = ONE
        w1 = IntPoly([0, 1])
        for c in children:
            w0 = w0 * (c.w0 + c.w1)
            w1 = w1 * c.w0
        self.w0 = w0
        self.w1 = w1

    def edges(self, root_label: int, next_label: int,
              out: list[tuple[int, int]]) -> int:
        """Append this tree's edges using dense labels; returns the next
        free label."""
        for child_shape in self.shape:
            child = _tree_from_shape(child_shape)
            out.append((root_label, next_label))
            next_label = child.edges(next_label, next_label + 1, out)
        return next_label


_shape_registry: dict[tuple, RootedTree] = {}


def _tree_from_shape(shape: tuple) -> RootedTree:
    tree = _shape_registry.get(shape)
    if tree is None:
        tree = RootedTree(tuple(_tree_from_shape(s) for s in shape))
        _shape_registry[shape] = tree
    return tree


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into parts <= max_part, non-increasing."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _rooted_trees(size: int, inner_cap: Optional[int]) -> tuple[RootedTree, ...]:
    """All rooted trees on `size` vertices up to isomorphism, optionally
    restricted to inner branch weight <= inner_cap."""
    if size == 1:
        leaf = _tree_from_shape(())
        return (leaf,)
    out = []
    for partition in _partitions(size - 1, size - 1):
        degree = len(partition)
        base = math.comb(degree, 2)
        if inner_cap is not None and base > inner_cap:
            continue
        groups = []
        for part, copies in sorted(
            ((p, sum(1 for q in partition if q == p)) for p in set(partition))
        ):
            child_cap = None if inner_cap is None else inner_cap - base
            pool = _rooted_trees(part, child_cap)
            groups.append(list(itertools.combinations_with_replacement(pool, copies)))
        for combo in itertools.product(*groups):
            children = tuple(itertools.chain.from_iterable(combo))
            inner = base + sum(c.inner_weight for c in children)
            if inner_cap is not None and inner > inner_cap:
                continue
            tree = _tree_from_shape(tuple(sorted(c.shape for c in children)))
            out.append(tree)
    out.sort(key=lambda t: t.shape)
    return tuple(out)


def _dihedral_minimal(seq: tuple) -> bool:
    """True iff seq is minimal among its rotations and reflections."""
    c = len(seq)
    doubled = seq + seq
    rev = seq[::-1]
    rev_doubled = rev + rev
    for k in range(c):
        if doubled[k:k + c] < seq or rev_doubled[k:k + c] < seq:
            return False
    return True


def _necklace_poly(pairs: list[tuple[IntPoly, IntPoly]]) -> IntPoly:
    """Independence polynomial of a cycle of rooted trees, by a two-state
    sweep (root of each tree in or out of the independent set)."""
    zero = IntPoly()
    w00, w10 = pairs[0]
    a, b = w00, zero        # first root excluded
    a2, b2 = zero, w10      # first root included
    for w0, w1 in pairs[1:]:
        a, b = (a + b) * w0, a * w1
        a2, b2 = (a2 + b2) * w0, a2 * w1
    return a + b + a2


def _necklace_graph(c: int, trees: tuple[RootedTree, ...]) -> Graph:
    edges = [(i, (i + 1) % c) for i in range(c)]
    next_label = c
    for i, t in enumerate(trees):
        next_label = t.edges(i, next_label, edges)
    return Graph(next_label, edges)


def unicyclic_necklaces(
    v: int, attach_budget: Optional[int] = None
) -> Iterator[tuple[int, tuple[RootedTree, ...]]]:
    """Connected unicyclic graphs on v vertices, one per isomorphism class,
    as (cycle length, rooted trees hung on the cycle positions).

    Each class appears exactly once: the unique cycle fixes the positions,
    and assignments are emitted only in dihedral-minimal rotation.  The
    optional attach_budget restricts the total branch-vertex weight.
    """
    for c in range(3, v + 1):
        extra = v - c
        pools: dict[int, tuple[RootedTree, ...]] = {}
        for s in range(1, extra + 2):
            pool = _rooted_trees(s, attach_budget)
            if attach_budget is not None:
                pool = tuple(t for t in pool if t.attach_weight <= attach_budget)
            pools[s] = pool

        def assign(pos: int, rem: int, weight: int,
                   chosen: tuple[RootedTree, ...]):
            if pos == c:
                if rem == 0 and _dihedral_minimal(tuple(t.shape for t in chosen)):
                    yield c, chosen
                return
            for s in range(1, rem + 2):
                for t in pools[s]:
                    w = weight + t.attach_weight
                    if attach_budget is not None and w > attach_budget:
                        continue
                    yield from assign(pos + 1, rem - (s - 1), w, chosen + (t,))

        yield from assign(0, extra, 0, ())


def enumerate_unicyclic(v: int) -> list[Graph]:
    """All connected unicyclic graphs on v vertices up to isomorphism."""
    if not 3 <= v <= MAX_UNICYCLIC_N:
        raise ValueError(f"unicyclic enumeration supports 3 <= v <= {MAX_UNICYCLIC_N}")
    return [_necklace_graph(c, trees) for c, trees in unicyclic_necklaces(v)]


# --- exhaustive search: unicyclic multisets ----------------------------------


@dataclass(frozen=True)
class _Component:
    graph: Graph
    poly: IntPoly
    size: int


def _divisor_products(n: int) -> list[IntPoly]:
    """Products of nonempty subsets of the irreducible cycle factors of
    I(C_n, x): every integer divisor with constant term 1."""
    fs = [f_poly_by_division(m) for m in divisors(n) if m >= 3]
    products = []
    for r in range(1, len(fs) + 1):
        for combo in itertools.combinations(fs, r):
            p = ONE
            for f in combo:
                p = p * f
            products.append(p)
    return products


def _component_weight_classes(n: int) -> dict[int, set[int]]:
    """Per component size v, the admissible branch-weight values
    (wt - [cycle is a triangle]) a component with a target-dividing
    polynomial can have, from matching the cubic coefficient."""
    classes: dict[int, set[int]] = {}
    for q in _divisor_products(n):
        v = q[1]
        m = q[3] - math.comb(v, 3) + v * (v - 2) - v
        classes.setdefault(v, set()).add(m)
    return classes


def _unicyclic_component_pool(
    n: int, target: IntPoly, prune: bool, stats: dict[str, int]
) -> list[_Component]:
    """Candidate connected components for members of the class of C_n,
    largest sizes first."""
    pool: list[_Component] = []
    if prune:
        classes = _component_weight_classes(n)
        sizes = sorted(classes, reverse=True)
    else:
        sizes = list(range(n, 2, -1))
    for v in sizes:
        if prune:
            weights = classes[v]
            budget = max(weights) + 1
            if budget < 0:
                continue
        else:
            weights, budget = None, None
        for c, trees in unicyclic_necklaces(v, attach_budget=budget):
            stats["components_generated"] += 1
            if prune:
                wt = sum(t.attach_weight for t in trees) - (1 if c == 3 else 0)
                if wt not in weights:
                    stats["components_pruned_census"] += 1
                    continue
            poly = _necklace_poly([(t.w0, t.w1) for t in trees])
            if prune and not poly_divides(poly, target):
                stats["components_pruned_divisor"] += 1
                continue
            pool.append(_Component(_necklace_graph(c, trees), poly, v))
    stats["components_admitted"] = len(pool)
    return pool


def _exhaustive_unicyclic(n: int, cache: PolyCache, prune: bool,
                          stats: dict[str, int]) -> list[ClassMember]:
    target = cycle_poly(n)
    stats.setdefault("components_generated", 0)
    stats.setdefault("components_pruned_census", 0)
    stats.setdefault("components_pruned_divisor", 0)
    pool = _unicyclic_component_pool(n, target, prune, stats)
    stats.setdefault("multisets_tested", 0)
    members: dict[bytes, ClassMember] = {}

    def accept(chosen: list[_Component]):
        g = union(*(comp.graph for comp in chosen))
        stats["polynomial_tests"] = stats.get("polynomial_tests", 0) + 1
        if indpoly(g, cache) == target:
            member = _make_member(g, n, target)
            members.setdefault(member.key, member)

    # pruned: divide the target down to ONE, skipping components that do
    # not divide it; unpruned: multiply up from ONE and compare at the end
    start, goal = (target, ONE) if prune else (ONE, target)

    def descend(idx: int, remaining: int, acc: IntPoly,
                chosen: list[_Component]):
        if remaining == 0:
            stats["multisets_tested"] += 1
            if acc == goal:
                accept(chosen)
            return
        for k in range(idx, len(pool)):
            comp = pool[k]
            left = remaining - comp.size
            if left < 0 or left == 1 or left == 2:
                continue
            if not prune:
                nxt = acc * comp.poly
            elif poly_divides(comp.poly, acc):
                nxt = poly_exact_div(acc, comp.poly)
            else:
                continue
            chosen.append(comp)
            descend(k, left, nxt, chosen)
            chosen.pop()

    descend(0, n, start, [])
    return [members[k] for k in sorted(members)]


# --- exhaustive search: all graphs -------------------------------------------


def _count_independent_quads(adj: list[int], n: int, limit: int) -> int:
    """Number of independent 4-subsets, giving up once the count passes
    limit (callers only need equality with limit)."""
    full = (1 << n) - 1
    nonadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    count = 0
    for a in range(n - 3):
        above_a = nonadj[a] >> (a + 1) << (a + 1)
        mb = above_a
        while mb:
            lb = mb & -mb
            b = lb.bit_length() - 1
            mb ^= lb
            mask_ab = above_a & nonadj[b]
            mc = mask_ab >> (b + 1) << (b + 1)
            while mc:
                lc = mc & -mc
                c = lc.bit_length() - 1
                mc ^= lc
                mask_abc = mask_ab & nonadj[c]
                count += (mask_abc >> (c + 1)).bit_count()
                if count > limit:
                    return count
    return count


def _scan_pairs(n: int, target_coeffs: tuple[int, ...],
                pairs: list[tuple[int, int]]):
    """Depth-first scan of all n-edge graphs on n labelled vertices whose
    first two chosen edges (in lexicographic order) form one of `pairs`.

    Prunes on the cubic-coefficient statistic S = sum C(deg,2) - triangles,
    which never decreases as edges are added, then filters leaves on the
    quartic coefficient.  Returns the scan counts and, per canonical key
    of a leaf that passes, [first labelled edge list, labelled copies].
    """
    target = IntPoly(target_coeffs)
    s_target = target[3] - math.comb(n, 3) + n * (n - 2)
    i4_target = target[4]
    edges = list(itertools.combinations(range(n), 2))
    total = len(edges)
    adj = [0] * n
    deg = [0] * n
    chosen: list[int] = []
    stats = {"edge_sets_visited": 0, "i3_leaves": 0, "i4_pass": 0}
    found: dict[bytes, list] = {}

    def leaf():
        stats["i3_leaves"] += 1
        if _count_independent_quads(adj, n, i4_target) != i4_target:
            return
        stats["i4_pass"] += 1
        labelled = [edges[i] for i in chosen]
        found.setdefault(canonical_key(Graph(n, labelled)), [labelled, 0])[1] += 1

    def add(i: int):
        u, v = edges[i]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        chosen.append(i)

    def undo():
        u, v = edges[chosen.pop()]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        deg[u] -= 1
        deg[v] -= 1

    def grow(idx: int, count: int, s: int):
        if count == n:
            if s == s_target:
                leaf()
            return
        room = n - count
        for i in range(idx, total - room + 1):
            u, v = edges[i]
            stats["edge_sets_visited"] += 1
            s2 = s + deg[u] + deg[v] - (adj[u] & adj[v]).bit_count()
            if s2 > s_target:
                continue
            add(i)
            grow(i + 1, count + 1, s2)
            undo()

    for i, j in pairs:
        add(i)
        x, y = edges[j]
        s2 = deg[x] + deg[y] - (adj[x] & adj[y]).bit_count()
        if s2 <= s_target:
            add(j)
            grow(j + 1, 2, s2)
            undo()
        undo()
    return stats, found


def _exhaustive_all_graphs(n: int, threads: int,
                           stats: dict[str, int]) -> list[ClassMember]:
    target = cycle_poly(n)
    pairs = list(itertools.combinations(range(n * (n - 1) // 2), 2))
    k = 4 * max(threads, 1)
    scans = (_scan_pairs, itertools.repeat(n), itertools.repeat(target.coeffs),
             [pairs[i::k] for i in range(k)])
    if threads <= 1:
        results = list(map(*scans))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(*scans))
    found: dict[bytes, list] = {}
    for part_stats, part_found in results:
        for key, v in part_stats.items():
            stats[key] = stats.get(key, 0) + v
        for key, (labelled, copies) in part_found.items():
            found.setdefault(key, [labelled, 0])[1] += copies
    # each isomorphism class is brute-forced once, whatever the chunking
    stats["polynomials_computed"] = len(found)
    stats["labelled_members"] = 0
    members = []
    for key in sorted(found):
        g = Graph(n, found[key][0])
        if indpoly_bruteforce(g) == target:
            stats["labelled_members"] += found[key][1]
            members.append(_make_member(g, n, target))
    return members


def exhaustive_class_search(n: int, mode: str = "unicyclic_multisets",
                            cache: Optional[PolyCache] = None,
                            threads: int = 1, prune: bool = True) -> ClassReport:
    """The class of C_n by exhaustive search, independent of the structural
    narrowing that drives the structured search."""
    started = time.perf_counter()
    if cache is None:
        cache = PolyCache()
    stats: dict[str, int] = {}
    if mode == "all_graphs":
        if not 3 <= n <= MAX_ALL_GRAPHS_N:
            raise ValueError(
                f"all-graphs scan supports 3 <= n <= {MAX_ALL_GRAPHS_N}, got {n}"
            )
        members = _exhaustive_all_graphs(n, threads, stats)
        mode_name = "exhaustive_all_graphs"
    elif mode == "unicyclic_multisets":
        if not (3 <= n <= MAX_UNICYCLIC_N and n % 2 == 1):
            raise ValueError(
                f"unicyclic-multiset scan supports odd 3 <= n <= "
                f"{MAX_UNICYCLIC_N}, got {n}"
            )
        members = _exhaustive_unicyclic(n, cache, prune, stats)
        mode_name = "exhaustive_unicyclic_multisets"
    else:
        raise ValueError(f"unknown exhaustive mode {mode!r}")
    return ClassReport(
        n=n,
        mode=mode_name,
        members=members,
        stats=stats,
        wall_time=time.perf_counter() - started,
    )
