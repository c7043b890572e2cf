"""Independence equivalence classes of odd cycles.

Two independent computations of the class are provided:

* ``structured_class_search`` follows the structural narrowing: besides C_n
  and the tailed triangle D_n, a disconnected member is C_3, at most one
  divisor cycle C_m or its D variant D_m, and one component from the A/B/E
  one-cycle families, with parities fixed by the component-count equation.
  Every parity-admissible candidate is polynomial-tested exactly rather
  than eliminated by hand.  Each of these families becomes paths
  after one vertex deletion, so the test compares a closed-form polynomial,
  a few products from one packed table of path polynomials, with I(C_n, x);
  only a candidate that matches is built as a graph, and ``indpoly`` must
  confirm it before it becomes a member.

* ``exhaustive_class_search`` knows nothing of that narrowing.  Mode
  ``all_graphs`` generates the n-vertex graphs level by level, one edge
  more per level and one representative per isomorphism class (deduplicated
  by canonical key), keeping only classes whose cubic-coefficient statistic
  is still within the target's; the n-edge classes (the linear and quadratic
  coefficients force those counts) are filtered on the quartic coefficient
  and brute-forced, never through the ``indpoly`` recursion.  Mode
  ``unicyclic_multisets`` scans multisets of connected unicyclic graphs.
  The components come from one necklace walk per cycle length, which
  serves every component size at once and carries each component's
  polynomial down the walk packed into an int (``intpoly.pack``), and
  hands the components over as it finds them, one run of last positions
  per prefix and size: one on all n vertices is tested on the spot, one
  on n - 1 or n - 2 is in no multiset, and only those on at most n - 3
  vertices are pooled.  The scan multiplies packed polynomials and
  compares the product with the packed target.  Pruned, it tables the
  divisors of I(C_n, x) with constant term 1, the products of subsets of
  its irreducible factors f_m, packed alike: a component is kept, and a
  partial multiset extended, only while its packed product is in that
  table.  A component's graph is built only when its multiset
  matches the target, and ``indpoly`` of the union must then confirm it:
  a packed match that ``indpoly`` contradicts raises AssertionError.

Each search returns the graphs it has confirmed, and one builder,
``_class_report``, makes the members: it labels each graph by
``canonical_form``, names and checks it, keeps the first graph per
canonical key, and orders the members by key.

The two must agree; the test suite enforces it.
"""
from __future__ import annotations

import bisect
import itertools
import math
import time
from collections import namedtuple
from collections.abc import Callable, Iterator

from .canon import (
    MAX_COMPONENT_VERTICES,
    CanonicalRefusalError,
    canonical_form,
    canonical_key,
    connected_canonical_form,
    join_component_keys,
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
from .intpoly import cycle_poly, pack

# the all-graphs scan keeps every class under the cubic bound on each level:
# n = 14 (16,886 classes) took 5.8 s and 40 MB peak RSS, and n = 15 (37,549
# classes, the class of C_15) 14.2 s and 73 MB, on a 2-core x86-64 machine,
# in process.  Each step of n multiplies the classes by about 2.2
MAX_ALL_GRAPHS_N = 15
# the pruned unicyclic scan confirms {C_n, D_n} at every odd 23 <= n <= 37 in
# 0.7-1.3 s in all (n = 27: 0.13-0.24 s, n = 33: 0.46-0.85 s, every other n
# under 0.06 s); n = 39 took 1.4-1.7 s and 17 MB peak RSS, and n = 45
# 6.0-7.4 s and 20 MB.  Three runs each, in process, on a 2-core x86-64 Xeon
# under Python 3.11
MAX_UNICYCLIC_N = 37
# the unpruned unicyclic scan generates every component of up to n vertices
# and pools those of up to n - 3: n = 17 (1,363,817 components) took 1.5-1.7 s
# and 87 MB peak RSS, three runs in process on the same machine.  The cap is
# one of time: n = 19 holds about 7.9x more components, some 12-13 s' work at
# that rate
MAX_UNPRUNED_UNICYCLIC_N = 17
# `unicyclic <v>` labels every graph and keeps one row per graph: v = 15
# (110,381 graphs) took 55 s and 144 MB on a 2-core x86-64 machine, and each
# step of 2 in v multiplies the count by about 2.8
MAX_UNICYCLIC_LIST_V = 15

# --- structural identities -------------------------------------------------


def structural_checks(g: Graph, n: int) -> dict[str, bool | None]:
    """Per-member verdicts for the degree, triangle and 4-subset identities.

    A verdict is None where its identity does not apply (small n).  Any
    False on a polynomial-verified member falsifies a structural identity
    and deserves loud attention.
    """
    hist = degree_histogram(g)
    census = subgraph_census(g)
    tri = census["triangles"]
    sum_g = sum(hist.values())
    sum_ig = sum(i * c for i, c in hist.items())
    sum_choose = sum(math.comb(i, 2) * c for i, c in hist.items())
    matching = None
    if n >= 5:
        lhs = n * (3 * n - 11) // 2
        rhs = (
            census["e2"] + census["p3_k1"] - census["c3_k1"]
            - census["p4"] - census["k13"] + census["d4"] + census["c4"]
        )
        matching = lhs == rhs
    return {
        # sum g_i = n
        "vertex_count": sum_g == n,
        # sum i*g_i = 2n
        "degree_sum": sum_ig == 2 * n,
        # sum C(i,2) g_i = n + triangles
        "triangle_sum": (sum_choose == n + tri) if n >= 4 else None,
        # g_0 = 0
        "no_isolated": hist.get(0, 0) == 0,
        # max degree <= 3 and triangles = g_3
        "max_degree_3": (max_degree(g) <= 3 and tri == hist.get(3, 0))
        if n >= 4 else None,
        "components_unicyclic": all(
            is_unicyclic(g.subgraph(vs)) for vs in component_vertex_sets(g)
        ),
        # the size-4 coefficient identity
        "matching_identity": matching,
    }


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


# checks: the verdicts of `structural_checks`
ClassMember = namedtuple("ClassMember", "key description graph6 poly checks")


class ClassReport(namedtuple("ClassReport", "n mode members stats wall_time")):
    __slots__ = ()

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


def _class_report(n: int, mode: str, started: float, graphs: list[Graph],
                  stats: dict[str, int]) -> ClassReport:
    """The report of a search begun at `started` that confirmed `graphs` as
    members of the class of C_n: one member per canonical key, the first
    graph found with it, in key order."""
    target = cycle_poly(n)
    members: dict[bytes, ClassMember] = {}
    for g in graphs:
        key, labelled = canonical_form(g)
        if key not in members:
            members[key] = ClassMember(key, describe_graph(g),
                                       emit_graph6(labelled), target,
                                       structural_checks(g, n))
    return ClassReport(n, mode, [members[k] for k in sorted(members)], stats,
                       time.perf_counter() - started)


# --- structured search ------------------------------------------------------

#: A structured candidate: its components as (family, params) parts, with
#: family one of C, D, A, B, E.  ("C", (3,)), ("A", (2, 1)) is C_3 + A(2,1).
Candidate = tuple[tuple[str, tuple[int, ...]], ...]

def _candidate_name(candidate: Candidate) -> str:
    """The graph specification of a candidate, e.g. C3+C5+A(3,1)."""
    return "+".join(
        f"{kind}{ps[0]}" if kind in "CD" else f"{kind}({','.join(map(str, ps))})"
        for kind, ps in candidate
    )


def _candidate_size(candidate: Candidate) -> int:
    return sum(
        ps[0] if kind in "CD" else family_vertex_count(kind, ps)
        for kind, ps in candidate
    )


def _path_table(n: int, bits: int) -> list[int]:
    """p[j] = I(P_j, x) packed in `bits`-wide slots for 0 <= j <= n, by
    end-vertex deletion p[j] = p[j-1] + x*p[j-2]; the list ends with an
    extra 1, so that p[-1] reads p_{-1} = 1."""
    p = [1, 1 << bits | 1]
    for _ in range(2, n + 1):
        p.append(p[-1] + (p[-2] << bits))
    p.append(1)
    return p


def _closed_form(candidate: Candidate, p: list[int], bits: int) -> int:
    """I(candidate, x), packed alike, from the path table p, by
    I(G) = I(G - v) + x*I(G - N[v]) at one vertex v per component: any
    vertex of C_k, the triangle vertex carrying D_k's tail, A's plain
    triangle vertex, E's attachment vertex and B's fork vertex.  What is
    left is paths, and D-graphs for B.  A union is the product of its
    parts."""

    def d(k: int) -> int:
        return p[2] * p[k - 3] + (p[k - 4] << bits)

    product = 1
    for kind, ps in candidate:
        if kind == "C":
            (k,) = ps
            part = p[k - 1] + (p[k - 3] << bits)
        elif kind == "D":
            part = d(ps[0])
        elif kind == "A":
            m1, m2 = ps
            part = p[m1 + m2 + 2] + (p[m1] * p[m2] << bits)
        elif kind == "E":
            m1, m2 = ps
            c = m1 + 3
            part = p[c - 1] * p[m2] + (p[c - 3] * p[m2 - 1] << bits)
        else:  # B, split at the fork vertex
            m1, m2, m3 = ps
            q = d(m1 + 2) if m1 >= 1 else p[2]
            part = (d(m1 + 3) * p[m2] * p[m3]
                    + (q * p[m2 - 1] * p[m3 - 1] << bits))
        product *= part
    return product


def _special_family_params(n: int, kind: str, total: int,
                           r: int) -> Iterator[tuple[int, ...]]:
    """The A/B/E parameters with the given total of arm vertices whose
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
            yield ps


def _structured_candidates(n: int) -> list[Candidate]:
    """Every candidate of the structural narrowing for the class of C_n, in
    a fixed order."""
    candidates: list[Candidate] = [(("C", (n,)),)]
    if n >= 4:
        candidates.append((("D", (n,)),))

    # no union of k >= 2 divisor cycles (or D variants) is a member: each has
    # alpha = (m - 1)/2, so the union's degree (n - k)/2 is below (n - 1)/2
    if n % 3 == 0 and n > 3:
        c3 = ("C", (3,))
        # r = 2: C_3 plus one special component
        for kind in "AEB":
            body = n - 3 - family_vertex_count(kind, ())
            for ps in _special_family_params(n, kind, body, 2):
                candidates.append((c3, (kind, ps)))
        # r = 3: C_3, one divisor cycle (or its D variant), one special
        for m in divisors(n):
            if m < 5 or m % 3 == 0 or m >= n:
                continue
            for kind in "AEB":
                body = n - 3 - m - family_vertex_count(kind, ())
                for mid in (("C", (m,)), ("D", (m,))):
                    for ps in _special_family_params(n, kind, body, 3):
                        candidates.append((c3, mid, (kind, ps)))
    return candidates


def structured_class_search(n: int,
                            cache: PolyCache | None = None) -> ClassReport:
    """The class of C_n via the structural narrowing.

    Every candidate is tested exactly against I(C_n, x) by its closed-form
    polynomial (`_closed_form`), and only a candidate that passes is built
    as a graph; `indpoly` must then confirm it before it becomes a member.
    A closed form that `indpoly` contradicts raises AssertionError.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"structured search requires odd n >= 3, got {n}")
    if n > MAX_COMPONENT_VERTICES:
        # members are identified by canonical key, and C_n is a component
        raise CanonicalRefusalError(
            f"structured search supports n <= {MAX_COMPONENT_VERTICES} "
            f"(MAX_COMPONENT_VERTICES, the canonical-key limit), got {n}"
        )
    started = time.perf_counter()
    target = cycle_poly(n)
    stats = {
        "candidates_generated": 0,
        "polynomial_tests": 0,
    }
    graphs = []
    bits = n + 1
    p = _path_table(n, bits)
    packed_target = pack(target, bits)
    for candidate in _structured_candidates(n):
        stats["candidates_generated"] += 1
        if _candidate_size(candidate) != n:
            raise AssertionError(
                f"candidate {_candidate_name(candidate)} has wrong size"
            )
        stats["polynomial_tests"] += 1
        if _closed_form(candidate, p, bits) != packed_target:
            continue
        g = parse_spec(_candidate_name(candidate))
        if indpoly(g, cache) != target:
            raise AssertionError(
                f"the closed form of candidate {_candidate_name(candidate)} "
                f"equals I(C_{n}, x), but indpoly disagrees"
            )
        graphs.append(g)
    return _class_report(n, "structured", started, graphs, stats)


# --- rooted trees and unicyclic enumeration ---------------------------------


class RootedTree:
    """A rooted tree up to isomorphism: `last`, a child of largest rank,
    and `base`, the tree with the root's other children (both None for a
    single vertex), and `rank`, its place in its table, set by the table.

    Carries the branch-vertex weights that the degree-census prefilter uses
    and (w0, w1), the independence polynomials of the tree with its root
    excluded and included, packed in `bits`-wide slots as by `intpoly.pack`.
    """

    __slots__ = ("base", "last", "rank", "inner_weight", "attach_weight",
                 "w0", "w1")

    def __init__(self, base: RootedTree | None,
                 last: RootedTree | None, bits: int):
        self.base = base
        self.last = last
        if base is None:
            self.inner_weight = self.attach_weight = 0
            self.w0, self.w1 = 1, 1 << bits
            return
        # the root's C(degree, 2) grows by the base's degree
        self.inner_weight = base.attach_weight + last.inner_weight
        # on a cycle vertex the root's C(degree, 2) becomes C(degree + 1, 2):
        # it grows by the root's child count, the base's plus 1
        self.attach_weight = (self.inner_weight + base.attach_weight
                              - base.inner_weight + 1)
        self.w0 = base.w0 * (last.w0 + last.w1)
        self.w1 = base.w1 * last.w0

    def edges(self, root_label: int, next_label: int,
              out: list[tuple[int, int]]) -> int:
        """Append this tree's edges using dense labels; returns the next
        free label."""
        if self.base is not None:
            next_label = self.base.edges(root_label, next_label, out)
            out.append((root_label, next_label))
            next_label = self.last.edges(next_label, next_label + 1, out)
        return next_label


def _rooted_trees(caps: list, bits: int) -> list[list[RootedTree]]:
    """trees[s], for 1 <= s < len(caps): the rooted trees on s vertices up
    to isomorphism whose inner weight is at most caps[s], packed in
    `bits`-wide slots.  caps must not rise with s.

    Each tree is made once, from its base and its last child, a child of
    rank at least the base's last.  Each trees[s] is then sorted by attach
    weight, stably, and ranks run 0, 1, ... through the sorted lists, so
    they order the trees by size, then attach weight, then making order.
    Weight never falls as a child is added, so every base and child of a
    kept tree is kept too; filtering commutes with a stable sort, so a
    capped table's order is the uncapped table's filtered.

    A caller that wants the trees whose attach weight is at most A[s] may
    pass caps[s] = A[s] - 1 for s >= 2, and the -1 is exact: a tree on two
    or more vertices attaches with its inner weight plus its root's child
    count, at least 1, so it drops no such tree, and a tree whose root has
    one child attaches with exactly its cap plus 1."""
    leaf = RootedTree(None, None, bits)
    leaf.rank = 0
    trees = [[], [leaf]]
    rank = 1
    for s in range(2, len(caps)):
        made = []
        for j in range(1, s):
            for base in trees[s - j]:
                room = caps[s] - base.attach_weight
                floor = -1 if base.last is None else base.last.rank
                for child in reversed(trees[j]):
                    if child.rank < floor:
                        break
                    if child.inner_weight <= room:
                        made.append(RootedTree(base, child, bits))
        made.sort(key=lambda t: t.attach_weight)
        for t in made:
            t.rank = rank
            rank += 1
        trees.append(made)
    return trees


def _necklace_graph(c: int, trees: tuple[RootedTree, ...]) -> Graph:
    edges = [(i, (i + 1) % c) for i in range(c)]
    next_label = c
    for i, t in enumerate(trees):
        next_label = t.edges(i, next_label, edges)
    return Graph(next_label, edges)


#: A connected unicyclic graph as the unicyclic pool holds it: (vertex
#: count, cycle length, rooted trees hung on the cycle positions,
#: independence polynomial).
Necklace = tuple[int, int, tuple[RootedTree, ...], int]

#: A tree the walk may place, as a size's table holds it: (code, attach
#: weight, w0, w1, tree).
Entry = tuple[str, int, int, int, RootedTree]

#: What the necklace walk hands over per prefix and size: emit(v, c, head,
#: whole, a, run) stands for the graphs on v vertices whose cycle of length
#: c carries the trees of head and then one entry of run, in run's order;
#: the graph ending in entry (_, _, w0, w1, t) has I(G, x) = whole*w0 + a*w1.
NecklaceRuns = Callable[
    [int, int, tuple[RootedTree, ...], int, int, list[Entry]], None]


def unicyclic_necklaces(budgets: dict[int, int | None], bits: int,
                        emit: NecklaceRuns) -> None:
    """Hand emit the connected unicyclic graphs, one per isomorphism class,
    on each vertex count v in budgets whose total attach weight is at most
    budgets[v] (None: unbounded), with I(G, x) packed in `bits`-wide slots.
    They are handed over as the walk finds them, one run of last positions
    per prefix and size (`NecklaceRuns`); none is kept.

    The pooled trees get one-character codes, by size and then by rank, and
    each class appears once, as the dihedral-minimal sequence of codes
    around its unique cycle; any total order of the trees would do, and
    this one gives each size one slice of codes, ordered by attach weight,
    so the trees of a size that fit a room are a prefix of its slice.  One
    walk per cycle length c fills the positions in order and serves every
    v at once.  Only prefixes of necklaces are extended (the prenecklace
    rule of Fredricksen, Kessler and Maiorana; Ruskey, Savage and Wang,
    J. Algorithms 13, 1992): with p the length of the prefix's longest
    Lyndon prefix, position pos takes only codes >= seq[pos - p], and p
    stays on equality and becomes pos + 1 otherwise.  A full sequence is a
    necklace iff c % p == 0, and is kept iff no rotation of its reversal
    is smaller.  A prefix is cut once its weight exceeds every budget it
    can still reach, and a position takes, per size, the slice from its
    least code to the last tree that fits.

    A prefix is also cut once the vertices left cannot fill its open
    positions.  Every kept sequence obeys three bounds:

    1. every position holds a code >= seq[0] (the prenecklace rule);
    2. if seq[0] leads a run of length L < c, the last position holds a
       code >= seq[L], since the reflection i -> L - 1 - i keeps the run
       in place and sets seq[c - 1] against seq[L];
    3. the last code exceeds seq[c - 1 - p] unless c % p == 0 (the
       necklace test).

    With spare[r] the fewest vertices beyond its root of a pooled tree with
    code >= r, every open position but the last reserves spare[seq[0]]
    vertices and the last one spare[need], need being the least code that
    bounds 1 and 2 leave it.  A tree is placed only if the largest size
    served still holds the reservation after it.  While seq[0]'s run is
    unbroken the code placed becomes need, so a position stops at the first
    size whose reservation does not fit.  The last position starts its
    scan at need or at the strict floor of bound 3, whichever is larger.
    The bounds cut no prefix that a sequence kept by the reversal check
    extends, so the output and its order are unchanged.

    The last position hands over a run, not one graph at a time: with the
    first c - 1 codes fixed, the last codes that pass the reversal check
    form an up-set.  Let r < r', and let a rotation R' of r' + reversed(head)
    be smaller than head + r'; the same rotation R of r + reversed(head) is
    then smaller than head + r.  r' sits once in R', at j say.  If R' and
    head + r' first differ before j, putting r for r' changes neither
    before that place.  Otherwise j < c - 1, as both hold r' at c - 1, so
    head[j] >= r' > r, and R, equal to head + r before j, is smaller at j.
    So per size the last position scans up from its start code, checks the
    reversal only for codes below the least one passed so far at this
    prefix, and stops at the first code that passes: every later code in
    the size's slice passes too, and the run is the slice from there to the
    last tree that fits the size's budget room.

    The walk carries the cycle's two-state sweep down the positions (first
    root out or in, current root out or in), so the consumer gets each
    graph's polynomial as one combine, whole*w0 + a*w1.  Graphs come out by
    c, and within c in the walk's order, which puts each v's in nested
    order: per position, codes ascending.
    """
    served = sorted(budgets)
    top = served[-1]
    limits = {v: math.inf if b is None else b for v, b in budgets.items()}
    # reach[u]: the largest budget of a size >= u, the most a prefix on u
    # vertices may weigh (-1: no size left to serve)
    reach = [-1] * (top + 2)
    for u in range(top, 2, -1):
        reach[u] = max(reach[u + 1], limits.get(u, -1))
    # a tree on s vertices hangs in a graph on s + 2 vertices or more, so it
    # is pooled only if its attach weight is at most reach[s + 2].  On s >= 2
    # vertices that weight is its inner weight plus its root's child count,
    # at least 1, so the table caps inner weight at reach[s + 2] - 1: a
    # pooled tree with one child sits on that cap, so no lower one would do.
    # The table is the call's own, dropped once the pools are drawn from it
    by_size = _rooted_trees(
        reach[2:4] + [cap - 1 for cap in reach[4:top + 1]], bits)
    # the pooled trees compare as one-character codes, given by size, then
    # rank, so each size's weights never fall as the code rises; spare[r]:
    # the vertices beyond its root of the tree with code r, and top past the
    # last code.  Codes follow size, so spare never falls as the code rises,
    # and spare[r] is also the fewest vertices beyond its root of a pooled
    # tree with code >= r, as the reservation bounds need
    tables = {}
    spare = []
    for s in range(1, top - 1):
        pool = [t for t in by_size[s] if t.attach_weight <= reach[s + 2]]
        codes = [chr(len(spare) + i) for i in range(len(pool))]
        spare += [s - 1] * len(pool)
        weights = [t.attach_weight for t in pool]
        entries = [(r, t.attach_weight, t.w0, t.w1, t)
                   for r, t in zip(codes, pool)]
        tables[s] = (codes, weights, entries)
    del by_size
    past = chr(len(spare))  # above every code
    spare.append(top)

    for c in range(3, top + 1):
        seq = [""] * c
        trees: list[RootedTree | None] = [None] * c

        def walk(pos: int, used: int, weight: int, p: int, need: str,
                 a: int, b: int, a2: int, b2: int):
            # a, b: first root out, current root out / in; a2, b2: first
            # root in.  `used` counts the vertices placed so far, with one
            # per position still open; need is the least code the last
            # position may take.
            if pos:
                floor = seq[pos - p]
                each = spare[ord(seq[0])]
                # the vertices beyond one each that positions pos + 1 to
                # c - 1 take at least
                res = (c - 2 - pos) * each + spare[ord(need)]
            else:
                floor = "\0"
                res = 0
            nxt = last if pos + 2 == c else walk
            # a tree on two or more vertices weighs at least its root's
            # degree, so a prefix with no room left takes single vertices
            sizes = top - used - res + 1 if reach[used] > weight else 1
            for s in range(1, sizes + 1):
                after = used + s - 1
                room = reach[after] - weight
                if room < 0:
                    break
                if p == 1:
                    # seq[0]'s run is unbroken, so the code placed here
                    # becomes need (at position 0, every later position's
                    # least code too): stop at the first size whose
                    # reservation does not fit, as k never rises with s
                    k = ((top - after) // (c - 1) if pos == 0
                         else top - after - res + each)
                    if s - 1 > k:
                        break
                codes, weights, entries = tables[s]
                lo = bisect.bisect_left(codes, floor)
                hi = bisect.bisect_right(weights, room)
                for r, aw, w0, w1, t in entries[lo:hi]:
                    seq[pos] = r
                    trees[pos] = t
                    nxt(pos + 1, after, weight + aw,
                        p if r == floor else pos + 1, r if p == 1 else need,
                        (a + b) * w0, a * w1, (a2 + b2) * w0, a2 * w1)

        def last(pos: int, used: int, weight: int, p: int, need: str,
                 a: int, b: int, a2: int, b2: int):
            floor = seq[pos - p]
            # the last code may equal floor only if c % p == 0 (bound 3)
            start = max(need, floor if c % p == 0 else chr(ord(floor) + 1))
            least = used + spare[ord(start)]
            if least > top:
                return
            whole = a + b + a2 + b2
            head = "".join(seq[:pos])
            back = head[::-1]
            kept = tuple(trees[:pos])
            # a rotation of the reversal smaller than the necklace starts
            # with the necklace's leading run of its least code, which is
            # its longest run and, unless all codes are equal, the head's
            lead = head[:pos - len(head.lstrip(head[0]))]
            # the codes that pass the reversal check form an up-set, so
            # every code >= ok, the least one passed so far, passes too
            ok = past
            for v in served[bisect.bisect_left(served, least):]:
                room = limits[v] - weight
                codes, weights, entries = tables[v - used + 1]
                lo = bisect.bisect_left(codes, start)
                hi = bisect.bisect_right(weights, room)
                # the run starts at the first code below ok that passes, or
                # else at the first code >= ok
                below = bisect.bisect_left(codes, ok, lo, hi)
                for i in range(lo, below):
                    r = codes[i]
                    key = head + r
                    rev = r + back
                    rev += rev
                    k = rev.find(lead)
                    while k < c and rev[k:k + c] >= key:
                        k = rev.find(lead, k + 1)
                    if k >= c:
                        ok = r
                        break
                else:
                    i = below
                if i < hi:
                    emit(v, c, kept, whole, a, entries[i:hi])

        # the state before position 0 makes its update (w0, 0, 0, w1)
        walk(0, c, 0, 1, "\0", 0, 1, 1, -1)


def enumerate_unicyclic(v: int, emit: Callable[[Graph], None]) -> None:
    """Hand emit every connected unicyclic graph on v vertices up to
    isomorphism, each built as the necklace walk finds it."""
    if not 3 <= v <= MAX_UNICYCLIC_LIST_V:
        raise ValueError(
            f"unicyclic enumeration supports 3 <= v <= {MAX_UNICYCLIC_LIST_V} "
            f"(MAX_UNICYCLIC_LIST_V), got {v}"
        )

    def build(v: int, c: int, head: tuple[RootedTree, ...], whole: int,
              a: int, run: list[Entry]):
        for _, _, _, _, t in run:
            emit(_necklace_graph(c, head + (t,)))

    unicyclic_necklaces({v: None}, v + 1, build)


# --- exhaustive search: unicyclic multisets ----------------------------------


def _divisor_table(n: int, bits: int) -> dict[int, tuple[int, int]]:
    """Every divisor of I(C_n, x) with constant term 1, other than 1, packed
    in `bits`-wide slots and mapped to (v, m): the vertex count v of a
    component with that polynomial and its branch weight
    m = wt - [cycle is a triangle], from matching the cubic coefficient.

    The factors f_m are distinct and irreducible, so these divisors are the
    products of the nonempty subsets of them.  I(C_n, x) has only negative
    real roots, so every such product has nonnegative coefficients no larger
    than I(C_n, x)'s, and the packed products are exact.
    """
    fs = [pack(f_poly_by_division(m), bits) for m in divisors(n) if m >= 3]
    mask = (1 << bits) - 1
    table = {}
    for r in range(1, len(fs) + 1):
        for combo in itertools.combinations(fs, r):
            q = math.prod(combo)
            v = q >> bits & mask
            cubic = q >> 3 * bits & mask
            table[q] = (v, cubic - math.comb(v, 3) + v * (v - 2) - v)
    return table


def _exhaustive_unicyclic(n: int, cache: PolyCache, prune: bool,
                          stats: dict[str, int]) -> list[Graph]:
    """Members among the unions of connected unicyclic graphs, from one
    necklace walk serving every component size.  Pruned, each size's budget
    is the largest branch weight the divisor table (`_divisor_table`) admits
    on it, and only components whose packed polynomial is in the table are
    admitted; the others are counted by the filter that dropped them.  A
    packed match that `indpoly` contradicts raises AssertionError."""
    target = cycle_poly(n)
    goal = pack(target, n + 1)
    table = _divisor_table(n, n + 1) if prune else {}
    # classes[v]: the branch weights the table admits on v vertices
    classes: dict[int, set[int]] = {}
    for v, m in table.values():
        classes.setdefault(v, set()).add(m)
    budgets = ({v: max(ms) + 1 for v, ms in classes.items() if max(ms) >= -1}
               if prune else dict.fromkeys(range(3, n + 1)))
    stats.update(components_generated=0, components_pruned_census=0,
                 components_pruned_divisor=0, components_admitted=0,
                 multisets_tested=0, polynomial_tests=0)
    found: list[Graph] = []

    def accept(chosen: list[Necklace]):
        g = union(*(_necklace_graph(c, trees) for _, c, trees, _ in chosen))
        stats["polynomial_tests"] += 1
        if indpoly(g, cache) != target:
            raise AssertionError(
                f"the packed product of {describe_graph(g)} equals "
                f"I(C_{n}, x), but indpoly disagrees"
            )
        found.append(g)

    # A component on all n vertices is a one-part multiset, tested as it
    # arrives.  One on n - 1 or n - 2 vertices is in no multiset, since no
    # cycle fits in the 1 or 2 vertices left.  Only the rest are pooled.
    pool: list[Necklace] = []
    taken = single = 0

    def take(v: int, c: int, head: tuple[RootedTree, ...], whole: int,
             a: int, run: list[Entry]):
        nonlocal taken, single
        if prune:
            base = sum(t.attach_weight for t in head) - (1 if c == 3 else 0)
            kept = []
            for entry in run:
                if whole * entry[2] + a * entry[3] in table:
                    kept.append(entry)
                else:
                    stats["components_pruned_census"
                          if base + entry[1] not in classes[v]
                          else "components_pruned_divisor"] += 1
            run = kept
        taken += len(run)
        if v == n:
            single += len(run)
            for _, _, w0, w1, t in run:
                if whole * w0 + a * w1 == goal:
                    accept([(v, c, head + (t,), goal)])
        elif v <= n - 3:
            pool.extend((v, c, head + (t,), whole * w0 + a * w1)
                        for _, _, w0, w1, t in run)

    unicyclic_necklaces(budgets, n + 1, take)
    stats["components_generated"] = (taken + stats["components_pruned_census"]
                                     + stats["components_pruned_divisor"])
    stats["components_admitted"] = taken
    stats["multisets_tested"] = single
    # stable, so each size keeps the walk's order; the pool runs from large
    # components to small: fits[r] is the first entry on at most r
    # vertices, so no level walks past the larger ones
    pool.sort(key=lambda comp: comp[0], reverse=True)
    fits = [bisect.bisect_left(pool, -r, key=lambda comp: -comp[0])
            for r in range(n + 1)]

    def descend(idx: int, remaining: int, acc: int, chosen: list[Necklace]):
        # acc: the packed product of the chosen components' polynomials;
        # pruned, every partial product must divide the target
        if remaining == 0:
            stats["multisets_tested"] += 1
            if acc == goal:
                accept(chosen)
            return
        for k in range(max(idx, fits[remaining]), len(pool)):
            comp = pool[k]
            left = remaining - comp[0]
            if left == 1 or left == 2:
                continue
            nxt = acc * comp[3]
            if prune and nxt not in table:
                continue
            chosen.append(comp)
            descend(k, left, nxt, chosen)
            chosen.pop()

    descend(0, n, 1, [])
    return found


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


def _graph_levels(
    n: int, s_bound: float
) -> Iterator[dict[bytes, tuple[Graph, int]]]:
    """Graphs on n vertices by edge count, one labelled representative per
    isomorphism class.  Level m maps the canonical key of each m-edge class
    to (representative, S), with S = sum C(deg,2) - triangles, and holds
    only classes with S <= s_bound (math.inf keeps them all).

    Level m + 1 adds each non-edge to each representative of level m.
    Adding an edge never lowers S, so every edge-deleted subgraph of a
    class within the bound is, up to isomorphism, a representative one
    level down: the levels miss no class.

    Each representative keeps its components as (vertex mask, connected
    key).  Adding uv merges the component of u with that of v and leaves
    the others as they were, so a candidate's key is assembled from theirs
    and the merged component's (`join_component_keys`, the bytes of
    `canonical_key`).  The merged component is labelled once per scan for
    each dense labelled form, its vertices renumbered in order, and the
    candidate's graph is built only when its key is new to the level.
    """
    single = connected_canonical_form(Graph(1))[0]
    level = {canonical_key(Graph(n)): (Graph(n), 0)}
    parts = {key: tuple((1 << x, single) for x in range(n)) for key in level}
    # a component's dense edge bit b(b - 1)/2 + a stands for its vertex
    # pair (a, b), a < b; labelled maps those bits, shifted past the
    # component's size, to its connected key
    pairs = [(a, b) for b in range(n) for a in range(b)]
    width = n.bit_length()
    labelled: dict[int, bytes] = {}
    rank = [0] * n
    while level:
        yield level
        grown: dict[bytes, tuple[Graph, int]] = {}
        grown_parts: dict[bytes, tuple[tuple[int, bytes], ...]] = {}
        for key, (g, s) in level.items():
            adj = g.adjacency_masks()
            # twins: non-adjacent vertices with equal neighbourhoods, which
            # swapping maps onto each other; first[v] is v's least twin
            first = [adj.index(a) for a in adj]
            comps = parts[key]
            where = [0] * n
            for i, (mask, _) in enumerate(comps):
                while mask:
                    low = mask & -mask
                    where[low.bit_length() - 1] = i
                    mask ^= low
            for u, v in itertools.combinations(range(n), 2):
                if adj[u] >> v & 1:
                    continue
                # adding uw for a lesser twin w of v (or wv for one of u)
                # makes an isomorphic graph
                if (first[v] < v and first[v] != u) or first[u] < u:
                    continue
                # the new edge closes deg u + deg v paths on three
                # vertices, minus one per triangle it completes
                s2 = (s + adj[u].bit_count() + adj[v].bit_count()
                      - (adj[u] & adj[v]).bit_count())
                if s2 > s_bound:
                    continue
                i, j = where[u], where[v]
                merged = comps[i][0] | comps[j][0]
                # the merged component's dense edge bits, uv included: its
                # k-th vertex in order sets one bit per lesser neighbour,
                # all of which lie in merged, a union of whole components
                k = code = 0
                rest = merged
                while rest:
                    low = rest & -rest
                    x = low.bit_length() - 1
                    rank[x] = k
                    row = k * (k - 1) >> 1
                    below = adj[x] & (low - 1)
                    while below:
                        bit = below & -below
                        code |= 1 << (row + rank[bit.bit_length() - 1])
                        below ^= bit
                    k += 1
                    rest ^= low
                code |= 1 << ((rank[v] * (rank[v] - 1) >> 1) + rank[u])
                packed = code << width | k
                ckey = labelled.get(packed)
                if ckey is None:
                    ckey = labelled[packed] = connected_canonical_form(Graph(
                        k, [pairs[p] for p in range(code.bit_length())
                            if code >> p & 1]))[0]
                others = [comps[c] for c in range(len(comps))
                          if c != i and c != j]
                hkey = join_component_keys(
                    n, [ck for _, ck in others] + [ckey])
                if hkey not in grown:
                    grown[hkey] = (Graph(n, [*g.edges, (u, v)]), s2)
                    grown_parts[hkey] = (*others, (merged, ckey))
        level, parts = grown, grown_parts


def _exhaustive_all_graphs(n: int, stats: dict[str, int]) -> list[Graph]:
    """Members among the n-vertex, n-edge graphs (the linear and quadratic
    coefficients force those counts), generated up to isomorphism under the
    S bound that the cubic coefficient sets, then filtered on the quartic
    coefficient and brute-forced once per class."""
    target = cycle_poly(n)
    s_target = target[3] - math.comb(n, 3) + n * (n - 2)
    i4_target = target[4]
    stats.update(classes_generated=0, i3_leaves=0, i4_pass=0)
    levels = itertools.islice(_graph_levels(n, s_target), n + 1)
    next(levels)  # level 0, the edgeless graph
    for level in levels:
        stats["classes_generated"] += len(level)
    found = []
    for g, s in level.values():
        if s != s_target:
            continue
        stats["i3_leaves"] += 1
        if _count_independent_quads(g.adjacency_masks(), n, i4_target) != i4_target:
            continue
        stats["i4_pass"] += 1
        if indpoly_bruteforce(g) == target:
            found.append(g)
    stats["polynomials_computed"] = stats["i4_pass"]
    return found


def exhaustive_class_search(n: int, mode: str = "unicyclic_multisets",
                            cache: PolyCache | None = None,
                            prune: bool = True) -> ClassReport:
    """The class of C_n by exhaustive search, independent of the structural
    narrowing that drives the structured search."""
    started = time.perf_counter()
    stats: dict[str, int] = {}
    if mode == "all_graphs":
        if not 3 <= n <= MAX_ALL_GRAPHS_N:
            raise ValueError(
                f"all-graphs scan supports 3 <= n <= {MAX_ALL_GRAPHS_N} "
                f"(MAX_ALL_GRAPHS_N), got {n}"
            )
        graphs = _exhaustive_all_graphs(n, stats)
        mode_name = "exhaustive_all_graphs"
    elif mode == "unicyclic_multisets":
        if not (3 <= n <= MAX_UNICYCLIC_N and n % 2 == 1):
            raise ValueError(
                f"unicyclic-multiset scan supports odd 3 <= n <= "
                f"{MAX_UNICYCLIC_N} (MAX_UNICYCLIC_N), got {n}"
            )
        if not prune and n > MAX_UNPRUNED_UNICYCLIC_N:
            raise ValueError(
                f"unpruned unicyclic-multiset scan supports n <= "
                f"{MAX_UNPRUNED_UNICYCLIC_N} (MAX_UNPRUNED_UNICYCLIC_N), got {n}"
            )
        graphs = _exhaustive_unicyclic(n, cache, prune, stats)
        mode_name = "exhaustive_unicyclic_multisets"
    else:
        raise ValueError(f"unknown exhaustive mode {mode!r}")
    return _class_report(n, mode_name, started, graphs, stats)
