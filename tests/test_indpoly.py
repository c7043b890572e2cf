import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from indequiv.factors import f_poly_by_division
from indequiv.graphs import (
    Graph,
    a_graph,
    b_graph,
    cycle,
    d_graph,
    e_graph,
    named_graph,
    path,
    union,
)
from indequiv.indpoly import (
    PolyCache,
    indpoly,
    indpoly_bruteforce,
)
from indequiv.intpoly import IntPoly, ONE, X, cycle_poly

from conftest import (
    delete_closed_neighborhood,
    delete_edge_closure,
    delete_vertex,
    naive_independent_counts,
    path_poly,
    poly_sub,
    random_graph,
)


def indpoly_edge_rule_check(g: Graph, e: tuple[int, int],
                            cache: PolyCache | None = None) -> bool:
    """Recompute I(G, x) through the edge-deletion identity

        I(G, x) = I(G - e, x) - x^2 * I(G - (N(u) ∪ N(v)), x)

    and report whether it matches the vertex-deletion route.
    """
    g_minus_e, g_closure = delete_edge_closure(g, e)
    via_edge = poly_sub(indpoly(g_minus_e, cache),
                        (X * X) * indpoly(g_closure, cache))
    return via_edge == indpoly(g, cache)


def test_bruteforce_examples():
    assert indpoly_bruteforce(cycle(3)) == IntPoly([1, 3])
    assert indpoly_bruteforce(d_graph(5)) == IntPoly([1, 5, 5])
    assert indpoly_bruteforce(Graph(0)) == ONE


def test_bruteforce_matches_subset_enumeration(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 9))
        assert list(indpoly_bruteforce(g).coeffs) == naive_independent_counts(g)


def test_bruteforce_refuses_large():
    with pytest.raises(ValueError):
        indpoly_bruteforce(Graph(23))


def test_engine_examples():
    cache = PolyCache()
    assert indpoly(cycle(9), cache) == IntPoly([1, 9, 27, 30, 9])
    assert indpoly(union(cycle(3), named_graph("Ga")), cache) == cycle_poly(9)
    assert indpoly(union(cycle(3), cycle(5), a_graph(3, 1)), cache) == cycle_poly(15)


CORPUS = [
    cycle(3), cycle(4), cycle(9), cycle(14),
    d_graph(4), d_graph(9), d_graph(13),
    path(1), path(7), path(12),
    a_graph(1, 1), a_graph(2, 1), a_graph(4, 3), a_graph(5, 6),
    b_graph(0, 1, 1), b_graph(2, 3, 1), b_graph(3, 4, 4),
    e_graph(1, 2), e_graph(4, 2), e_graph(2, 8),
    *(named_graph(n) for n in ("Ga", "Gb", "Gc", "Gd", "Ga'", "Gb'", "Gc'")),
    union(cycle(3), d_graph(5), path(4)),
    union(e_graph(1, 1), b_graph(0, 2, 2)),
]


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_engine_matches_bruteforce_on_corpus(idx):
    g = CORPUS[idx]
    assert g.n <= 18
    assert indpoly(g) == indpoly_bruteforce(g)


def test_engine_matches_bruteforce_on_random_unions(rng):
    cache = PolyCache()
    pieces = [cycle(5), d_graph(4), path(3), a_graph(1, 2), cycle(3)]
    for _ in range(10):
        parts = rng.sample(pieces, k=rng.randint(1, 3))
        g = union(*parts)
        if g.n <= 18:
            assert indpoly(g, cache) == indpoly_bruteforce(g)


def test_union_multiplies(rng):
    cache = PolyCache()
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7))
        h = random_graph(rng, rng.randint(1, 7))
        assert indpoly(union(g, h), cache) == indpoly(g, cache) * indpoly(h, cache)


def test_vertex_deletion_identity(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10))
        v = rng.randrange(g.n)
        lhs = indpoly_bruteforce(g)
        rhs = indpoly_bruteforce(delete_vertex(g, v)) + X * indpoly_bruteforce(
            delete_closed_neighborhood(g, v)
        )
        assert lhs == rhs


def test_edge_rule_check():
    cache = PolyCache()
    for e in cycle(5).edges:
        assert indpoly_edge_rule_check(cycle(5), e, cache)
    d9 = d_graph(9)
    triangle_edge = (0, 1)  # the edge of the triangle not on the tail side
    assert indpoly_edge_rule_check(d9, triangle_edge, cache)
    for e in a_graph(2, 1).edges:
        assert indpoly_edge_rule_check(a_graph(2, 1), e, cache)


def test_independence_numbers():
    assert indpoly(cycle(9)).degree == 4
    assert indpoly(Graph(0)).degree == 0
    assert indpoly(a_graph(2, 1)).degree == 3 == f_poly_by_division(9).degree


def test_cycle_equals_tailed_triangle_small():
    cache = PolyCache()
    for n in range(4, 21):
        assert indpoly(d_graph(n), cache) == cycle_poly(n)


def test_a_family_path_identity():
    cache = PolyCache()
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            want = path_poly(m1 + m2 + 2) + X * path_poly(m1) * path_poly(m2)
            assert indpoly(a_graph(m1, m2), cache) == want


def test_b_family_closed_form():
    cache = PolyCache()
    for m1 in range(0, 5):
        for m2 in range(1, 6):
            for m3 in range(1, 6):
                first = cycle_poly(m1 + 3) * path_poly(m2) * path_poly(m3)
                # with no stem, removing the fork's closed neighborhood
                # leaves a bare edge of the triangle
                second = cycle_poly(m1 + 2) if m1 >= 1 else path_poly(2)
                rest = X * second * path_poly(m2 - 1) * path_poly(m3 - 1)
                assert indpoly(b_graph(m1, m2, m3), cache) == first + rest


def test_low_coefficients(rng):
    cache = PolyCache()
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10))
        p = indpoly(g, cache)
        assert p[0] == 1
        assert p[1] == g.n
        assert p[2] == g.n * (g.n - 1) // 2 - g.n_edges


def test_pivot_choice_is_irrelevant(rng):
    def poly_random_pivot(g: Graph, rnd) -> IntPoly:
        if g.n == 0:
            return ONE
        v = rnd.randrange(g.n)
        return poly_random_pivot(delete_vertex(g, v), rnd) + X * poly_random_pivot(
            delete_closed_neighborhood(g, v), rnd
        )

    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 9))
        assert poly_random_pivot(g, rng) == indpoly(g)


def ladder(rungs: int) -> Graph:
    """Two paths of `rungs` vertices joined rung by rung."""
    n = 2 * rungs
    return Graph(n, [(2 * i, 2 * i + 1) for i in range(rungs)]
                 + [(i, i + 2) for i in range(n - 2)])


def comb(k: int) -> Graph:
    """A k-vertex spine 0..k-1 with a pendant leaf k + i on spine vertex i."""
    return Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])


def test_cache_stats_track_hits():
    # a non-chain graph: deleting different pivots leaves equal sub-ladders
    cache = PolyCache()
    indpoly(ladder(8), cache)
    before = cache.hits
    indpoly(ladder(8), cache)
    assert cache.hits > before


def test_chain_components_are_single_memo_entries():
    # a path or cycle is finished where it is found, with no sub-masks
    for g in (cycle(9), path(9)):
        cache = PolyCache()
        indpoly(g, cache)
        assert cache.stats() == {"hits": 0, "misses": 1}


def test_deep_components_do_not_exhaust_the_recursion_limit():
    assert indpoly(cycle(70)) == cycle_poly(70)
    assert indpoly(d_graph(70)) == cycle_poly(70)
    assert indpoly(cycle(400)) == cycle_poly(400)
    # the comb has no chain leaf until its end: it recurses about once per
    # spine vertex.  Deleting an end of the spine gives
    # I(comb_k) = (1+x) I(comb_{k-1}) + x(1+x) I(comb_{k-2})
    one_plus_x = ONE + X
    combs = [ONE, ONE + 2 * X]
    for _ in range(2, 401):
        combs.append(one_plus_x * combs[-1] + X * one_plus_x * combs[-2])
    assert indpoly(comb(400)) == combs[400]


def test_long_cycle_matches_the_closed_form():
    assert indpoly(cycle(1000)) == cycle_poly(1000)


@pytest.mark.parametrize("k", [2, 3, 4, 200])
def test_chains_match_the_closed_forms(k):
    # alone, and beside other vertices, so the slots are wider than the chain
    assert indpoly(path(k)) == path_poly(k)
    assert indpoly(union(path(k), cycle(5))) == path_poly(k) * cycle_poly(5)
    if k >= 3:
        assert indpoly(cycle(k)) == cycle_poly(k)
        assert indpoly(union(cycle(k), path(k))) == cycle_poly(k) * path_poly(k)


def test_long_chain_holds_two_packed_terms():
    # a chain is run up from two terms, not from a table of every shorter
    # path: a table for C_1500 peaks near 113 MB
    g = cycle(1500)
    tracemalloc.start()
    try:
        indpoly(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_edgeless_graph_fills_the_packed_slots():
    # (1 + x)^n has the largest coefficients, C(n, n//2), an n-vertex
    # polynomial can have: the widest a memo slot of n + 1 bits must hold
    for n in range(65):
        want = IntPoly(math.comb(n, k) for k in range(n + 1))
        assert indpoly(Graph(n, [])) == want


@st.composite
def labelled_graphs(draw, max_n=14):
    """Random graphs on up to max_n vertices, disconnected ones included,
    with a permutation of their labels."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), perm


@st.composite
def chain_unions(draw, max_n=16):
    """Disjoint unions of paths and cycles under a random labelling, with
    at times one extra edge that gives some vertex degree 3."""
    pieces = []
    n = 0
    for size, closed in draw(st.lists(st.tuples(st.integers(1, 9), st.booleans()),
                                      min_size=1, max_size=5)):
        if n + size > max_n:
            break
        pieces.append(cycle(size) if closed and size >= 3 else path(size))
        n += size
    g = union(*pieces)
    edges = sorted(g.edges)
    hubs = [v for v in range(g.n) if g.degree(v) == 2]
    if hubs and draw(st.booleans()):
        u = draw(st.sampled_from(hubs))
        others = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
        if others:
            edges.append((u, draw(st.sampled_from(others))))
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, edges).relabel(perm)


@settings(max_examples=150, deadline=None)
@given(chain_unions())
def test_engine_matches_bruteforce_on_chain_unions(g):
    assert indpoly(g) == indpoly_bruteforce(g)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
def test_engine_matches_bruteforce_property(case):
    g, _ = case
    assert indpoly(g) == indpoly_bruteforce(g)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs())
def test_engine_is_invariant_under_relabelling(case):
    # the memo is keyed by labelled vertex masks
    g, perm = case
    assert indpoly(g) == indpoly(g.relabel(perm))


@settings(max_examples=50, deadline=None)
@given(labelled_graphs())
def test_engine_reports_memo_lookups(case):
    # a component with an edge is computed through the memo; single
    # vertices are base cases and never looked up
    g, _ = case
    assume(g.n_edges > 0)
    cache = PolyCache()
    indpoly(g, cache)
    assert cache.hits + cache.misses > 0
    assert cache.stats() == {"hits": cache.hits, "misses": cache.misses}
