import pytest
from hypothesis import given, settings, strategies as st

from indequiv.canon import (
    CanonicalRefusalError,
    canonical_form,
    canonical_key,
)
from indequiv.graph6 import (
    Graph6Error,
    emit_graph6,
    parse_graph6,
)
from indequiv.graphs import (
    Graph,
    GraphSpecError,
    a_graph,
    b_graph,
    component_masks,
    component_vertex_sets,
    cycle,
    d_graph,
    degree_histogram,
    e_graph,
    is_unicyclic,
    k4_minus_e,
    named_graph,
    path,
    star_k13,
    union,
)

from conftest import (
    brute_force_isomorphic,
    delete_closed_neighborhood,
    delete_edge_closure,
    delete_vertex,
    random_graph,
)

# the classification figures, transcribed vertex by vertex
FIGURE_GRAPHS = {
    "Ga": Graph(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
    "Gb": Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
    "Gc": Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)]),
    "Gd": Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
    "Ga'": Graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "Gb'": Graph(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "Gc'": Graph(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6)]),
}


def test_family_shapes():
    tri = cycle(3)
    assert tri.n == 3 and tri.n_edges == 3
    d5 = d_graph(5)
    assert d5.n == 5 and d5.n_edges == 5
    assert degree_histogram(d5) == {1: 1, 2: 3, 3: 1}
    assert a_graph(2, 1).n == 6
    assert union(cycle(3), a_graph(2, 1)).n == 9
    b = b_graph(0, 1, 1)
    assert b.n == 6 and b.n_edges == 6
    assert canonical_key(b) == canonical_key(named_graph("Gd"))
    assert e_graph(1, 2).n == 6
    assert b_graph(1, 2, 3).n == 1 + 2 + 3 + 4


def test_family_bounds():
    with pytest.raises(GraphSpecError):
        d_graph(3)
    with pytest.raises(GraphSpecError):
        cycle(2)
    with pytest.raises(GraphSpecError):
        a_graph(0, 1)
    with pytest.raises(GraphSpecError):
        b_graph(-1, 1, 1)
    with pytest.raises(GraphSpecError):
        e_graph(1, 0)
    with pytest.raises(GraphSpecError):
        path(0)


def test_named_graphs_match_figures():
    for name, fig in FIGURE_GRAPHS.items():
        assert brute_force_isomorphic(named_graph(name), fig), name
        assert canonical_key(named_graph(name)) == canonical_key(fig), name


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    # multi-edges collapse
    assert Graph(3, [(0, 1), (1, 0)]).n_edges == 1


def test_delete_vertex():
    assert canonical_key(delete_vertex(cycle(3), 1)) == canonical_key(path(2))
    assert canonical_key(delete_vertex(cycle(9), 0)) == canonical_key(path(8))
    d5 = d_graph(5)
    apex = next(v for v in range(5) if d5.degree(v) == 3)
    assert (canonical_key(delete_vertex(d5, apex))
            == canonical_key(union(path(2), path(2))))
    with pytest.raises(ValueError):
        delete_vertex(cycle(3), 3)


def test_delete_closed_neighborhood():
    assert delete_closed_neighborhood(cycle(3), 0).n == 0
    assert (canonical_key(delete_closed_neighborhood(cycle(9), 4))
            == canonical_key(path(6)))


@pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 2), (3, 2), (4, 3)])
def test_arm_deletion_matches_tail_deletion(m1, m2):
    # deleting the first arm vertex of A(m1,m2) parallels deleting the first
    # tail vertex of E(m1,m2): the closed neighborhoods leave isomorphic
    # graphs, the plain deletions leave a tailed triangle vs a cycle (same
    # polynomial); together these make the two families interchangeable
    from indequiv.indpoly import indpoly_bruteforce

    a = a_graph(m1, m2)
    e = e_graph(m1, m2)
    u1 = 3 + m1            # first vertex of the second arm of A
    v1 = m1 + 3            # first tail vertex of E
    assert (canonical_key(delete_closed_neighborhood(a, u1))
            == canonical_key(delete_closed_neighborhood(e, v1)))
    left, right = delete_vertex(a, u1), delete_vertex(e, v1)
    assert indpoly_bruteforce(left) == indpoly_bruteforce(right)
    assert indpoly_bruteforce(a) == indpoly_bruteforce(e)


def test_delete_edge_closure():
    g_e, g_nn = delete_edge_closure(cycle(3), (0, 1))
    assert canonical_key(g_e) == canonical_key(path(3)) and g_nn.n == 0
    g_e, g_nn = delete_edge_closure(cycle(5), (2, 3))
    assert canonical_key(g_e) == canonical_key(path(5))
    assert canonical_key(g_nn) == canonical_key(path(1))
    g_e, g_nn = delete_edge_closure(path(2), (0, 1))
    assert g_e.n == 2 and g_e.n_edges == 0 and g_nn.n == 0
    with pytest.raises(ValueError):
        delete_edge_closure(cycle(5), (0, 2))


def test_is_unicyclic():
    assert is_unicyclic(cycle(7))
    assert not is_unicyclic(path(5))
    b = b_graph(1, 2, 1)
    assert b.n == 8 and b.n_edges == 8 and is_unicyclic(b)
    assert not is_unicyclic(union(cycle(3), cycle(4)))


def test_degree_histograms():
    assert degree_histogram(cycle(9)) == {2: 9}
    assert degree_histogram(d_graph(9)) == {1: 1, 2: 7, 3: 1}
    assert degree_histogram(union(cycle(3), a_graph(2, 1))) == {1: 2, 2: 5, 3: 2}
    for g in (cycle(6), d_graph(7), star_k13(), k4_minus_e()):
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.n
        assert sum(i * c for i, c in hist.items()) == 2 * g.n_edges


# --- canonical forms ---------------------------------------------------------


def test_canonical_key_examples():
    assert canonical_key(cycle(3)) == canonical_key(Graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert canonical_key(cycle(9)) != canonical_key(d_graph(9))
    assert canonical_key(a_graph(2, 1)) == canonical_key(a_graph(1, 2))
    assert brute_force_isomorphic(a_graph(2, 1), a_graph(1, 2))


def test_canonical_key_invariant_under_relabelling(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(g.relabel(perm))


def test_canonical_key_separates_iso_classes(rng):
    # keys agree exactly when a full permutation search finds an isomorphism
    graphs = [random_graph(rng, 6, p) for p in (0.2, 0.35, 0.5) for _ in range(8)]
    for g in graphs:
        for h in graphs:
            assert (canonical_key(g) == canonical_key(h)) == brute_force_isomorphic(g, h)


def test_canonical_key_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    for trial in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        ng = nx.Graph([(u, v) for u, v in g.edges])
        ng.add_nodes_from(range(n))
        nh = nx.Graph([(u, v) for u, v in h.edges])
        nh.add_nodes_from(range(n))
        assert (canonical_key(g) == canonical_key(h)) == nx.is_isomorphic(ng, nh)


@st.composite
def labelled_graphs(draw, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_equal_iff_networkx_isomorphic(data):
    # random graphs, disconnected ones included, against a relabelled copy
    # (always isomorphic) and an independent draw on as many vertices
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        return h

    n = data.draw(st.integers(1, 8))
    g = data.draw(labelled_graphs(n))
    copy = g.relabel(data.draw(st.permutations(range(n))))
    other = data.draw(labelled_graphs(n))
    assert canonical_key(g) == canonical_key(copy)
    for h in (copy, other):
        same = canonical_key(g) == canonical_key(h)
        assert same == nx.is_isomorphic(as_nx(g), as_nx(h))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_components_match_networkx(data):
    # sparse draws, n = 0 and isolated vertices included; the whole vertex
    # set through component_vertex_sets, and a drawn subset through the
    # mask splitter it is a view of
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    assert component_vertex_sets(g) == sorted(
        sorted(c) for c in nx.connected_components(h))
    keep = [v for v in range(n) if data.draw(st.booleans())]
    comps = component_masks(sum(1 << v for v in keep), g.adjacency_masks())
    assert [[v for v in range(n) if c >> v & 1] for c in comps] == sorted(
        sorted(c) for c in nx.connected_components(h.subgraph(keep)))


def test_canonical_form_is_stable(rng):
    g = union(d_graph(6), cycle(4))
    perm = list(range(g.n))
    rng.shuffle(perm)
    key, labelled = canonical_form(g)
    assert canonical_form(g.relabel(perm)) == (key, labelled)
    assert key == canonical_key(g)
    assert emit_graph6(labelled) == emit_graph6(canonical_form(g.relabel(perm))[1])


def test_canonical_refusal():
    with pytest.raises(CanonicalRefusalError):
        canonical_key(cycle(129))


def test_families_are_unicyclic():
    for g in (
        cycle(11), d_graph(8), a_graph(3, 4), b_graph(0, 2, 5), b_graph(3, 1, 1),
        e_graph(2, 6),
    ):
        assert is_unicyclic(g)


# --- graph6 ------------------------------------------------------------------


def test_graph6_examples():
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert emit_graph6(k4) == "C~"
    assert canonical_key(parse_graph6(emit_graph6(cycle(9)))) == canonical_key(cycle(9))
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C")       # truncated data
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")     # extra data
    with pytest.raises(Graph6Error):
        parse_graph6("B\x1f")   # character below the alphabet


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_graph6_round_trip(n, rnd):
    g = random_graph(rnd, n) if n else Graph(0)
    back = parse_graph6(emit_graph6(g))
    assert back.n == g.n and back.edges == g.edges


@pytest.mark.parametrize("n", [63, 100])
def test_graph6_long_size_field_against_networkx(n, rng):
    nx = pytest.importorskip("networkx")
    g = random_graph(rng, n, p=0.1)
    h = nx.Graph()
    h.add_nodes_from(range(n))  # networkx numbers vertices in insertion order
    h.add_edges_from(g.edges)
    want = nx.to_graph6_bytes(h, header=False).decode("ascii").rstrip("\n")
    assert emit_graph6(g) == want
    assert want.startswith("~")
    assert parse_graph6(want) == g


def test_graph6_short_size_field_unchanged():
    assert emit_graph6(Graph(62))[0] == chr(62 + 63)
    with pytest.raises(Graph6Error):
        parse_graph6("~??}")    # four-byte field for n = 62
    with pytest.raises(Graph6Error):
        parse_graph6("~~??????")  # eight-byte field, n > 258047


def test_canonical_key_separates_strongly_regular_pair():
    # two 6-regular 16-vertex graphs with identical degree data but
    # different structure: degree pruning gives the search nothing, so
    # this exercises the complete-search guarantee
    rook = Graph(16, [
        (i, j) for i in range(16) for j in range(i + 1, 16)
        if i // 4 == j // 4 or i % 4 == j % 4
    ])

    def shrik_adj(a, b):
        dx, dy = (a % 4 - b % 4) % 4, (a // 4 - b // 4) % 4
        return (dx, dy) in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    shrikhande = Graph(16, [
        (i, j) for i in range(16) for j in range(i + 1, 16) if shrik_adj(i, j)
    ])
    assert rook.n_edges == shrikhande.n_edges == 48
    assert canonical_key(rook) != canonical_key(shrikhande)
    perm = [5, 0, 11, 14, 2, 9, 7, 12, 4, 15, 1, 10, 6, 3, 13, 8]
    assert canonical_key(rook) == canonical_key(rook.relabel(perm))
    assert canonical_key(shrikhande) == canonical_key(shrikhande.relabel(perm))


def _ring(c):
    """The edges of a cycle on 0, ..., c - 1."""
    return {(i, i + 1) for i in range(c - 1)} | {(0, c - 1)}


TRIANGLE = _ring(3)


def _hang(anchor, first, length):
    """The edges of a path on first, ..., first + length - 1 hung from
    anchor."""
    chain = [anchor, *range(first, first + length)]
    return set(zip(chain, chain[1:]))


def test_family_labelling():
    # graph6 and canonical keys cannot see labels, so pin the labelling each
    # docstring describes: the triangle is 0, 1, 2; D's tail runs from 2; A's
    # arms hang from 1 and 2; B's stem runs from 2 to the fork 3 + m1; E's
    # tail runs from 0
    ms = range(1, 9)
    for n in range(3, 12):
        assert cycle(n).edges == _ring(n)
        assert path(n).edges == _hang(0, 1, n - 1)
    for n in range(4, 12):
        assert d_graph(n).edges == TRIANGLE | _hang(2, 3, n - 3)
    for m1 in ms:
        for m2 in ms:
            assert a_graph(m1, m2).edges == (
                TRIANGLE | _hang(1, 3, m1) | _hang(2, 3 + m1, m2))
            assert e_graph(m1, m2).edges == (
                _ring(m1 + 3) | _hang(0, m1 + 3, m2))
            for m0 in range(0, 9):
                fork = 3 + m0
                assert b_graph(m0, m1, m2).edges == (
                    TRIANGLE | _hang(2, 3, m0) | {(fork - 1, fork)}
                    | _hang(fork, fork + 1, m1) | _hang(fork, fork + 1 + m1, m2))
