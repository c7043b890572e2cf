from itertools import combinations

import pytest

from indequiv.canon import canonical_key
from indequiv.census import subgraph_census
from indequiv.classes import (
    alpha_formula,
    component_count_bound,
    describe_graph,
    enumerate_unicyclic,
    exhaustive_class_search,
    structural_checks,
    structured_class_search,
    unicyclic_necklaces,
    _necklace_graph,
    _necklace_poly,
)
from indequiv.graphs import (
    Graph,
    a_graph,
    b_graph,
    cycle,
    d_graph,
    e_graph,
    k4_minus_e,
    named_graph,
    path,
    union,
)
from indequiv.graph6 import parse_graph6
from indequiv.gspec import parse_spec
from indequiv.indpoly import PolyCache, independence_number, indpoly
from indequiv.intpoly import cycle_poly

from conftest import naive_independent_counts


def keys_of(*graphs):
    return {canonical_key(g) for g in graphs}


# --- structural checks -------------------------------------------------------


def test_structural_checks_c9():
    checks = structural_checks(cycle(9), 9)
    assert checks.ok
    c = subgraph_census(cycle(9))
    lhs = 9 * (3 * 9 - 11) // 2
    rhs = c.e2 + c.p3_k1 - c.c3_k1 - c.p4 - c.k13 + c.d4 + c.c4
    assert lhs == rhs == 72


def test_structural_checks_disconnected_member():
    g = union(cycle(3), a_graph(2, 1))
    checks = structural_checks(g, 9)
    assert checks.ok
    assert subgraph_census(g).triangles == 2


def test_structural_checks_fail_on_path():
    checks = structural_checks(path(9), 9)
    assert not checks.degree_sum
    assert not checks.ok


# --- closed-form independence numbers ----------------------------------------


def test_alpha_formula_examples():
    assert alpha_formula("A", (1, 1)) == 3
    assert alpha_formula("A", (2, 1)) == 3
    assert alpha_formula("B", (1, 1, 1)) == 4


def test_alpha_formula_against_engine():
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            assert alpha_formula("A", (m1, m2)) == independence_number(a_graph(m1, m2))
            assert alpha_formula("E", (m1, m2)) == independence_number(e_graph(m1, m2))
    for m1 in range(0, 4):
        for m2 in range(1, 4):
            for m3 in range(1, 4):
                assert alpha_formula("B", (m1, m2, m3)) == independence_number(
                    b_graph(m1, m2, m3)
                )


def test_component_count_bound():
    assert component_count_bound(9, "A", (2, 1)) == (2,)
    assert component_count_bound(15, "A", (3, 1)) == (3,)
    assert component_count_bound(99, "B", (1, 2, 2)) == ()
    assert component_count_bound(9, "B", (0, 1, 1)) == (2,)
    # too large to leave room for the forced triangle component
    assert component_count_bound(9, "A", (3, 4)) == ()


# --- unicyclic enumeration ----------------------------------------------------


def brute_force_unicyclic_count(v: int) -> int:
    """Count connected unicyclic graphs on v vertices by scanning all
    v-edge subsets of K_v."""
    from indequiv.graphs import is_unicyclic

    seen = set()
    all_edges = list(combinations(range(v), 2))
    for subset in combinations(all_edges, v):
        g = Graph(v, subset)
        if is_unicyclic(g):
            seen.add(canonical_key(g))
    return len(seen)


def test_enumerate_unicyclic_small():
    assert len(enumerate_unicyclic(3)) == 1
    assert len(enumerate_unicyclic(4)) == 2
    assert len(enumerate_unicyclic(5)) == 5


@pytest.mark.parametrize("v", range(3, 8))
def test_enumerate_unicyclic_against_brute_force(v):
    assert len(enumerate_unicyclic(v)) == brute_force_unicyclic_count(v)


def test_enumerate_unicyclic_no_duplicates():
    for v in range(3, 10):
        graphs = enumerate_unicyclic(v)
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs)
        assert all(g.n == v and g.n_edges == v for g in graphs)


def test_enumerate_unicyclic_bounds():
    with pytest.raises(ValueError):
        enumerate_unicyclic(2)
    with pytest.raises(ValueError):
        enumerate_unicyclic(22)


def test_necklace_poly_matches_bruteforce():
    for v in range(3, 9):
        for c, trees in unicyclic_necklaces(v):
            g = _necklace_graph(c, trees)
            dp = _necklace_poly([(t.w0, t.w1) for t in trees])
            assert list(dp.coeffs) == naive_independent_counts(g)


# --- class searches -----------------------------------------------------------


def test_structured_class_3():
    report = structured_class_search(3)
    assert report.member_keys() == keys_of(cycle(3))


def test_structured_class_9():
    report = structured_class_search(9)
    expected = keys_of(
        cycle(9),
        d_graph(9),
        union(cycle(3), named_graph("Ga")),
        union(cycle(3), named_graph("Gb")),
        union(cycle(3), named_graph("Gc")),
        union(cycle(3), named_graph("Gd")),
    )
    assert len(report.members) == 6
    assert report.member_keys() == expected
    assert all(m.checks.ok for m in report.members)
    assert all(m.poly == cycle_poly(9) for m in report.members)


def test_structured_class_15():
    report = structured_class_search(15)
    expected = keys_of(
        cycle(15),
        d_graph(15),
        *(
            union(cycle(3), mid, named_graph(name))
            for mid in (cycle(5), d_graph(5))
            for name in ("Ga'", "Gb'", "Gc'")
        ),
    )
    assert len(report.members) == 8
    assert report.member_keys() == expected


@pytest.mark.parametrize("n", [5, 7, 11, 13, 21])
def test_structured_class_other_odd(n):
    report = structured_class_search(n)
    assert report.member_keys() == keys_of(cycle(n), d_graph(n))


def test_structured_rejects_even():
    with pytest.raises(ValueError):
        structured_class_search(8)


def test_structured_seed_invariance():
    a = structured_class_search(9, seed=1)
    b = structured_class_search(9, seed=99)
    plain = structured_class_search(9)
    for report in (a, b):
        assert [m.graph6 for m in report.members] == [m.graph6 for m in plain.members]
        assert [m.description for m in report.members] == [
            m.description for m in plain.members
        ]


def test_exhaustive_all_graphs_6(monkeypatch):
    # the chunks cover every pair of first edges exactly once, and a serial
    # scan starts no worker process
    from indequiv import classes

    chunks = []
    scan = classes._scan_pairs

    def spy(*args):
        chunks.append(args)
        return scan(*args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a serial scan started a worker pool")

    monkeypatch.setattr(classes, "_scan_pairs", spy)
    monkeypatch.setattr(classes, "ProcessPoolExecutor", no_pool)
    report = exhaustive_class_search(6, "all_graphs")
    expected = keys_of(cycle(6), d_graph(6), union(k4_minus_e(), path(2)))
    assert report.member_keys() == expected
    scanned = sorted(pair for _, _, pairs in chunks for pair in pairs)
    assert scanned == list(combinations(range(15), 2))


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_unicyclic_oracle_matches_structured(n):
    oracle = exhaustive_class_search(n, "unicyclic_multisets")
    structured = structured_class_search(n)
    assert oracle.member_keys() == structured.member_keys()


def test_divisor_pruning_changes_stats_not_members():
    pruned = exhaustive_class_search(9, "unicyclic_multisets", prune=True)
    full = exhaustive_class_search(9, "unicyclic_multisets", prune=False)
    assert pruned.member_keys() == full.member_keys()
    assert full.stats["components_admitted"] > pruned.stats["components_admitted"]
    assert pruned.stats["components_pruned_census"] > 0


def test_exhaustive_guards():
    with pytest.raises(ValueError):
        exhaustive_class_search(10, "all_graphs")
    with pytest.raises(ValueError):
        exhaustive_class_search(23, "unicyclic_multisets")
    with pytest.raises(ValueError):
        exhaustive_class_search(8, "unicyclic_multisets")
    with pytest.raises(ValueError):
        exhaustive_class_search(9, "nonsense")


def test_exhaustive_modes_are_the_two_cli_spellings():
    for mode in ("all-graphs", "unicyclic", "exhaustive_all_graphs",
                 "exhaustive_unicyclic_multisets"):
        with pytest.raises(ValueError, match="unknown exhaustive mode"):
            exhaustive_class_search(5, mode)


def test_describe_graph():
    assert describe_graph(cycle(9)) == "C9"
    assert describe_graph(d_graph(7)) == "D7"
    assert describe_graph(union(cycle(3), a_graph(2, 1))) == "C3 + A(1,2)"
    assert describe_graph(union(cycle(3), e_graph(1, 2))) == "C3 + E(1,2)"
    assert describe_graph(b_graph(2, 3, 1)) == "B(2,1,3)"
    assert describe_graph(path(4)) == "P4"
    assert describe_graph(union(k4_minus_e(), path(2))) == "P2 + K4-e"


def _family_keys(v):
    """Canonical keys of every C/P/D/A/B/E graph on v vertices."""
    graphs = [cycle(v), path(v)] + ([d_graph(v)] if v >= 4 else [])
    for m1 in range(1, v - 3):
        graphs += [a_graph(m1, v - 3 - m1), e_graph(m1, v - 3 - m1)]
    for m1 in range(0, v - 5):
        for m2 in range(1, v - 4 - m1):
            graphs.append(b_graph(m1, m2, v - 4 - m1 - m2))
    return {canonical_key(g) for g in graphs}


def test_describe_graph_names_only_true_family_members():
    # a family name must build a graph isomorphic to the named one, and the
    # fallback must be used only for graphs outside every family
    count = 0
    for v in range(3, 11):
        family = _family_keys(v)
        for g in enumerate_unicyclic(v):
            count += 1
            name = describe_graph(g)
            if name.startswith("graph("):
                assert canonical_key(g) not in family, name
            else:
                assert canonical_key(parse_spec(name)) == canonical_key(g), name
    assert count == 1040


def test_describe_graph_degree_four_is_not_a_family():
    # a triangle with two degree-3 vertices and a degree-4 vertex was once
    # named A(1,1), a 5-vertex family, although it has 7 vertices
    g = parse_graph6("F{`@?")
    assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 1, 3, 3, 4]
    assert describe_graph(g) == "graph(n=7,m=7,degs=1111334)"


# --- the endgame eliminations as computed facts --------------------------------


def test_r2_a_subcase_solutions():
    # C_3 with a two-armed triangle matches a cycle polynomial only at the
    # (2,1) arms / 9 vertices solution
    cache = PolyCache()
    solutions = set()
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            if (m1 + m2) % 2 == 0:
                continue
            n = m1 + m2 + 6
            g = union(cycle(3), a_graph(m1, m2))
            if indpoly(g, cache) == cycle_poly(n):
                solutions.add((m1, m2))
    assert solutions == {(2, 1), (1, 2)}


def test_r2_b_subcase_solutions():
    cache = PolyCache()
    solutions = set()
    for m1 in range(0, 13):
        for m2 in range(1, 13):
            for m3 in range(1, 13):
                if (m1 % 2 + m2 % 2 + m3 % 2) not in (0, 2):
                    continue
                n = m1 + m2 + m3 + 7
                g = union(cycle(3), b_graph(m1, m2, m3))
                if indpoly(g, cache) == cycle_poly(n):
                    solutions.add((m1, m2, m3))
    assert solutions == {(0, 1, 1)}


def test_r3_a_subcase_solutions():
    cache = PolyCache()
    solutions = set()
    for m in range(5, 14, 2):
        if m % 3 == 0:
            continue
        for m1 in range(1, 12, 2):
            for m2 in range(1, 12, 2):
                n = 3 + m + m1 + m2 + 3
                if n % m != 0:
                    continue
                g = union(cycle(3), cycle(m), a_graph(m1, m2))
                if indpoly(g, cache) == cycle_poly(n):
                    solutions.add((m, m1, m2))
    assert solutions == {(5, 3, 1), (5, 1, 3)}


def test_report_shape():
    report = structured_class_search(9)
    assert report.mode == "structured"
    assert report.stats["polynomial_tests"] >= report.stats["candidates_generated"] - 0
    assert report.wall_time >= 0
    descriptions = [m.description for m in report.members]
    assert len(set(descriptions)) == 6


@pytest.mark.slow
def test_divisor_pruning_invariant_at_15():
    pruned = exhaustive_class_search(15, "unicyclic_multisets", prune=True)
    full = exhaustive_class_search(15, "unicyclic_multisets", prune=False)
    assert pruned.member_keys() == full.member_keys()
    assert full.stats["components_admitted"] > pruned.stats["components_admitted"]


def test_disconnected_member_component_structure():
    # every disconnected member has exactly one triangle component, only
    # degree <= 3 components, and at most one component outside the
    # cycle / tailed-triangle families
    from indequiv.graph6 import parse_graph6
    from indequiv.graphs import component_vertex_sets, max_degree

    for n in (9, 15):
        for member in structured_class_search(n).members:
            g = parse_graph6(member.graph6)
            comps = [g.subgraph(vs) for vs in component_vertex_sets(g)]
            if len(comps) == 1:
                continue
            assert sum(1 for c in comps if c.n == 3) == 1
            assert all(max_degree(c) <= 3 for c in comps)
            named = [c for c in comps if describe_graph(c)[0] in "CD"]
            assert len(comps) - len(named) <= 1


def test_independent_quad_counter(rng):
    from itertools import combinations

    from indequiv.classes import _count_independent_quads

    for _ in range(25):
        n = rng.randint(4, 9)
        g = Graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.3
        ])
        adj = list(g.adjacency_masks())
        want = 0
        for quad in combinations(range(n), 4):
            if not any(g.has_edge(u, v) for u, v in combinations(quad, 2)):
                want += 1
        assert _count_independent_quads(adj, n, want) == want
        # and the early-exit path stops no later than limit + 1
        if want > 0:
            assert _count_independent_quads(adj, n, want - 1) >= want - 1


def test_census_prefilter_admits_exactly_the_dividing_components():
    # the degree-census prefilter must keep precisely the components whose
    # polynomial divides the target, compared against unfiltered enumeration
    from indequiv.classes import _unicyclic_component_pool, _necklace_graph
    from indequiv.intpoly import cycle_poly, poly_divides

    n = 9
    target = cycle_poly(n)
    unfiltered = set()
    for v in range(3, n + 1):
        for c, trees in unicyclic_necklaces(v):
            poly = _necklace_poly([(t.w0, t.w1) for t in trees])
            if poly_divides(poly, target):
                g = _necklace_graph(c, trees)
                unfiltered.add(canonical_key(g))
    stats = {
        "components_generated": 0,
        "components_pruned_census": 0,
        "components_pruned_divisor": 0,
    }
    pool = _unicyclic_component_pool(n, target, True, stats)
    filtered = {canonical_key(comp.graph) for comp in pool}
    assert filtered == unfiltered
