import math
import tracemalloc
from itertools import combinations, product

import pytest

from indequiv.canon import canonical_key
from indequiv.census import subgraph_census
from indequiv.classes import (
    MAX_UNPRUNED_UNICYCLIC_N,
    alpha_formula,
    component_count_bound,
    describe_graph,
    enumerate_unicyclic,
    exhaustive_class_search,
    structural_checks,
    structured_class_search,
    unicyclic_necklaces,
    _candidate_name,
    _candidate_size,
    _closed_form,
    _graph_levels,
    _necklace_graph,
    _path_table,
    _rooted_trees,
    _structured_candidates,
)
from indequiv.factors import divisors
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
from indequiv.indpoly import (
    PolyCache,
    indpoly,
    indpoly_bruteforce,
)
from indequiv.intpoly import X, cycle_poly, pack, unpack

from conftest import (
    delete_closed_neighborhood,
    delete_vertex,
    divides,
    naive_independent_counts,
)


def keys_of(*graphs):
    return {canonical_key(g) for g in graphs}


# --- structural checks -------------------------------------------------------


def test_structural_checks_c9():
    checks = structural_checks(cycle(9), 9)
    assert False not in checks.values()
    c = subgraph_census(cycle(9))
    lhs = 9 * (3 * 9 - 11) // 2
    rhs = (c["e2"] + c["p3_k1"] - c["c3_k1"] - c["p4"] - c["k13"] + c["d4"]
           + c["c4"])
    assert lhs == rhs == 72


def test_structural_checks_disconnected_member():
    g = union(cycle(3), a_graph(2, 1))
    checks = structural_checks(g, 9)
    assert False not in checks.values()
    assert subgraph_census(g)["triangles"] == 2


def test_structural_checks_fail_on_path():
    checks = structural_checks(path(9), 9)
    assert checks["degree_sum"] is False
    assert False in checks.values()


# --- closed-form independence numbers ----------------------------------------


def test_alpha_formula_examples():
    assert alpha_formula("A", (1, 1)) == 3
    assert alpha_formula("A", (2, 1)) == 3
    assert alpha_formula("B", (1, 1, 1)) == 4


def test_alpha_formula_against_engine():
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            assert alpha_formula("A", (m1, m2)) == indpoly(a_graph(m1, m2)).degree
            assert alpha_formula("E", (m1, m2)) == indpoly(e_graph(m1, m2)).degree
    for m1 in range(0, 4):
        for m2 in range(1, 4):
            for m3 in range(1, 4):
                assert alpha_formula("B", (m1, m2, m3)) == indpoly(
                    b_graph(m1, m2, m3)
                ).degree


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


def unicyclic_graphs(v):
    """The graphs that enumerate_unicyclic hands over, in order."""
    graphs = []
    enumerate_unicyclic(v, graphs.append)
    return graphs


def test_enumerate_unicyclic_small():
    assert len(unicyclic_graphs(3)) == 1
    assert len(unicyclic_graphs(4)) == 2
    assert len(unicyclic_graphs(5)) == 5


@pytest.mark.parametrize("v", range(3, 8))
def test_enumerate_unicyclic_against_brute_force(v):
    assert len(unicyclic_graphs(v)) == brute_force_unicyclic_count(v)


def test_enumerate_unicyclic_no_duplicates():
    for v in range(3, 10):
        graphs = unicyclic_graphs(v)
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs)
        assert all(g.n == v and g.n_edges == v for g in graphs)


def test_enumerate_unicyclic_bounds():
    with pytest.raises(ValueError):
        unicyclic_graphs(2)
    with pytest.raises(ValueError, match="MAX_UNICYCLIC_LIST_V"):
        unicyclic_graphs(16)


def walk_necklaces(budgets, bits):
    """The necklace walk's graphs by size, each as (c, trees, I(G, x))
    with the polynomial unpacked."""
    found = {v: [] for v in budgets}

    def keep(v, c, head, whole, a, run):
        for _, _, w0, w1, t in run:
            poly = unpack(whole * w0 + a * w1, bits)
            found[v].append((c, head + (t,), poly))

    unicyclic_necklaces(budgets, bits, keep)
    return found


def test_necklace_poly_matches_bruteforce():
    # one walk serving sizes 3..8 in one slot width, and one per size
    walks = [walk_necklaces(dict.fromkeys(range(3, 9)), 9)]
    walks += [walk_necklaces({v: None}, v + 1) for v in range(3, 9)]
    count = 0
    for found in walks:
        for v, necklaces in found.items():
            for c, trees, poly in necklaces:
                g = _necklace_graph(c, trees)
                assert g.n == v
                assert list(poly.coeffs) == naive_independent_counts(g)
                count += 1
    assert count == 2 * sum(A001429[:6])


# OEIS A001429: connected unicyclic graphs on v nodes, v = 3, 4, ...
A001429 = (1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260, 110381,
           311465, 880840)


@pytest.mark.parametrize("v", [
    pytest.param(v, marks=pytest.mark.slow) if v == 16 else v
    for v in range(3, 17)
])
def test_necklace_counts_match_oeis(v):
    found = 0

    def count(v, c, head, whole, a, run):
        nonlocal found
        found += len(run)

    unicyclic_necklaces({v: None}, v + 1, count)
    assert found == A001429[v - 3]


def test_one_walk_serving_every_size_counts_match_oeis():
    # one walk serves sizes 3..12, so the last position of one size meets
    # codes below the least that another size's reversal check passed
    counts = dict.fromkeys(range(3, 13), 0)

    def count(v, c, head, whole, a, run):
        counts[v] += len(run)

    unicyclic_necklaces(dict.fromkeys(counts), 13, count)
    assert list(counts.values()) == list(A001429[:10])


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


def tree_shape(t):
    """The AHU encoding of a table's tree, from its edges."""
    edges = []
    t.edges(0, 1, edges)
    return ahu_shape(edges, 0)


def shapes(trees):
    return tuple(map(tree_shape, trees))


def filtered_necklaces(v, budget):
    """Every sequence of rooted trees with v vertices in all, on every cycle
    length, in nested order (position 0 first; per position, sizes
    ascending, then ranks), kept iff its ranks in an uncapped table are
    dihedral-minimal and its branch weight is within budget; each as (c,
    its trees' AHU encodings).  A capped table's order is the uncapped
    order filtered, so the walk's codes order its trees as these ranks."""
    cap = math.inf if budget is None else budget
    trees = _rooted_trees([math.inf] * (v - 1), v + 1)
    pools = {s: [t for t in trees[s] if t.attach_weight <= cap]
             for s in range(1, v - 1)}
    out = []

    def sequences(pos, c, rem, chosen):
        if pos == c:
            if rem == 0:
                yield chosen
            return
        for s in range(1, rem + 2):
            for t in pools[s]:
                yield from sequences(pos + 1, c, rem - (s - 1), chosen + (t,))

    for c in range(3, v + 1):
        for trees in sequences(0, c, v - c, ()):
            if (sum(t.attach_weight for t in trees) <= cap
                    and _dihedral_minimal(tuple(t.rank for t in trees))):
                out.append((c, shapes(trees)))
    return out


def _assert_walks_match_the_leaf_filter(budgets):
    # one walk serving every size in budgets, and one walk per size
    merged = walk_necklaces(budgets, max(budgets) + 1)
    assert set(merged) == set(budgets)
    for v, b in budgets.items():
        want = filtered_necklaces(v, b)
        assert [(c, shapes(trees)) for c, trees, _ in merged[v]] == want
        alone = walk_necklaces({v: b}, v + 1)[v]
        assert [(c, shapes(trees)) for c, trees, _ in alone] == want


@pytest.mark.parametrize("budget", [None, 0, 1, 3])
def test_necklaces_equal_the_leaf_filter_in_order(budget):
    # sizes 3..10 but 8, `budget` on odd sizes and another on even ones, so
    # that the largest budget a prefix can reach moves both ways
    other = 2 if budget is None else budget + 2
    _assert_walks_match_the_leaf_filter(
        {v: budget if v % 2 else other for v in range(3, 11) if v != 8})


def test_necklaces_equal_the_leaf_filter_on_gapped_sizes():
    # sizes far below the largest served: the vertices a prefix reserves
    # for its open positions are counted against the largest size, so they
    # must never cut a graph of a small one
    _assert_walks_match_the_leaf_filter({3: None, 4: 1, 6: None, 10: 0})


def _longest_lyndon_prefix(word):
    return max(k for k in range(1, len(word) + 1)
               if all(word[:k] < word[i:k] + word[:i] for i in range(1, k)))


def test_dihedral_minimal_sequences_obey_the_walk_bounds():
    # the bounds by which the necklace walk cuts its prefixes, on plain
    # sequences: every code >= the first (1); with the first code's run of
    # length L < c, the last code >= seq[L] (2); and the last code exceeds
    # seq[c - 1 - p], p the longest Lyndon prefix of the other c - 1 codes,
    # unless c % p == 0 (3)
    checked = 0
    for symbols, longest in ((3, 10), (5, 7)):
        for c in range(3, longest + 1):
            for seq in product(range(symbols), repeat=c):
                if not _dihedral_minimal(seq):
                    continue
                checked += 1
                assert min(seq) == seq[0]
                run = next((i for i, x in enumerate(seq) if x != seq[0]), c)
                assert run == c or seq[-1] >= seq[run]
                p = _longest_lyndon_prefix(seq[:-1])
                assert seq[-1] > seq[c - 1 - p] or (
                    c % p == 0 and seq[-1] == seq[c - 1 - p])
    assert checked > 1000


def _below_its_reversal(seq: tuple) -> bool:
    """True iff no rotation of seq's reversal is smaller than seq."""
    c = len(seq)
    rev = seq[::-1] * 2
    return all(rev[k:k + c] >= seq for k in range(c))


def test_passing_last_codes_form_an_up_set():
    # the lemma by which the necklace walk's last position checks the
    # reversal once per prefix: with the first c - 1 codes fixed, a last
    # code that passes the reversal check, or gives a dihedral-minimal
    # sequence, passes with every larger last code too
    heads = 0
    for symbols, longest in ((3, 10), (5, 7)):
        for c in range(3, longest + 1):
            for head in product(range(symbols), repeat=c - 1):
                heads += 1
                for test in (_below_its_reversal, _dihedral_minimal):
                    passed = [test(head + (r,)) for r in range(symbols)]
                    assert passed == sorted(passed), (head, test.__name__)
    assert heads == 49045


# OEIS A000081: rooted trees on s nodes, s = 1, 2, ...
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973)


def ahu_shape(edges, root):
    """The nested-tuple (AHU) encoding of the tree on these edges rooted
    at root: the sorted encodings of the root's subtrees."""
    adj = {}
    for u, w in edges:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)

    def encode(v, parent):
        return tuple(sorted(encode(w, v) for w in adj.get(v, ()) if w != parent))

    return encode(root, None)


def test_rooted_tree_table_against_independent_oracles():
    bits = 11
    trees = _rooted_trees([math.inf] * 15, bits)
    assert [len(trees[s]) for s in range(1, 15)] == list(A000081)
    # ranks run 0, 1, ... by size, in list order, and within a size attach
    # weights never fall
    ranks = [t.rank for s in range(1, 15) for t in trees[s]]
    assert ranks == list(range(sum(A000081)))
    for s in range(1, 15):
        weights = [t.attach_weight for t in trees[s]]
        assert weights == sorted(weights), s
        encoded = set()  # distinct trees per size
        for t in trees[s]:
            edges = []
            assert t.edges(0, 1, edges) == s
            encoded.add(ahu_shape(edges, 0))
            # edges run parent to child: inner weight sums C(children, 2)
            children = [0] * s
            for u, _ in edges:
                children[u] += 1
            assert t.inner_weight == sum(math.comb(k, 2) for k in children)
            assert t.attach_weight == t.inner_weight + children[0]
            if s <= 10:
                g = Graph(s, edges)
                assert t.w0 == pack(indpoly(delete_vertex(g, 0)), bits)
                assert t.w1 == pack(
                    X * indpoly(delete_closed_neighborhood(g, 0)), bits)
        assert len(encoded) == len(trees[s])


@pytest.mark.parametrize("caps", [
    *([cap] * 13 for cap in range(4)),
    [9, 9, 9, 8, 8, 6, 5, 5, 3, 2, 2, 1, 0],
])
def test_capped_rooted_trees_are_the_uncapped_filtered_by_weight(caps):
    full = _rooted_trees([math.inf] * len(caps), 13)
    capped = _rooted_trees(caps, 13)
    for s in range(1, len(caps)):
        assert shapes(capped[s]) == shapes(
            t for t in full[s] if t.inner_weight <= caps[s])
        for table in (full, capped):
            weights = [t.attach_weight for t in table[s]]
            assert weights == sorted(weights), s


def _walk_budgets(n, prune):
    """The budgets by vertex count that the unicyclic-multiset scan of the
    class of C_n hands the necklace walk."""
    if not prune:
        return dict.fromkeys(range(3, n + 1))
    from indequiv.classes import _divisor_table

    weights = {}
    for v, m in _divisor_table(n, n + 1).values():
        weights.setdefault(v, set()).add(m)
    return {v: max(ms) + 1 for v, ms in weights.items() if max(ms) >= -1}


def _pooled(trees, s, cap):
    return [(tree_shape(t), t.inner_weight, t.attach_weight, t.w0, t.w1)
            for t in trees[s] if t.attach_weight <= cap]


@pytest.mark.parametrize("n, prune",
                         [*((n, True) for n in range(3, 64, 2)), (15, False)])
def test_tree_table_capped_at_the_pools_pools_the_same_trees(n, prune):
    # the walk pools the trees on s vertices whose attach weight is at most
    # reach[s + 2], from a table whose inner weight is capped at
    # reach[s + 2] - 1 for s >= 2: its pools must be those of a table capped
    # at reach[s + 2].  Sizes past 24 are left out, as under those caps the
    # tables grow to hundreds of thousands of trees
    budgets = _walk_budgets(n, prune)
    top = max(budgets)
    reach = [-1] * (top + 2)
    for u in range(top, 2, -1):
        b = budgets.get(u, -1)
        reach[u] = max(reach[u + 1], math.inf if b is None else b)
    old_caps = reach[2:top + 1][:25]
    new_caps = (reach[2:4] + [cap - 1 for cap in reach[4:top + 1]])[:25]
    old = _rooted_trees(old_caps, n + 1)
    new = _rooted_trees(new_caps, n + 1)
    pooled = 0
    for s in range(1, len(old_caps)):
        pool = _pooled(new, s, reach[s + 2])
        assert pool == _pooled(old, s, reach[s + 2]), s
        pooled += len(pool)
    assert pooled > 0


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
    assert all(False not in m.checks.values() for m in report.members)
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


def test_structured_candidate_order_invariance(monkeypatch):
    # members are deduplicated by canonical key and sorted, so the order in
    # which candidates are tested cannot move the output
    from indequiv import classes

    plain = {n: structured_class_search(n) for n in (9, 15)}
    forward = classes._structured_candidates
    monkeypatch.setattr(classes, "_structured_candidates",
                        lambda n: forward(n)[::-1])
    for n, want in plain.items():
        got = structured_class_search(n)
        assert len(got.members) == len(want.members) > 2
        for m, w in zip(got.members, want.members):
            assert (m.graph6, m.description, m.key) == (w.graph6, w.description, w.key)


def test_no_union_of_divisor_cycles_is_in_the_class():
    # why the structured search generates no union of k >= 2 proper divisor
    # cycles: each C_m has alpha = (m - 1)/2, so the union's degree (n - k)/2
    # is below deg I(C_n) = (n - 1)/2.  The ledger's cycle-tail entry has
    # I(D_m) = I(C_m) for every m here (all <= 42), so D variants are covered
    def multisets(rest, parts):
        if rest == 0:
            yield ()
        for i, m in enumerate(parts):
            if m <= rest:
                for tail in multisets(rest - m, parts[i:]):
                    yield (m,) + tail

    count = 0
    for n in range(3, 128, 2):
        parts = [m for m in divisors(n) if 3 <= m < n]
        for ms in multisets(n, parts):
            count += 1
            product = math.prod(map(cycle_poly, ms))
            assert product.degree == (n - len(ms)) // 2 < (n - 1) // 2, ms
            assert product != cycle_poly(n), ms
    assert count == 745


# --- closed-form family polynomials -------------------------------------------


def _family_parts(max_v):
    """Every C, D, A, E and B graph on at most max_v vertices, as a part."""
    parts = [("C", (k,)) for k in range(3, max_v + 1)]
    parts += [("D", (k,)) for k in range(4, max_v + 1)]
    for total in range(2, max_v - 2):
        for m1 in range(1, total):
            parts += [("A", (m1, total - m1)), ("E", (m1, total - m1))]
    for total in range(2, max_v - 3):
        for m1 in range(0, total - 1):
            for m2 in range(1, total - m1):
                parts.append(("B", (m1, m2, total - m1 - m2)))
    return parts


def closed_form_poly(candidate, n, p=None):
    """The closed-form polynomial of a candidate on n vertices, unpacked."""
    bits = n + 1
    if p is None:
        p = _path_table(n, bits)
    return unpack(_closed_form(candidate, p, bits), bits)


def test_closed_forms_match_bruteforce_up_to_16_vertices():
    # every family graph on at most 16 vertices, alone, and every structured
    # candidate for odd n <= 15, which has the C_3 + C/D + special unions
    candidates = [(part,) for part in _family_parts(16)]
    assert len(candidates) == 469
    for n in range(3, 16, 2):
        candidates += _structured_candidates(n)
    assert len(candidates) == 469 + 72
    for candidate in candidates:
        g = parse_spec(_candidate_name(candidate))
        assert g.n == _candidate_size(candidate) <= 16
        assert closed_form_poly(candidate, g.n) == indpoly_bruteforce(g), \
            _candidate_name(candidate)


def test_closed_forms_match_indpoly_on_every_candidate_up_to_45():
    cache = PolyCache()
    count = 0
    for n in range(3, 46, 2):
        p = _path_table(n, n + 1)
        for candidate in _structured_candidates(n):
            count += 1
            want = indpoly(parse_spec(_candidate_name(candidate)), cache)
            assert closed_form_poly(candidate, n, p) == want, \
                _candidate_name(candidate)
    assert count == 2753


def test_indpoly_confirms_every_closed_form_hit(monkeypatch):
    # a closed form that matches I(C_n) wrongly must raise, never be trusted
    from indequiv import classes

    target = pack(cycle_poly(15), 16)
    monkeypatch.setattr(classes, "_closed_form", lambda cand, p, bits: target)
    with pytest.raises(AssertionError,
                       match=r"candidate C3\+\S+ equals I\(C_15, x\), but indpoly"):
        structured_class_search(15)


def test_indpoly_confirms_every_packed_match_of_the_unicyclic_oracle(monkeypatch):
    # a packed product that matches I(C_n) while indpoly disagrees must
    # raise, never drop the member silently
    from indequiv import classes

    monkeypatch.setattr(classes, "indpoly", lambda g, cache: cycle_poly(3))
    with pytest.raises(AssertionError,
                       match=r"packed product of \S+ equals I\(C_9, x\), but indpoly"):
        exhaustive_class_search(9, "unicyclic_multisets")


def test_every_candidate_is_size_checked(monkeypatch):
    from indequiv import classes

    monkeypatch.setattr(classes, "_structured_candidates",
                        lambda n: [(("C", (n,)), ("C", (3,)))])
    with pytest.raises(AssertionError, match=r"candidate C9\+C3 has wrong size"):
        structured_class_search(9)


def _atlas_level_sizes(n, s_bound=None):
    """Per edge count, the isomorphism classes of n-vertex graphs in the
    networkx atlas (every graph on up to 7 vertices), optionally only those
    with sum C(deg,2) - triangles <= s_bound."""
    nx = pytest.importorskip("networkx")
    sizes = [0] * (math.comb(n, 2) + 1)
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() != n:
            continue
        s = (sum(math.comb(d, 2) for _, d in h.degree())
             - sum(nx.triangles(h).values()) // 3)
        if s_bound is None or s <= s_bound:
            sizes[h.number_of_edges()] += 1
    return sizes


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_graph_levels_match_the_atlas(n):
    # with no bound the levels are every graph on n vertices, one per
    # isomorphism class, which also checks canon on all of them
    sizes = [len(level) for level in _graph_levels(n, math.inf)]
    assert sizes == _atlas_level_sizes(n)


def test_exhaustive_all_graphs_6():
    report = exhaustive_class_search(6, "all_graphs")
    expected = keys_of(cycle(6), d_graph(6), union(k4_minus_e(), path(2)))
    assert report.member_keys() == expected
    # the levels kept under the cubic-coefficient bound, against the atlas
    target = cycle_poly(6)
    s_target = target[3] - math.comb(6, 3) + 6 * 4
    sizes = [len(level) for level in _graph_levels(6, s_target)]
    atlas = _atlas_level_sizes(6, s_target)
    assert sizes == atlas[:len(sizes)] and not any(atlas[len(sizes):])
    assert report.stats["classes_generated"] == sum(sizes[1:7])


@pytest.mark.slow
def test_all_graphs_oracle_matches_structured_at_13():
    oracle = exhaustive_class_search(13, "all_graphs")
    assert oracle.member_keys() == structured_class_search(13).member_keys()
    assert oracle.stats == {"classes_generated": 7552, "i3_leaves": 116,
                            "i4_pass": 42, "polynomials_computed": 42}


@pytest.mark.slow
def test_all_graphs_oracle_matches_structured_at_15():
    # the class of C_15, with its 8 members, the paper's largest
    oracle = exhaustive_class_search(15, "all_graphs")
    structured = structured_class_search(15).member_keys()
    assert len(structured) == 8
    assert oracle.member_keys() == structured
    assert oracle.stats == {"classes_generated": 37549, "i3_leaves": 352,
                            "i4_pass": 97, "polynomials_computed": 97}


@pytest.mark.parametrize("n, bounded", [
    *((n, False) for n in range(3, 8)), (8, True), (9, True)])
def test_graph_levels_assemble_the_canonical_keys(n, bounded):
    # each level's keys are assembled from its representatives' component
    # keys; they must be the keys canon gives the representatives whole
    s_bound = math.inf
    if bounded:
        target = cycle_poly(n)
        s_bound = target[3] - math.comb(n, 3) + n * (n - 2)
    for level in _graph_levels(n, s_bound):
        for key, (g, _) in level.items():
            assert key == canonical_key(g), (n, sorted(g.edges))


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_unicyclic_oracle_matches_structured(n):
    oracle = exhaustive_class_search(n, "unicyclic_multisets")
    structured = structured_class_search(n)
    assert oracle.member_keys() == structured.member_keys()


def multiset_count(n, counts):
    """The coefficient of x^n in prod_v (1 - x^v)^(-counts[v]): the number
    of multisets of components, counts[v] kinds of them on v vertices,
    with n vertices in all."""
    series = [1] + [0] * n
    for v, kinds in counts.items():
        for _ in range(kinds):
            for m in range(v, n + 1):
                series[m] += series[m - v]
    return series[n]


@pytest.mark.parametrize("n", [
    9, 11, 13, *(pytest.param(n, marks=pytest.mark.slow)
                 for n in (15, MAX_UNPRUNED_UNICYCLIC_N)),
])
def test_unpruned_oracle_stats_match_independent_counts(n):
    # every connected unicyclic graph on 3..n vertices is generated and
    # admitted (OEIS A001429), and every multiset of them on n vertices is
    # tested once
    counts = {v: A001429[v - 3] for v in range(3, n + 1)}
    stats = exhaustive_class_search(n, "unicyclic_multisets", prune=False).stats
    assert stats["components_generated"] == sum(counts.values())
    assert stats["components_admitted"] == sum(counts.values())
    assert stats["multisets_tested"] == multiset_count(n, counts)
    if n == 15:
        assert sum(counts.values()) == 171512
        assert stats["multisets_tested"] == 129327
    if n == 17:
        assert sum(counts.values()) == 1363817


def test_unpruned_oracle_pools_only_what_can_share_a_multiset():
    # the walk's output streams through the oracle: components on 13
    # vertices are tested and those on 12 or 11 dropped as they arrive, so
    # only the 1,040 on at most 10 vertices are pooled (a pool of all
    # 21,871 would peak near 5.5 MB).
    tracemalloc.start()
    try:
        exhaustive_class_search(13, "unicyclic_multisets", prune=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_divisor_pruning_changes_stats_not_members():
    pruned = exhaustive_class_search(9, "unicyclic_multisets", prune=True)
    full = exhaustive_class_search(9, "unicyclic_multisets", prune=False)
    assert pruned.member_keys() == full.member_keys()
    assert full.stats["components_admitted"] > pruned.stats["components_admitted"]
    assert pruned.stats["components_pruned_census"] > 0


def test_exhaustive_guards():
    with pytest.raises(ValueError, match=r"n <= 15 \(MAX_ALL_GRAPHS_N\), got 16"):
        exhaustive_class_search(16, "all_graphs")
    with pytest.raises(ValueError, match=r"n <= 37 \(MAX_UNICYCLIC_N\), got 39"):
        exhaustive_class_search(39, "unicyclic_multisets")
    with pytest.raises(ValueError, match=r"n <= 37 \(MAX_UNICYCLIC_N\), got 8"):
        exhaustive_class_search(8, "unicyclic_multisets")
    with pytest.raises(ValueError):
        exhaustive_class_search(9, "nonsense")


def test_unpruned_unicyclic_beyond_its_cap_is_refused(monkeypatch):
    from indequiv import classes

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(classes, "_exhaustive_unicyclic", no_search)
    assert MAX_UNPRUNED_UNICYCLIC_N == 17
    for n in (19, 21):
        with pytest.raises(ValueError, match=rf"n <= 17 \(MAX_UNPRUNED_UNICYCLIC_N\), got {n}"):
            exhaustive_class_search(n, "unicyclic_multisets", prune=False)
    # the pruned scan and the unpruned one up to the cap still start
    for n, prune in ((21, True), (17, False)):
        with pytest.raises(AssertionError, match="the search started"):
            exhaustive_class_search(n, "unicyclic_multisets", prune=prune)


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
        for g in unicyclic_graphs(v):
            count += 1
            name = describe_graph(g)
            if name.startswith("graph("):
                assert canonical_key(g) not in family, name
            else:
                assert canonical_key(parse_spec(name)) == canonical_key(g), name
    assert count == 1040


def test_names_and_checks_ignore_labels(rng):
    # a report names and checks the first graph it meets per canonical key,
    # and which labelled copy comes first depends on the walk's order, so
    # both must be invariant under relabelling
    graphs = [(g, g.n) for v in range(3, 11) for g in unicyclic_graphs(v)]
    for n in (9, 15):
        graphs += [(parse_graph6(m.graph6), n)
                   for m in structured_class_search(n).members]
    for g, n in graphs:
        want = (describe_graph(g), structural_checks(g, n))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            copy = g.relabel(perm)
            assert (describe_graph(copy), structural_checks(copy, n)) == want
    assert len(graphs) == 1040 + 6 + 8


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
    assert report.stats["polynomial_tests"] == report.stats["candidates_generated"]
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


@pytest.mark.parametrize("n", [9, pytest.param(15, marks=pytest.mark.slow)])
def test_census_prefilter_admits_exactly_the_dividing_components(n, monkeypatch):
    # the pruned pool must keep precisely the components whose polynomial
    # divides the target, compared against long division of the unfiltered
    # enumeration
    from indequiv import classes
    from indequiv.classes import _divisor_table

    budgets = []

    def spy(walk_budgets, bits, emit):
        budgets.append(walk_budgets)
        unicyclic_necklaces(walk_budgets, bits, emit)

    monkeypatch.setattr(classes, "unicyclic_necklaces", spy)
    stats = exhaustive_class_search(n, "unicyclic_multisets").stats
    (pruned,) = budgets
    target = cycle_poly(n)
    unfiltered = set()
    for necklaces in walk_necklaces(dict.fromkeys(range(3, n + 1)), n + 1).values():
        for c, trees, poly in necklaces:
            if divides(poly, target):
                unfiltered.add(canonical_key(_necklace_graph(c, trees)))
    table = _divisor_table(n, n + 1)
    filtered = [
        canonical_key(_necklace_graph(c, trees))
        for necklaces in walk_necklaces(pruned, n + 1).values()
        for c, trees, poly in necklaces
        if pack(poly, n + 1) in table
    ]
    assert set(filtered) == unfiltered
    assert stats["components_admitted"] == len(filtered)


@pytest.mark.parametrize("n", range(3, 46, 2))
def test_divisor_table_holds_every_divisor_once(n):
    # the products of the 2^k - 1 nonempty subsets of the k factors f_m are
    # distinct, and each divides I(C_n, x) exactly, with its vertex count
    # as the linear coefficient
    from indequiv.classes import _divisor_table
    from indequiv.intpoly import poly_exact_div

    bits = n + 1
    table = _divisor_table(n, bits)
    k = sum(1 for m in divisors(n) if m >= 3)
    assert len(table) == 2 ** k - 1
    target = cycle_poly(n)
    for packed, (v, _) in table.items():
        q = unpack(packed, bits)
        assert pack(q, bits) == packed
        assert q[0] == 1 and q[1] == v
        poly_exact_div(target, q)
    assert pack(target, bits) in table
