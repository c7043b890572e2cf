"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserts exact integer equality unless a numeric
tolerance is stated inline.
"""
import time

import pytest

from indequiv.canon import canonical_key
from indequiv.classes import (
    alpha_formula,
    exhaustive_class_search,
    structured_class_search,
)
from indequiv.factors import (
    f_poly_by_division,
    f_poly_by_transform,
    root_values,
)
from indequiv.graphs import (
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
from indequiv.indpoly import (
    PolyCache,
    indpoly,
    indpoly_bruteforce,
)
from indequiv.intpoly import (
    X,
    cycle_coeff,
    cycle_poly,
    poly_exact_div,
)

from conftest import (
    delete_closed_neighborhood,
    delete_edge_closure,
    delete_vertex,
    divides,
    eval_float,
    is_unicyclic_poly,
    naive_independent_counts,
    path_coeff,
    path_poly,
    poly_sub,
    random_graph,
)

ODD = list(range(3, 46, 2))


def announce(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


@pytest.fixture(scope="module")
def shared_cache():
    return PolyCache()


@pytest.fixture(scope="module")
def structured_reports(shared_cache):
    return {n: structured_class_search(n, shared_cache) for n in ODD}


def test_criterion_1_coefficient_reproduction(shared_cache):
    started = time.perf_counter()
    assert indpoly(cycle(9), shared_cache).coeffs == (1, 9, 27, 30, 9)
    assert indpoly(cycle(15), shared_cache).coeffs == (1, 15, 90, 275, 450, 378, 140, 15)
    assert f_poly_by_division(3).coeffs == (1, 3)
    assert f_poly_by_division(5).coeffs == (1, 5, 5)
    assert f_poly_by_division(9).coeffs == (1, 6, 9, 3)
    assert f_poly_by_division(15).coeffs == (1, 7, 14, 8, 1)
    assert f_poly_by_transform(9).coeffs == (1, 6, 9, 3)
    assert f_poly_by_transform(15).coeffs == (1, 7, 14, 8, 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce("criterion-1 coefficient reproduction", f"{elapsed:.3f}s")


def test_criterion_2_classification_classes(structured_reports):
    started = time.perf_counter()
    sizes = {n: len(structured_reports[n].members) for n in ODD}
    assert sizes[3] == 1
    assert sizes[9] == 6
    assert sizes[15] == 8
    for n in ODD:
        if n not in (3, 9, 15):
            assert sizes[n] == 2, n
            expected = {canonical_key(cycle(n)), canonical_key(d_graph(n))}
            assert structured_reports[n].member_keys() == expected, n

    expected9 = {
        canonical_key(g)
        for g in (
            cycle(9),
            d_graph(9),
            union(cycle(3), named_graph("Ga")),
            union(cycle(3), named_graph("Gb")),
            union(cycle(3), named_graph("Gc")),
            union(cycle(3), named_graph("Gd")),
        )
    }
    assert structured_reports[9].member_keys() == expected9

    expected15 = {
        canonical_key(union(cycle(3), mid, named_graph(name)))
        for mid in (cycle(5), d_graph(5))
        for name in ("Ga'", "Gb'", "Gc'")
    } | {canonical_key(cycle(15)), canonical_key(d_graph(15))}
    assert structured_reports[15].member_keys() == expected15

    # candidate generation is pinned too, not only the members it yields,
    # and every candidate is polynomial-tested
    pinned = {
        3: 1, 5: 2, 7: 2, 9: 7, 11: 2, 13: 2, 15: 56, 17: 2, 19: 2, 21: 149,
        23: 2, 25: 2, 27: 232, 29: 2, 31: 2, 33: 467, 35: 2, 37: 2, 39: 692,
        41: 2, 43: 2, 45: 1121,
    }
    for stat in ("candidates_generated", "polynomial_tests"):
        assert {n: structured_reports[n].stats[stat] for n in ODD} == pinned

    elapsed = time.perf_counter() - started
    total_search = sum(r.wall_time for r in structured_reports.values())
    assert total_search < 300.0
    announce(
        "criterion-2 classification classes 3..45",
        f"search {total_search:.1f}s, checks {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_2_classes_beyond_64(shared_cache):
    # past the old 64-vertex canonical-key cap: every odd n up to 127
    started = time.perf_counter()
    for n in range(65, 128, 2):
        report = structured_class_search(n, shared_cache)
        expected = {canonical_key(cycle(n)), canonical_key(d_graph(n))}
        assert report.member_keys() == expected, n
    announce("criterion-2 classification classes 65..127",
             f"{time.perf_counter() - started:.1f}s")


def test_criterion_3_oracle_equivalence(structured_reports, shared_cache):
    started = time.perf_counter()
    report6 = exhaustive_class_search(6, "all_graphs", shared_cache)
    expected6 = {
        canonical_key(g)
        for g in (cycle(6), d_graph(6), union(k4_minus_e(), path(2)))
    }
    assert report6.member_keys() == expected6
    assert time.perf_counter() - started < 60.0

    # the funnel of the level generation: classes kept on levels 1..n,
    # n-edge leaves meeting the cubic coefficient, then the quartic one,
    # and one brute-forced polynomial per surviving class
    funnels = {
        9: {"classes_generated": 322, "i3_leaves": 14, "i4_pass": 6,
            "polynomials_computed": 6},
        11: {"classes_generated": 1544, "i3_leaves": 40, "i4_pass": 20,
             "polynomials_computed": 20},
    }
    t_all = time.perf_counter()
    for n, funnel in funnels.items():
        report = exhaustive_class_search(n, "all_graphs", shared_cache)
        assert report.member_keys() == structured_reports[n].member_keys(), n
        assert report.stats == funnel, n
    t_all = time.perf_counter() - t_all
    assert t_all < 600.0

    tu = time.perf_counter()
    for n in range(5, 22, 2):
        oracle = exhaustive_class_search(n, "unicyclic_multisets", shared_cache)
        assert oracle.member_keys() == structured_reports[n].member_keys(), n
    tu = time.perf_counter() - tu
    assert tu < 600.0
    announce(
        "criterion-3 oracle equivalence",
        f"all-graphs n=9, 11 {t_all:.1f}s, unicyclic sweep {tu:.1f}s",
    )


@pytest.mark.slow
def test_criterion_3_pruned_unicyclic_oracle_to_37(structured_reports,
                                                   shared_cache):
    # past the unpruned scan's reach, the pruned one still confirms the
    # structured search's {C_n, D_n}, up to MAX_UNICYCLIC_N
    started = time.perf_counter()
    for n in range(23, 38, 2):
        oracle = exhaustive_class_search(n, "unicyclic_multisets", shared_cache)
        assert oracle.member_keys() == structured_reports[n].member_keys(), n
    announce("criterion-3 pruned unicyclic oracle 23..37",
             f"{time.perf_counter() - started:.1f}s")


def test_criterion_4_dual_route_factor_agreement():
    started = time.perf_counter()
    for n in range(3, 100, 2):
        assert f_poly_by_transform(n) == f_poly_by_division(n), n
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce("criterion-4 dual-route factors odd 3..99", f"{elapsed:.1f}s")


def test_criterion_5_root_formula():
    for n in ODD:
        target = cycle_poly(n)
        roots = root_values(n)
        assert len(roots) == n // 2
        scale = max(abs(c) for c in target.coeffs)
        for _, c, _ in roots:
            residual = abs(eval_float(target, c)) / (
                scale * max(1.0, abs(c)) ** target.degree
            )
            assert residual < 1e-9, (n, c)
        values = sorted(c for _, c, _ in roots)
        for a, b in zip(values, values[1:]):
            assert b - a > 1e-9, (n, a, b)
    announce("criterion-5 root formula and distinctness odd 3..45")


def test_criterion_6_identity_suites(structured_reports, shared_cache, rng):
    # vertex- and edge-deletion identities on 200 random graphs
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 14), p=rng.uniform(0.1, 0.5))
        whole = indpoly_bruteforce(g)
        v = rng.randrange(g.n)
        assert whole == indpoly_bruteforce(delete_vertex(g, v)) + X * indpoly_bruteforce(
            delete_closed_neighborhood(g, v)
        )
        if g.edges:
            e = sorted(g.edges)[rng.randrange(g.n_edges)]
            minus_e, closure = delete_edge_closure(g, e)
            assert whole == poly_sub(
                indpoly_bruteforce(minus_e), (X * X) * indpoly_bruteforce(closure)
            )

    for n in range(4, 61):
        assert indpoly(d_graph(n), shared_cache) == cycle_poly(n), n

    for m1 in range(1, 9):
        for m2 in range(1, 9):
            pa = indpoly(a_graph(m1, m2), shared_cache)
            assert pa == indpoly(e_graph(m1, m2), shared_cache)
            assert pa == indpoly(e_graph(m2, m1), shared_cache)
            assert pa == path_poly(m1 + m2 + 2) + X * path_poly(m1) * path_poly(m2)
            assert alpha_formula("A", (m1, m2)) == pa.degree

    for m1 in range(0, 9):
        for m2 in range(1, 9):
            for m3 in range(1, 9):
                got = indpoly(b_graph(m1, m2, m3), shared_cache)
                second = cycle_poly(m1 + 2) if m1 >= 1 else path_poly(2)
                want = cycle_poly(m1 + 3) * path_poly(m2) * path_poly(m3) + (
                    X * second * path_poly(m2 - 1) * path_poly(m3 - 1)
                )
                assert got == want
                assert alpha_formula("B", (m1, m2, m3)) == got.degree

    for n, report in structured_reports.items():
        for member in report.members:
            assert member.checks.ok, (n, member.description)

    for n in range(3, 17):
        assert [cycle_coeff(n, k) for k in range(n // 2 + 1)] == (
            naive_independent_counts(cycle(n))
        )
        assert [path_coeff(n, k) for k in range((n + 1) // 2 + 1)] == (
            naive_independent_counts(path(n))
        )

    fs = [f_poly_by_division(n) for n in range(3, 46, 2)]
    for f in fs:
        assert is_unicyclic_poly(f)
    for f in fs[:8]:
        for g in fs[:8]:
            assert is_unicyclic_poly(f * g)
    for n in (9, 15, 21, 27, 45):
        whole = cycle_poly(n)
        for m in (3, n):
            quotient = poly_exact_div(whole, f_poly_by_division(m))
            assert is_unicyclic_poly(quotient), (n, m)
    announce("criterion-6 identity suites")


def test_criterion_7_divisibility_corollary():
    started = time.perf_counter()
    for n in ODD:
        pn = cycle_poly(n)
        for k in ODD:
            assert divides(cycle_poly(k), pn) == (n % k == 0), (k, n)
    announce(
        "criterion-7 divisibility corollary odd pairs 3..45",
        f"{time.perf_counter() - started:.1f}s",
    )
