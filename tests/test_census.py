import pytest

from indequiv.census import subgraph_census
from indequiv.graphs import a_graph, cycle, d_graph, k4_minus_e, path, union

from conftest import naive_census, random_graph


def test_census_c9():
    c = subgraph_census(cycle(9))
    assert (c["e2"], c["p3_k1"], c["p4"], c["triangles"]) == (27, 54, 9, 0)
    assert (c["c3_k1"], c["k13"], c["d4"], c["c4"]) == (0, 0, 0, 0)


def test_census_c3_union_a21():
    c = subgraph_census(union(cycle(3), a_graph(2, 1)))
    assert c["e2"] == 25
    assert c["p3_k1"] == 66
    assert c["c3_k1"] == 12
    assert c["p4"] == 7
    assert c["k13"] == 2
    assert c["d4"] == 2
    assert c["c4"] == 0
    assert c["triangles"] == 2


def test_census_k4_minus_e():
    assert subgraph_census(k4_minus_e())["triangles"] == 2


@pytest.mark.parametrize(
    "g",
    [
        cycle(5),
        cycle(4),
        d_graph(6),
        a_graph(2, 1),
        path(6),
        union(cycle(3), cycle(4)),
        k4_minus_e(),
    ],
    ids=["C5", "C4", "D6", "A21", "P6", "C3+C4", "K4-e"],
)
def test_census_against_naive_enumeration(g):
    got = subgraph_census(g)
    want = naive_census(g)
    for field, value in want.items():
        assert got[field] == value, field


def test_census_random_graphs_against_naive(rng):
    for _ in range(12):
        g = random_graph(rng, rng.randint(4, 8), p=0.4)
        got = subgraph_census(g)
        want = naive_census(g)
        for field, value in want.items():
            assert got[field] == value, field
