import pytest

from indequiv.canon import is_isomorphic
from indequiv.graph6 import emit_graph6
from indequiv.graphs import GraphSpecError, a_graph, cycle, named_graph, union
from indequiv.gspec import parse_spec


def test_compact_forms():
    assert is_isomorphic(parse_spec("C9"), cycle(9))
    assert parse_spec("P5").n_edges == 4
    assert parse_spec("D7").n == 7
    assert is_isomorphic(parse_spec("A(2,1)"), a_graph(2, 1))
    assert parse_spec("B(0,1,1)").n == 6
    assert parse_spec("E(1,2)").n == 6
    assert parse_spec("K1_3").n_edges == 3
    assert parse_spec("K4-e").n_edges == 5
    assert is_isomorphic(parse_spec("Gd"), named_graph("Gd"))
    assert is_isomorphic(parse_spec("Ga'"), named_graph("Ga'"))


def test_unions():
    g = parse_spec("C3 + A(2,1)")
    assert is_isomorphic(g, union(cycle(3), a_graph(2, 1)))
    assert parse_spec("C3+C5+A(3,1)").n == 15


def test_graph6_specs():
    s = emit_graph6(cycle(9))
    assert is_isomorphic(parse_spec(f"g6:{s}"), cycle(9))


def test_bounds_named_in_errors():
    with pytest.raises(GraphSpecError, match="n >= 4"):
        parse_spec("D3")
    for bad in ("A(0,2)", "C3 + A(0,2)"):
        with pytest.raises(GraphSpecError, match="m1, m2 >= 1"):
            parse_spec(bad)
    with pytest.raises(GraphSpecError, match="n >= 3"):
        parse_spec("C2")
    with pytest.raises(GraphSpecError, match="m2, m3 >= 1"):
        parse_spec("B(1,0,1)")


def test_parse_errors():
    for bad in ("", "garbage", "Q7", "A(1)", "A(1,2,3)", "A(x,y)", "Union(",
                "C3 + + C5"):
        with pytest.raises(GraphSpecError):
            parse_spec(bad)


def test_long_form_aliases_are_refused():
    for alias in ("Cycle(9)", "Path(4)", "Dn(5)", "Named(Gd)", "Graph6(C~)",
                  "Union(C3, A(2,1))", "K13", "K4_minus_e"):
        with pytest.raises(GraphSpecError):
            parse_spec(alias)
