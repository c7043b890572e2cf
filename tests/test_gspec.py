import pytest

from indequiv.canon import canonical_key
from indequiv.graph6 import emit_graph6
from indequiv.graphs import (
    GraphSpecError,
    a_graph,
    cycle,
    d_graph,
    e_graph,
    named_graph,
    union,
)
from indequiv.gspec import parse_spec


def test_compact_forms():
    assert canonical_key(parse_spec("C9")) == canonical_key(cycle(9))
    # whitespace is ignored inside a term too
    assert canonical_key(parse_spec("C 9")) == canonical_key(cycle(9))
    assert canonical_key(parse_spec("D 7")) == canonical_key(d_graph(7))
    assert parse_spec("P5").n_edges == 4
    assert parse_spec("D7").n == 7
    assert canonical_key(parse_spec("A(2,1)")) == canonical_key(a_graph(2, 1))
    assert parse_spec("B(0,1,1)").n == 6
    assert parse_spec("E(1,2)").n == 6
    assert parse_spec("K1_3").n_edges == 3
    assert parse_spec("K4-e").n_edges == 5
    assert canonical_key(parse_spec("Gd")) == canonical_key(named_graph("Gd"))
    assert canonical_key(parse_spec("Ga'")) == canonical_key(named_graph("Ga'"))


def test_unions():
    g = parse_spec("C3 + A(2,1)")
    assert canonical_key(g) == canonical_key(union(cycle(3), a_graph(2, 1)))
    assert parse_spec("C3+C5+A(3,1)").n == 15
    assert (canonical_key(parse_spec("E(1, 2) + C3"))
            == canonical_key(union(e_graph(1, 2), cycle(3))))


def test_graph6_specs():
    s = emit_graph6(cycle(9))
    assert canonical_key(parse_spec(f"g6:{s}")) == canonical_key(cycle(9))


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


def test_member_descriptions_parse_back_to_their_members():
    # the tracing namer and the spec builder agree: every family name that
    # describe_graph gives names a graph with the member's canonical key
    from indequiv.classes import (
        describe_graph,
        enumerate_unicyclic,
        exhaustive_class_search,
        structured_class_search,
    )

    pairs = []
    for n in range(3, 46, 2):
        pairs += [(m.description, m.key)
                  for m in structured_class_search(n).members]
    reports = [exhaustive_class_search(n, "all_graphs") for n in (6, 9)]
    reports += [exhaustive_class_search(n, "unicyclic_multisets")
                for n in range(3, 16, 2)]
    for report in reports:
        pairs += [(m.description, m.key) for m in report.members]
    for v in range(3, 10):
        enumerate_unicyclic(v, lambda g: pairs.append(
            (describe_graph(g), canonical_key(g))))
    checked = 0
    for description, key in pairs:
        if "graph(" in description:
            continue
        assert canonical_key(parse_spec(description)) == key, description
        checked += 1
    assert checked == 135
