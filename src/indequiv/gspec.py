"""Textual graph specifications.

Grammar (case-sensitive, whitespace ignored):

    spec    := term ('+' term)*
    term    := 'C'<int> | 'P'<int> | 'D'<int>
             | 'A(' int ',' int ')' | 'B(' int ',' int ',' int ')'
             | 'E(' int ',' int ')'
             | 'K1_3' | 'K4-e'
             | 'Ga' | 'Gb' | 'Gc' | 'Gd' | "Ga'" | "Gb'" | "Gc'"
             | 'g6:'<graph6>

Parameter bounds are enforced at parse time; violations name the bound.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import graphs
from .graph6 import parse_graph6
from .graphs import Graph, GraphSpecError


@dataclass(frozen=True)
class GraphSpec:
    """A validated family constructor term (possibly a disjoint union)."""

    kind: str
    params: tuple = ()
    parts: tuple["GraphSpec", ...] = field(default=())

    def build(self) -> Graph:
        return build_graph(self)

    def describe(self) -> str:
        return describe_spec(self)


_BUILDERS = {
    "cycle": graphs.cycle,
    "path": graphs.path,
    "d": graphs.d_graph,
    "a": graphs.a_graph,
    "b": graphs.b_graph,
    "e": graphs.e_graph,
    "k1_3": graphs.star_k13,
    "k4_minus_e": graphs.k4_minus_e,
    "named": graphs.named_graph,
    "graph6": parse_graph6,
}


def build_graph(spec: GraphSpec) -> Graph:
    if spec.kind == "union":
        return graphs.union(*(build_graph(p) for p in spec.parts))
    return _BUILDERS[spec.kind](*spec.params)


def describe_spec(spec: GraphSpec) -> str:
    if spec.kind == "union":
        return " + ".join(describe_spec(p) for p in spec.parts)
    k, p = spec.kind, spec.params
    if k == "cycle":
        return f"C{p[0]}"
    if k == "path":
        return f"P{p[0]}"
    if k == "d":
        return f"D{p[0]}"
    if k in ("a", "b", "e"):
        return f"{k.upper()}({','.join(map(str, p))})"
    if k == "k1_3":
        return "K1_3"
    if k == "k4_minus_e":
        return "K4-e"
    if k == "named":
        return p[0]
    if k == "graph6":
        return f"g6:{p[0]}"
    raise AssertionError(k)


def union_spec(*parts: GraphSpec) -> GraphSpec:
    flat = []
    for p in parts:
        flat.extend(p.parts if p.kind == "union" else (p,))
    return GraphSpec("union", parts=tuple(flat))


def cycle_spec(n: int) -> GraphSpec:
    _check(n >= 3, f"Cycle requires n >= 3, got {n}")
    return GraphSpec("cycle", (n,))


def path_spec(n: int) -> GraphSpec:
    _check(n >= 1, f"Path requires n >= 1, got {n}")
    return GraphSpec("path", (n,))


def d_spec(n: int) -> GraphSpec:
    _check(n >= 4, f"D requires n >= 4, got {n}")
    return GraphSpec("d", (n,))


def a_spec(m1: int, m2: int) -> GraphSpec:
    _check(m1 >= 1 and m2 >= 1, f"A requires m1, m2 >= 1, got ({m1},{m2})")
    return GraphSpec("a", (m1, m2))


def b_spec(m1: int, m2: int, m3: int) -> GraphSpec:
    _check(
        m1 >= 0 and m2 >= 1 and m3 >= 1,
        f"B requires m1 >= 0 and m2, m3 >= 1, got ({m1},{m2},{m3})",
    )
    return GraphSpec("b", (m1, m2, m3))


def e_spec(m1: int, m2: int) -> GraphSpec:
    _check(m1 >= 1 and m2 >= 1, f"E requires m1, m2 >= 1, got ({m1},{m2})")
    return GraphSpec("e", (m1, m2))


def _check(ok: bool, message: str):
    if not ok:
        raise GraphSpecError(message)


_INT_FAMILY = re.compile(r"([CPD])(\d+)$")
_PAREN_TERM = re.compile(r"([ABE])\((.*)\)$", re.S)


def parse_spec(text: str) -> GraphSpec:
    """Parse a graph specification string; raises GraphSpecError."""
    text = text.strip()
    # graph6 payloads may contain '+', '(' etc., so a leading g6: claims the
    # whole string (a single graph6 string can already encode a union).
    if text.startswith("g6:"):
        return _parse_term(text)
    parts = _split_top_level(text)
    if len(parts) > 1:
        return union_spec(*(parse_spec(p) for p in parts))
    return _parse_term(parts[0].strip())


def _parse_term(t: str) -> GraphSpec:
    if not t:
        raise GraphSpecError("empty graph specification")
    if t.startswith("g6:"):
        body = t[3:]
        parse_graph6(body)  # validate now so errors surface at parse time
        return GraphSpec("graph6", (body,))
    if t == "K1_3":
        return GraphSpec("k1_3")
    if t == "K4-e":
        return GraphSpec("k4_minus_e")
    if t in graphs.NAMED_GRAPHS:
        return GraphSpec("named", (t,))
    m = _INT_FAMILY.match(t)
    if m:
        letter, num = m.group(1), int(m.group(2))
        return {"C": cycle_spec, "P": path_spec, "D": d_spec}[letter](num)
    m = _PAREN_TERM.match(t)
    if m:
        head, body = m.group(1), m.group(2)
        try:
            nums = [int(a) for a in body.split(",")]
        except ValueError:
            raise GraphSpecError(f"non-integer parameter in {t!r}") from None
        maker = {"A": a_spec, "B": b_spec, "E": e_spec}[head]
        try:
            return maker(*nums)
        except TypeError:
            raise GraphSpecError(f"wrong parameter count in {t!r}") from None
    raise GraphSpecError(f"unrecognized graph specification {t!r}")


def _split_top_level(text: str) -> list[str]:
    """Split on the '+' signs outside parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GraphSpecError("unbalanced parentheses")
        if ch == "+" and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise GraphSpecError("unbalanced parentheses")
    parts.append("".join(cur).strip())
    return parts
