"""Textual graph specifications.

Grammar (case-sensitive, whitespace ignored):

    spec    := term ('+' term)*
    term    := 'C'<int> | 'P'<int> | 'D'<int>
             | 'A(' int ',' int ')' | 'B(' int ',' int ',' int ')'
             | 'E(' int ',' int ')'
             | 'K1_3' | 'K4-e'
             | 'Ga' | 'Gb' | 'Gc' | 'Gd' | "Ga'" | "Gb'" | "Gc'"
             | 'g6:'<graph6>

Each term is built by its family constructor in ``graphs``, which checks
the parameter bounds and names them when they are violated.  graph6 bytes
lie in 63-126 ('?' to '~'), so a payload holds no '+', parenthesis or
whitespace, and a 'g6:' term may stand anywhere in a union.
"""
from __future__ import annotations

import re

from . import graphs
from .graph6 import parse_graph6
from .graphs import Graph, GraphSpecError

_INT_FAMILY = re.compile(r"([CPD])(\d+)$")
_PAREN_TERM = re.compile(r"([ABE])\((.*)\)$", re.S)
_INT_MAKERS = {"C": graphs.cycle, "P": graphs.path, "D": graphs.d_graph}
_PAREN_MAKERS = {
    "A": (graphs.a_graph, 2), "B": (graphs.b_graph, 3), "E": (graphs.e_graph, 2),
}


def parse_spec(text: str) -> Graph:
    """The graph a specification string names; raises GraphSpecError."""
    parts = _split_top_level("".join(text.split()))
    if len(parts) > 1:
        return graphs.union(*(_parse_term(p) for p in parts))
    return _parse_term(parts[0])


def _parse_term(t: str) -> Graph:
    if not t:
        raise GraphSpecError("empty graph specification")
    if t.startswith("g6:"):
        return parse_graph6(t[3:])
    if t == "K1_3":
        return graphs.star_k13()
    if t == "K4-e":
        return graphs.k4_minus_e()
    if t in graphs.NAMED_GRAPHS:
        return graphs.named_graph(t)
    m = _INT_FAMILY.match(t)
    if m:
        return _INT_MAKERS[m.group(1)](int(m.group(2)))
    m = _PAREN_TERM.match(t)
    if m:
        head, body = m.group(1), m.group(2)
        try:
            nums = [int(a) for a in body.split(",")]
        except ValueError:
            raise GraphSpecError(f"non-integer parameter in {t!r}") from None
        maker, arity = _PAREN_MAKERS[head]
        if len(nums) != arity:
            raise GraphSpecError(f"wrong parameter count in {t!r}")
        return maker(*nums)
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
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise GraphSpecError("unbalanced parentheses")
    parts.append("".join(cur))
    return parts
