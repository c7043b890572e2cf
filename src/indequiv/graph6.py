"""graph6 interchange format (no ">>graph6<<" header; the one-byte size
field for n <= 62 and the four-byte one for 63 <= n <= 258047) and a
human-readable edge-list text format for debugging."""
from __future__ import annotations

from .graphs import Graph

#: Largest vertex count with a four-byte size field ("~" plus 18 bits).
GRAPH6_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def emit_graph6(g: Graph) -> str:
    """Standard graph6 encoding of the given labelled graph."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= GRAPH6_MAX_N:
        out = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    else:
        raise ValueError(f"graph6 size field supports n <= {GRAPH6_MAX_N}, got {n}")
    bit = 5
    acc = 0
    for v in range(1, n):
        for u in range(v):
            if g.has_edge(u, v):
                acc |= 1 << bit
            if bit == 0:
                out.append(chr(acc + 63))
                acc, bit = 0, 5
            else:
                bit -= 1
    if bit != 5:
        out.append(chr(acc + 63))
    return "".join(out)


def parse_graph6(s: str) -> Graph:
    """Decode a graph6 string (n <= 258047, shortest size field and zero
    padding required)."""
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if s[0] != "~":
        n, start = ord(s[0]) - 63, 1
        if not 0 <= n <= 62:
            raise Graph6Error(f"size byte {s[0]!r} out of range", 0)
    else:
        if s[1:2] == "~":
            raise Graph6Error(f"size field for n > {GRAPH6_MAX_N} not supported", 1)
        field = [ord(ch) - 63 for ch in s[1:4]]
        if len(field) < 3 or not all(0 <= v < 64 for v in field):
            raise Graph6Error("malformed four-byte size field", 1)
        n, start = field[0] << 12 | field[1] << 6 | field[2], 4
        if n <= 62:
            raise Graph6Error(f"four-byte size field used for n={n} <= 62", 1)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - start != need:
        raise Graph6Error(
            f"expected {need} data bytes for n={n}, got {len(s) - start}",
            min(len(s), start),
        )
    bits = []
    for i, ch in enumerate(s[start:], start=start):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"invalid data byte {ch!r}", i)
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    """Debug format: "n_vertices; u-v, u-v, ..."."""
    pairs = ", ".join(f"{u}-{v}" for u, v in g.sorted_edges())
    return f"{g.n}; {pairs}" if pairs else f"{g.n};"


def parse_edge_list(s: str) -> Graph:
    head, _, rest = s.partition(";")
    try:
        n = int(head.strip())
    except ValueError:
        raise ValueError(f"bad vertex count {head.strip()!r}") from None
    edges = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        u, _, v = part.partition("-")
        edges.append((int(u), int(v)))
    return Graph(n, edges)
