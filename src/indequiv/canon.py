"""Exact canonical forms for small graphs.

The canonical key of a connected graph is the lexicographically extremal
packing of its upper-triangle adjacency bits over all vertex orderings that
list degrees in non-increasing order.  The search is complete (never a
heuristic): equal keys hold exactly when the graphs are isomorphic.  Graphs
whose components exceed the supported size are refused rather than answered
approximately.

Keys of disconnected graphs concatenate the sorted per-component keys.
"""
from __future__ import annotations

from .graphs import Graph, component_vertex_sets, union

#: Hard per-component size bound; beyond it the search is refused.
MAX_COMPONENT_VERTICES = 64

#: Guard against pathological search blowup (never reached by the sparse
#: graphs this package targets).
_NODE_BUDGET = 2_000_000


class CanonicalRefusalError(ValueError):
    """Canonicalization refused (component too large or search too big)."""


def connected_canonical_form(g: Graph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical (key bytes, ordering) of a connected graph.

    The ordering maps canonical position -> original vertex id.
    """
    n = g.n
    if n > MAX_COMPONENT_VERTICES:
        raise CanonicalRefusalError(
            f"component has {n} vertices; canonicalization supports at most "
            f"{MAX_COMPONENT_VERTICES}"
        )
    if n == 0:
        return n.to_bytes(2, "big"), ()
    adj = g.adjacency_masks()
    degs = [m.bit_count() for m in adj]
    target = sorted(degs, reverse=True)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degs[v], []).append(v)
    budget = [_NODE_BUDGET]
    # pos[v] = canonical position of an already-placed vertex v
    pos = [0] * n

    def best_suffix(placed: list[int], used: int, i: int):
        """Maximal (chunk tuple, ordering tail) from position i onward."""
        if i == n:
            return (), ()
        budget[0] -= 1
        if budget[0] < 0:
            raise CanonicalRefusalError(
                f"canonical search budget exceeded on a {n}-vertex component"
            )
        cands = []
        top = -1
        hi = i - 1
        for v in by_degree[target[i]]:
            if used >> v & 1:
                continue
            chunk = 0
            hits = adj[v] & used
            while hits:
                low = hits & -hits
                chunk |= 1 << (hi - pos[low.bit_length() - 1])
                hits ^= low
            if chunk > top:
                top = chunk
                cands = [v]
            elif chunk == top:
                cands.append(v)
        # Interchangeable twins (equal neighborhoods up to each other) lead
        # to identical completions; keep one representative.
        kept = []
        for v in cands:
            av = adj[v] & ~(1 << v)
            if any(
                adj[u] & ~(1 << v) & ~(1 << u) == av & ~(1 << u) for u in kept
            ):
                continue
            kept.append(v)
        best = None
        for v in kept:
            placed.append(v)
            pos[v] = i
            sub = best_suffix(placed, used | 1 << v, i + 1)
            placed.pop()
            cand = ((top,) + sub[0], (v,) + sub[1])
            if best is None or cand > best:
                best = cand
        return best

    chunks, order = best_suffix([], 0, 0)
    bits = 0
    nbits = 0
    for i in range(1, n):
        bits = bits << i | chunks[i]
        nbits += i
    pad = -nbits % 8
    packed = (bits << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return n.to_bytes(2, "big") + packed, order


def canonical_key(g: Graph) -> bytes:
    """Exact isomorphism key: per-component canonical forms, sorted."""
    parts = sorted(
        connected_canonical_form(g.subgraph(vs))[0] for vs in component_vertex_sets(g)
    )
    header = g.n.to_bytes(2, "big") + len(parts).to_bytes(2, "big")
    return header + b"".join(parts)


def canonical_graph(g: Graph) -> Graph:
    """A canonically labelled representative of g's isomorphism class.

    Two isomorphic graphs yield identical (labelled) results, so this is the
    stable form for serialization.
    """
    comps = []
    for vs in component_vertex_sets(g):
        sub = g.subgraph(vs)
        key, order = connected_canonical_form(sub)
        inverse = [0] * sub.n
        for pos, v in enumerate(order):
            inverse[v] = pos
        comps.append((key, sub.relabel(inverse)))
    comps.sort(key=lambda kg: kg[0])
    return union(*(cg for _, cg in comps))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_key(g) == canonical_key(h)
