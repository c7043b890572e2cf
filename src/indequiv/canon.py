"""Exact canonical forms for small graphs.

The canonical key of a connected graph is the lexicographically extremal
packing of its upper-triangle adjacency bits over all vertex orderings that
list degrees in non-increasing order.  The search is complete (never a
heuristic): equal keys hold exactly when the graphs are isomorphic.  Graphs
whose components exceed the supported size are refused rather than answered
approximately.

The first level of the search is pruned by automorphisms (McKay & Piperno,
"Practical graph isomorphism, II", JSC 60, 2014).  When two roots' best
orderings give equal chunk tuples, mapping one ordering onto the other is an
automorphism; its cycles are merged into a union-find over the vertices, and
a later root in the orbit of an explored one is skipped.  The best chunk
tuple from a root is invariant under automorphisms, so the maximum, the key
bytes and the canonical graph are those of the unpruned search; only the
tie-break among orderings with equal chunks, which all give the same
labelled graph, can differ.  A cycle C_n then costs two or three roots
instead of n.

Keys of disconnected graphs concatenate the sorted per-component keys.
"""
from __future__ import annotations

from .graphs import Graph, component_vertex_sets, union

#: Hard per-component size bound; beyond it the search is refused.
MAX_COMPONENT_VERTICES = 128

#: Guard against pathological search blowup (never reached by the sparse
#: graphs this package targets).
_NODE_BUDGET = 2_000_000


class CanonicalRefusalError(ValueError):
    """Canonicalization refused (component too large or search too big)."""


def _find(parent: list[int], v: int) -> int:
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


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

    def best_suffix(used: int, i: int):
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
        # First level only: roots whose best orderings give equal chunks
        # differ by an automorphism, whose cycles join orbits in `orbit`.
        orbit = list(range(n)) if i == 0 and len(kept) > 1 else None
        explored: list[int] = []
        for v in kept:
            if orbit is not None:
                root = _find(orbit, v)
                if any(_find(orbit, u) == root for u in explored):
                    continue
                explored.append(v)
            pos[v] = i
            sub = best_suffix(used | 1 << v, i + 1)
            cand = ((top,) + sub[0], (v,) + sub[1])
            if orbit is not None and best is not None and cand[0] == best[0]:
                for a, b in zip(best[1], cand[1]):
                    orbit[_find(orbit, a)] = _find(orbit, b)
            if best is None or cand > best:
                best = cand
        return best

    chunks, order = best_suffix(0, 0)
    bits = 0
    nbits = 0
    for i in range(1, n):
        bits = bits << i | chunks[i]
        nbits += i
    pad = -nbits % 8
    packed = (bits << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return n.to_bytes(2, "big") + packed, order


def join_component_keys(n: int, parts: list[bytes]) -> bytes:
    """The key of an n-vertex graph whose components have the connected
    keys in parts: n, the component count, then the parts sorted."""
    parts = sorted(parts)
    return n.to_bytes(2, "big") + len(parts).to_bytes(2, "big") + b"".join(parts)


def canonical_key(g: Graph) -> bytes:
    """Exact isomorphism key: per-component canonical forms, sorted."""
    return join_component_keys(g.n, [
        connected_canonical_form(g.subgraph(vs))[0] for vs in component_vertex_sets(g)
    ])


def canonical_form(g: Graph) -> tuple[bytes, Graph]:
    """(canonical_key(g), a canonically labelled copy of g) from one
    canonical labelling of each component.

    Two isomorphic graphs yield identical labelled copies, so the copy is
    the stable form for serialization.
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
    key = join_component_keys(g.n, [k for k, _ in comps])
    return key, union(*(cg for _, cg in comps))
