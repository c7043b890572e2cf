"""Immutable simple graphs on dense 0-based vertex ids, plus the named
graph families used throughout the package (cycles, paths, the tailed
triangle D_n, and the A/B/E one-cycle families).
"""
from __future__ import annotations

from collections.abc import Iterable


class GraphSpecError(ValueError):
    """A graph family was requested with out-of-range parameters."""


class Graph:
    """A simple undirected graph: vertex count plus a set of edges.

    Vertices are 0..n_vertices-1.  Edges are stored as sorted tuples.
    Instances are immutable values; all operations return new graphs.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            es.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(es))
        adj = [0] * n
        for u, v in es:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhood bitmasks, one int per vertex."""
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def __eq__(self, other) -> bool:
        """Labelled equality; use canonical keys for isomorphism."""
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges)!r})"

    def relabel(self, perm: list[int]) -> Graph:
        """Apply vertex relabelling: new id of old vertex v is perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex ids")
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def subgraph(self, keep: list[int]) -> Graph:
        """Induced subgraph on `keep`, re-indexed densely in the order given."""
        index = {v: i for i, v in enumerate(keep)}
        edges = (
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        )
        return Graph(len(keep), edges)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def union(*graphs: Graph) -> Graph:
    """Disjoint union, components re-indexed in argument order."""
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


def component_masks(mask: int, adj: tuple[int, ...]) -> list[int]:
    """Connected components of the subgraph induced by mask, as masks."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def component_vertex_sets(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, in order of
    smallest vertex."""
    return [_bits(c) for c in component_masks((1 << g.n) - 1, g._adj)]


def is_unicyclic(g: Graph) -> bool:
    """Connected with exactly one cycle, i.e. connected and |E| = |V|."""
    return g.n > 0 and g.n_edges == g.n and len(component_vertex_sets(g)) == 1


def degree_histogram(g: Graph) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


# --- graph families -------------------------------------------------------

def _cycle_with_arms(c: int, arms: list[tuple[int, int]]) -> Graph:
    """C_c on vertices 0..c-1 with, for each (anchor, length) in arms, a path
    of `length` vertices hung from anchor.  Each path takes the labels right
    after the vertices placed before it, so an anchor may lie on an earlier
    path."""
    edges = [(i, (i + 1) % c) for i in range(c)]
    n = c
    for anchor, length in arms:
        edges += zip([anchor, *range(n, n + length - 1)], range(n, n + length))
        n += length
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphSpecError(f"cycle requires n >= 3, got {n}")
    return _cycle_with_arms(n, [])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphSpecError(f"path requires n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def d_graph(n: int) -> Graph:
    """D_n: a triangle with a pendant path, n vertices total.

    Vertices 0,1,2 form the triangle; 2-3-...-(n-1) is the tail.
    """
    if n < 4:
        raise GraphSpecError(f"D_n requires n >= 4 (the tail must exist), got {n}")
    return _cycle_with_arms(3, [(2, n - 3)])


def a_graph(m1: int, m2: int) -> Graph:
    """A_{m1,m2}: a triangle with pendant paths of m1 and m2 vertices attached
    to two distinct triangle vertices.  m1 + m2 + 3 vertices.

    Vertex 0 is the plain triangle vertex; 1 and 2 carry the arms.
    """
    if m1 < 1 or m2 < 1:
        raise GraphSpecError(f"A requires m1, m2 >= 1, got ({m1},{m2})")
    return _cycle_with_arms(3, [(1, m1), (2, m2)])


def b_graph(m1: int, m2: int, m3: int) -> Graph:
    """B_{m1,m2,m3}: a triangle joined by a path of m1 vertices to a fork
    vertex carrying pendant paths of m2 and m3 vertices.
    m1 + m2 + m3 + 4 vertices; m1 = 0 puts the fork adjacent to the triangle.

    The stem 3..2+m1 and the fork 3 + m1 hang from vertex 2 as one path.
    """
    if m1 < 0 or m2 < 1 or m3 < 1:
        raise GraphSpecError(
            f"B requires m1 >= 0 and m2, m3 >= 1, got ({m1},{m2},{m3})"
        )
    return _cycle_with_arms(3, [(2, m1 + 1), (3 + m1, m2), (3 + m1, m3)])


def e_graph(m1: int, m2: int) -> Graph:
    """E_{m1,m2}: the cycle C_{m1+3} with a pendant path of m2 vertices.
    m1 + m2 + 3 vertices; the tail runs from vertex 0."""
    if m1 < 1 or m2 < 1:
        raise GraphSpecError(f"E requires m1, m2 >= 1, got ({m1},{m2})")
    return _cycle_with_arms(m1 + 3, [(0, m2)])


def star_k13() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def k4_minus_e() -> Graph:
    """K_4 minus one edge (two triangles sharing a chord)."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


#: The six-vertex members of the n = 9 classification and the seven-vertex
#: members of the n = 15 one, as drawn: each is a small one-cycle graph.
NAMED_GRAPHS = {
    "Ga": lambda: a_graph(1, 2),
    "Gb": lambda: e_graph(1, 2),
    "Gc": lambda: e_graph(2, 1),
    "Gd": lambda: b_graph(0, 1, 1),
    "Ga'": lambda: a_graph(1, 3),
    "Gb'": lambda: e_graph(1, 3),
    "Gc'": lambda: e_graph(3, 1),
}


def named_graph(name: str) -> Graph:
    try:
        return NAMED_GRAPHS[name]()
    except KeyError:
        raise GraphSpecError(
            f"unknown named graph {name!r}; known: {sorted(NAMED_GRAPHS)}"
        ) from None
