"""Counts of the small subgraphs entering the size-4 independent-set
identity: 2-matchings, P3 ∪ K1, C3 ∪ K1, P4, K_{1,3}, the tailed triangle
D4, 4-cycles, and triangles.

Counts are of subgraphs (not necessarily induced) and are obtained by
direct enumeration over vertex and edge tuples, so they can serve as an
oracle for closed-form tables.
"""
from __future__ import annotations

from itertools import combinations

from .graphs import Graph


def subgraph_census(g: Graph) -> dict[str, int]:
    """The eight subgraph counts of g, by name."""
    n = g.n
    adj = g.adjacency_masks()
    edges = sorted(g.edges)

    e2 = 0
    for i, (u, v) in enumerate(edges):
        for x, y in edges[i + 1:]:
            if x != u and x != v and y != u and y != v:
                e2 += 1

    p3 = 0
    k13 = 0
    for v in range(n):
        d = adj[v].bit_count()
        nb = g.neighbors(v)
        p3 += sum(1 for _ in combinations(nb, 2))
        if d >= 3:
            k13 += sum(1 for _ in combinations(nb, 3))

    triangles = 0
    tri_list = []
    for u, v in edges:
        common = adj[u] & adj[v]
        while common:
            low = common & -common
            w = low.bit_length() - 1
            common ^= low
            if w > v:
                triangles += 1
                tri_list.append((u, v, w))

    p4 = 0
    for u, v in edges:
        for b, c in ((u, v), (v, u)):
            for a in g.neighbors(b):
                if a == c:
                    continue
                ends = adj[c] & ~(1 << b) & ~(1 << a)
                p4 += ends.bit_count()
    p4 //= 2

    d4 = 0
    for a, b, c in tri_list:
        tri_mask = (1 << a) | (1 << b) | (1 << c)
        for x in (a, b, c):
            d4 += (adj[x] & ~tri_mask).bit_count()

    c4 = 0
    for u, v in combinations(range(n), 2):
        k = (adj[u] & adj[v] & ~(1 << u) & ~(1 << v)).bit_count()
        c4 += k * (k - 1) // 2
    c4 //= 2

    return {
        "e2": e2,                       # 2P_2: matchings of size 2
        "p3_k1": p3 * (n - 3),          # P_3 plus an untouched vertex
        "c3_k1": triangles * (n - 3),   # C_3 plus an untouched vertex
        "p4": p4,                       # paths on 4 vertices
        "k13": k13,                     # claws
        "d4": d4,                       # triangle with a pendant edge
        "c4": c4,                       # 4-cycles
        "triangles": triangles,         # C_3
    }
