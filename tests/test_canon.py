"""The pruned canonical search against the plain branch search it replaced.

`reference_canonical_form` is the search without first-level orbit pruning:
it explores every root candidate.  Orbit pruning may only change which of
several equal-chunk orderings is returned, so the key bytes and the
canonically labelled graph must match exactly on every graph, and most of
all on symmetric ones, where the pruning skips roots.
"""
from __future__ import annotations

import random

import pytest

from indequiv import canon
from indequiv.canon import canonical_form, canonical_key, connected_canonical_form
from indequiv.graph6 import emit_graph6
from indequiv.graphs import Graph, component_vertex_sets, cycle, d_graph, path

from conftest import random_graph


def reference_canonical_form(g: Graph) -> tuple[bytes, tuple[int, ...]]:
    """(key bytes, ordering) by the unpruned search: every root candidate
    is explored, and no node budget applies."""
    n = g.n
    if n == 0:
        return n.to_bytes(2, "big"), ()
    adj = g.adjacency_masks()
    degs = [m.bit_count() for m in adj]
    target = sorted(degs, reverse=True)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degs[v], []).append(v)
    pos = [0] * n

    def best_suffix(used: int, i: int):
        if i == n:
            return (), ()
        cands = []
        top = -1
        for v in by_degree[target[i]]:
            if used >> v & 1:
                continue
            chunk = 0
            hits = adj[v] & used
            while hits:
                low = hits & -hits
                chunk |= 1 << (i - 1 - pos[low.bit_length() - 1])
                hits ^= low
            if chunk > top:
                top = chunk
                cands = [v]
            elif chunk == top:
                cands.append(v)
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
            pos[v] = i
            sub = best_suffix(used | 1 << v, i + 1)
            cand = ((top,) + sub[0], (v,) + sub[1])
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


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def _hypercube(d: int) -> Graph:
    return Graph(1 << d, [(v, v ^ 1 << k) for v in range(1 << d) for k in range(d)
                          if v < v ^ 1 << k])


def _complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _symmetric_corpus(max_n: int) -> list[Graph]:
    """Connected graphs with large automorphism groups, plus asymmetric ones."""
    graphs = [cycle(n) for n in range(3, max_n + 1)]
    graphs += [d_graph(n) for n in range(4, max_n + 1)]
    graphs += [path(n) for n in range(1, max_n + 1)]
    graphs += [_circulant(n, (1, k)) for n in range(5, min(max_n, 20) + 1)
               for k in range(2, n // 2)]
    graphs += [_complete_bipartite(a, b) for a in range(1, 7) for b in range(a, 7)]
    graphs += [_hypercube(d) for d in range(1, 6) if 1 << d <= max_n]
    graphs += [_complete(n) for n in range(1, 9)]
    graphs.append(Graph(10, [(v, (v + 1) % 5) for v in range(5)]
                        + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
                        + [(v, 5 + v) for v in range(5)]))  # Petersen
    rng = random.Random(20141)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(4, 13), rng.choice((0.25, 0.4, 0.6)))
        if len(component_vertex_sets(g)) == 1:
            graphs.append(g)
    return graphs


def _check_against_reference(graphs: list[Graph], relabellings: int, seed: int) -> None:
    rng = random.Random(seed)
    for g in graphs:
        ref_key, ref_order = reference_canonical_form(g)
        inverse = [0] * g.n
        for p, v in enumerate(ref_order):
            inverse[v] = p
        ref_graph6 = emit_graph6(g.relabel(inverse))
        copies = [g]
        for _ in range(relabellings):
            perm = list(range(g.n))
            rng.shuffle(perm)
            copies.append(g.relabel(perm))
        for h in copies:
            assert connected_canonical_form(h)[0] == ref_key, emit_graph6(g)
            assert emit_graph6(canonical_form(h)[1]) == ref_graph6, emit_graph6(g)


def test_orbit_pruning_matches_the_unpruned_search():
    _check_against_reference(_symmetric_corpus(16), relabellings=1, seed=8)


@pytest.mark.slow
def test_orbit_pruning_matches_the_unpruned_search_up_to_64():
    _check_against_reference(_symmetric_corpus(64), relabellings=1, seed=64)


def test_long_cycle_fits_a_linear_node_budget(monkeypatch):
    # the unpruned search explores every root of C_n, about 2n^2 nodes
    monkeypatch.setattr(canon, "_NODE_BUDGET", 8 * 63)
    perm = list(range(63))
    random.Random(63).shuffle(perm)
    assert canonical_key(cycle(63)) == canonical_key(cycle(63).relabel(perm))
