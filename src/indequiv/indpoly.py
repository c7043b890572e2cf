"""Exact independence polynomials.

Two routes are provided on purpose: a subset-enumeration brute force (the
oracle) and a vertex-deletion recursion (the fast path).  The recursion uses

    I(G, x) = I(G - u, x) + x * I(G - N[u], x)

over vertex bitmasks of the input graph.  Each mask is split into connected
components by bitmask search (`graphs.component_masks`), a component pivots
on a maximum-degree vertex (ties broken by the smallest label), and
component polynomials are memoised by their labelled vertex mask for the
duration of one top-level call.  The memo holds each polynomial packed into
one int (`intpoly.pack`, one (n+1)-bit slot per coefficient for an n-vertex
input), so a product is one integer product and x·I a shift; the result is
unpacked once, on return.  No graphs are built and no canonical labelling
is involved.  The recursion runs on an explicit stack, so a deep component
cannot exhaust Python's recursion limit.

A component whose in-mask degrees are all at most 2 is a path or a cycle,
and it is finished at once instead of being split further.  Its polynomial
is run up from I(P_0) and I(P_1), keeping only the last two terms, by the
same identity applied at an end vertex, I(P_j) = I(P_{j-1}) + x·I(P_{j-2}),
and a k-cycle is I(P_{k-1}) + x·I(P_{k-3}) by deleting one of its vertices.
A chain of k vertices thus costs k packed additions and holds two packed
polynomials, whatever else the call has computed.  The binomial
closed forms, `intpoly.cycle_poly` and `path_poly` in `tests/conftest.py`,
are not used, so they stay an independent check of this module.
"""
from __future__ import annotations

from typing import Optional

from .graphs import Graph, component_masks
from .intpoly import IntPoly, unpack

#: Largest graph the brute force accepts: its DP table has 2^n entries.
BRUTE_FORCE_MAX_VERTICES = 22


def indpoly_bruteforce(g: Graph) -> IntPoly:
    """I(G, x) by enumerating all 2^|V| vertex subsets as bitmasks."""
    n = g.n
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"brute force refuses graphs with more than "
            f"{BRUTE_FORCE_MAX_VERTICES} vertices (got {n})"
        )
    adj = g.adjacency_masks()
    coeffs = [0] * (n + 1)
    # DP over masks: a set is independent iff dropping its lowest vertex
    # leaves an independent set with no neighbor of that vertex.
    indep = bytearray(1 << n)
    indep[0] = 1
    coeffs[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        if indep[mask ^ low] and not adj[v] & mask:
            indep[mask] = 1
            coeffs[mask.bit_count()] += 1
    return IntPoly(coeffs)


class PolyCache:
    """Memo statistics of `indpoly`, added up over the calls it is passed to.

    Each `indpoly` call keeps its own component memo and drops it on return;
    nothing is shared between calls or stored on disk.  `misses` counts the
    components (of two or more vertices) a call computed, each of which
    became a memo entry, and `hits` the times such a component was needed
    again within the same call.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def indpoly(g: Graph, cache: Optional[PolyCache] = None) -> IntPoly:
    """Exact I(G, x) via component splitting and memoized deletion recursion."""
    bits = g.n + 1
    k1 = 1 << bits | 1  # I(K_1, x), packed
    adj = g.adjacency_masks()
    parts = component_masks((1 << g.n) - 1, adj)
    memo: dict[int, int] = {}
    # component -> its pivot's (G - v, G - N[v]) components, while those
    # are still being computed further up the stack
    pending: dict[int, tuple[list[int], list[int]]] = {}
    hits = 0
    stack = [c for c in parts if c & (c - 1)]
    while stack:
        comp = stack[-1]
        if comp in memo:
            stack.pop()
            hits += 1
            continue
        split = pending.pop(comp, None)
        if split is None:
            v, top, total = _pivot(comp, adj)
            if top <= 2:
                # a path or, when every degree is 2, a cycle
                stack.pop()
                k = comp.bit_count()
                a, b = 1, k1  # I(P_0), I(P_1), run up to I(P_{k-2}), I(P_{k-1})
                for _ in range(k - 2):
                    a, b = b, b + (a << bits)
                # I(C_k) = I(P_{k-1}) + x·I(P_{k-3}) = 2·I(P_{k-1}) - I(P_{k-2}).
                # A packed int is its polynomial at x = 2^bits, so 2b - a is
                # I(C_k) packed, with no borrow between slots: I(P_{k-2}) <=
                # I(P_{k-1}) coefficientwise, and every coefficient is below
                # 2^k < 2^bits.
                memo[comp] = 2 * b - a if total == 2 * k else b + (a << bits)
                continue
            bit = 1 << v
            split = (
                component_masks(comp ^ bit, adj),
                component_masks(comp & ~(adj[v] | bit), adj),
            )
            pending[comp] = split
            stack.extend(c for side in split for c in side if c & (c - 1))
        else:
            stack.pop()
            without, closed = split
            memo[comp] = (_product(without, memo, k1)
                          + (_product(closed, memo, k1) << bits))
    if cache is not None:
        cache.hits += hits
        cache.misses += len(memo)
    return unpack(_product(parts, memo, k1), bits)


def _pivot(comp: int, adj: tuple[int, ...]) -> tuple[int, int, int]:
    """A vertex of maximum degree within comp (the smallest such label),
    that degree, and the sum of all degrees within comp.

    A connected comp of maximum degree at most 2 is a chain: a path, or a
    cycle when the degree sum is twice its size.  `indpoly` finishes chains
    by the deletion identity at an end vertex, so it asks for no pivot on
    them; the binomial closed forms (`intpoly.cycle_poly`, and `path_poly`
    in `tests/conftest.py`) stay an independent check.
    """
    best = -1
    pivot = 0
    total = 0
    rest = comp
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        d = (adj[v] & comp).bit_count()
        total += d
        if d > best:
            best, pivot = d, v
        rest ^= low
    return pivot, best, total


def _product(comps: list[int], memo: dict[int, int], k1: int) -> int:
    """Packed product of the component polynomials (k1 for a lone vertex)."""
    out = 1
    for c in comps:
        out *= memo[c] if c & (c - 1) else k1
    return out
