"""Re-derivation ledger: recompute every published value this package is
built around and report pass/fail per claim.

Each entry pins an expected value (coefficient vectors of the worked
factorizations, class sizes and member lists of the classification, the
route agreement and equivalences) and recomputes it from scratch through
the public machinery.  A failing entry means the implementation and the
published classification disagree, which the CLI signals with a dedicated
exit code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canon import canonical_key
from .classes import exhaustive_class_search, structured_class_search
from .factors import f_poly_by_division, f_poly_by_transform
from .graphs import cycle, d_graph, named_graph, k4_minus_e, path, union

from .indpoly import PolyCache, indpoly
from .intpoly import cycle_poly


@dataclass(frozen=True)
class LedgerEntry:
    claim_id: str
    claim: str
    expected: str
    computed: str
    status: str  # "pass" | "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _entry(claim_id: str, claim: str, expected, computed) -> LedgerEntry:
    exp, got = str(expected), str(computed)
    return LedgerEntry(
        claim_id=claim_id,
        claim=claim,
        expected=exp,
        computed=got,
        status="pass" if exp == got else "fail",
    )


_COEFF_CLAIMS = (
    ("f3-coeffs", "f_3 = 1 + 3x", 3, (1, 3)),
    ("f5-coeffs", "f_5 = 1 + 5x + 5x^2", 5, (1, 5, 5)),
    ("f9-coeffs", "f_9 = 1 + 6x + 9x^2 + 3x^3", 9, (1, 6, 9, 3)),
    ("f15-coeffs", "f_15 = 1 + 7x + 14x^2 + 8x^3 + x^4", 15, (1, 7, 14, 8, 1)),
)

_CYCLE_CLAIMS = (
    ("c9-coeffs", "I(C_9) = (1, 9, 27, 30, 9)", 9, (1, 9, 27, 30, 9)),
    (
        "c15-coeffs",
        "I(C_15) = (1, 15, 90, 275, 450, 378, 140, 15)",
        15,
        (1, 15, 90, 275, 450, 378, 140, 15),
    ),
)

_NAMED_CLAIMS = (
    ("ga-poly", "Ga", 9),
    ("gb-poly", "Gb", 9),
    ("gc-poly", "Gc", 9),
    ("gd-poly", "Gd", 9),
    ("ga-prime-poly", "Ga'", 15),
    ("gb-prime-poly", "Gb'", 15),
    ("gc-prime-poly", "Gc'", 15),
)

_CLASS_SIZES = {3: 1, 9: 6, 15: 8}


def run_ledger(max_n: int = 45,
               cache: Optional[PolyCache] = None) -> list[LedgerEntry]:
    """Recompute the pinned values; max_n bounds the class-list sweep."""
    if max_n < 15:
        raise ValueError("max_n must be at least 15 to cover the known classes")
    if cache is None:
        cache = PolyCache()
    entries: list[LedgerEntry] = []

    for claim_id, claim, m, coeffs in _COEFF_CLAIMS:
        entries.append(
            _entry(claim_id, claim, coeffs, f_poly_by_division(m).coeffs)
        )
    for claim_id, claim, m, coeffs in _CYCLE_CLAIMS:
        entries.append(
            _entry(claim_id, claim, coeffs, indpoly(cycle(m), cache).coeffs)
        )
    for claim_id, name, m in _NAMED_CLAIMS:
        expected = f_poly_by_division(m)
        entries.append(
            _entry(
                claim_id,
                f"I({name}) equals the degree-{expected.degree} factor of I(C_{m})",
                expected.coeffs,
                indpoly(named_graph(name), cache).coeffs,
            )
        )

    for n in range(3, max_n + 1, 2):
        report = structured_class_search(n, cache)
        if n in _CLASS_SIZES:
            entries.append(
                _entry(
                    f"class-{n}-count",
                    f"the class of C_{n} has {_CLASS_SIZES[n]} members",
                    _CLASS_SIZES[n],
                    len(report.members),
                )
            )
        else:
            expected_keys = sorted(
                canonical_key(g).hex() for g in (cycle(n), d_graph(n))
            )
            got_keys = sorted(m.key.hex() for m in report.members)
            entries.append(
                _entry(
                    f"class-{n}-members",
                    f"the class of C_{n} is exactly {{C_{n}, D_{n}}}",
                    expected_keys,
                    got_keys,
                )
            )

    report6 = exhaustive_class_search(6, "all_graphs", cache)
    expected6 = sorted(
        canonical_key(g).hex()
        for g in (cycle(6), d_graph(6), union(k4_minus_e(), path(2)))
    )
    entries.append(
        _entry(
            "class-6-members",
            "the class of C_6 is {C_6, D_6, (K_4 - e) + K_2}",
            expected6,
            sorted(m.key.hex() for m in report6.members),
        )
    )

    bad = [
        n for n in range(4, 61) if indpoly(d_graph(n), cache) != cycle_poly(n)
    ]
    entries.append(
        _entry(
            "cycle-tail-equivalence",
            "I(C_n) = I(D_n) for all 4 <= n <= 60",
            [],
            bad,
        )
    )

    disagree = [
        n
        for n in range(3, 100, 2)
        if f_poly_by_transform(n) != f_poly_by_division(n)
    ]
    entries.append(
        _entry(
            "factor-route-agreement",
            "transform and division routes agree for odd 3 <= n <= 99",
            [],
            disagree,
        )
    )
    return entries
