"""Irreducible factors of cycle independence polynomials.

For odd n, I(C_n, x) factors over the integers as the product of the
polynomials f_m over the divisors m of n, where f_m is the minimal
polynomial of the roots

    c_i = -1 / (2 + 2 cos((2i - 1) pi / n))        gcd(2i - 1, n) = 1.

Two independent routes construct f_n:

* the transform route builds the minimal polynomial of 2 cos(pi k / n)
  from a cyclotomic polynomial by a palindromic fold, translates it by -2
  and reverses it with alternating signs;
* the division route divides I(C_n, x) (from the closed-form coefficients)
  by the f_m of the proper divisors, exactly.

They share no code beyond integer polynomial arithmetic, so their
agreement is a meaningful cross-check, enforced by the test suite.
"""
from __future__ import annotations

import math

from .intpoly import (
    ExactDivisionError,
    IntPoly,
    ONE,
    cycle_poly,
    eval_float,
    poly_exact_div,
    primitive_part,
)


class InternalConsistencyError(AssertionError):
    """An internally-derived exact construction failed; not a user error."""


def euler_phi(m: int) -> int:
    """Euler's totient by trial-division factorization."""
    if m < 1:
        raise ValueError(f"totient requires m >= 1, got {m}")
    out = m
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out -= out // rest
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


_cyclotomic_memo: dict[int, IntPoly] = {}


def cyclotomic_poly(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {m}")
    hit = _cyclotomic_memo.get(m)
    if hit is not None:
        return hit
    poly = IntPoly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            poly = poly_exact_div(poly, cyclotomic_poly(d))
    _cyclotomic_memo[m] = poly
    return poly


def min_poly_2cos(m: int) -> IntPoly:
    """Monic minimal polynomial of 2 cos(2 pi k / m) over the integers
    (k coprime to m), of degree phi(m)/2, for m >= 3.

    Obtained by the palindromic fold: writing Phi_m(y) = y^d * psi(y + 1/y)
    with d = phi(m)/2 and solving for psi's coefficients from the top degree
    down by exact integer elimination.  Any inexact step is an internal
    invariant violation, never rounded.
    """
    if m < 3:
        raise ValueError(f"min_poly_2cos requires m >= 3, got {m}")
    phi = cyclotomic_poly(m)
    d = euler_phi(m) // 2
    if phi.degree != 2 * d:
        raise InternalConsistencyError(
            f"cyclotomic degree {phi.degree} is not 2*{d} at m={m}"
        )
    rem = list(phi.coeffs)
    out = [0] * (d + 1)
    for j in range(d, -1, -1):
        c = rem[d + j]
        out[j] = c
        if c:
            # subtract c * y^(d-j) * (y^2 + 1)^j  ==  c * y^d * (y + 1/y)^j
            for i in range(j + 1):
                rem[d + j - 2 * i] -= c * math.comb(j, i)
    if any(rem):
        raise InternalConsistencyError(
            f"palindromic fold of cyclotomic polynomial {m} left a remainder"
        )
    psi = IntPoly(out)
    if psi.coeffs[-1] != 1:
        raise InternalConsistencyError(f"fold of Phi_{m} is not monic")
    return psi


def f_poly_by_transform(n: int) -> IntPoly:
    """f_n via the minimal polynomial of 2 cos(pi k / n), translated by -2
    and reversed with alternating signs."""
    _require_odd(n)
    if n == 1:
        return ONE
    g = min_poly_2cos(2 * n)
    d = g.degree
    h = _compose_x_minus_2(g)
    f = IntPoly((-1) ** k * h[d - k] for k in range(d + 1))
    content, prim = primitive_part(f)
    if content != 1 or prim[0] != 1:
        raise InternalConsistencyError(
            f"transform-route f_{n} is not primitive with constant term 1"
        )
    return prim


def _compose_x_minus_2(g: IntPoly) -> IntPoly:
    """g(x - 2), by Horner over the coefficient sequence."""
    shift = IntPoly([-2, 1])
    acc = IntPoly()
    for c in reversed(g.coeffs):
        acc = acc * shift + IntPoly([c])
    return acc


_f_division_memo: dict[int, IntPoly] = {}


def f_poly_by_division(n: int) -> IntPoly:
    """f_n by exact division of I(C_n, x) by the f_m of proper divisors.

    An inexact division would falsify the factorization of I(C_n, x) and is
    raised as ExactDivisionError rather than patched over.
    """
    _require_odd(n)
    if n == 1:
        return ONE
    hit = _f_division_memo.get(n)
    if hit is not None:
        return hit
    poly = cycle_poly(n)
    for m in divisors(n):
        if 3 <= m < n:
            poly = poly_exact_div(poly, f_poly_by_division(m))
    _f_division_memo[n] = poly
    return poly


def factorize_cycle_poly(n: int, route: str = "division") -> dict[int, IntPoly]:
    """Factor I(C_n, x) into {m: f_m for m | n, m >= 3}, verifying the
    product reassembles I(C_n, x) exactly."""
    _require_odd(n)
    if n < 3:
        raise ValueError(f"factorization is defined for odd n >= 3, got {n}")
    make = {"division": f_poly_by_division, "transform": f_poly_by_transform}.get(route)
    if make is None:
        raise ValueError(f"unknown route {route!r}")
    factors = {m: make(m) for m in divisors(n) if m >= 3}
    product = ONE
    for f in factors.values():
        product = product * f
    if product != cycle_poly(n):
        raise ExactDivisionError(
            f"factor product does not reassemble the cycle polynomial at n={n}"
        )
    for m, f in factors.items():
        if f[0] != 1 or f.coeffs[-1] <= 0:
            raise InternalConsistencyError(f"f_{m} is not normalized")
        if f.degree != euler_phi(m) // 2:
            raise InternalConsistencyError(
                f"deg f_{m} = {f.degree} != phi({m})/2 = {euler_phi(m) // 2}"
            )
    return factors


def root_values(n: int) -> list[tuple[int, float, int]]:
    """The closed-form roots of I(C_n, x), as (i, c_i, gcd(2i - 1, n))."""
    _require_odd(n)
    return [
        (i, -1.0 / (2.0 + 2.0 * math.cos((2 * i - 1) * math.pi / n)),
         math.gcd(2 * i - 1, n))
        for i in range(1, n // 2 + 1)
    ]


#: A relative residual below this marks a closed-form value as a root.
ROOT_TOLERANCE = 1e-9


def root_residual(f: IntPoly, n: int, m: int | None = None) -> float:
    """The largest relative residual of f at the closed-form roots of
    I(C_n, x): at the roots of f_m (gcd(2i - 1, n) = n / m) for a divisor m
    of n, or at every root when m is None.

    The residual scale is max|coeff| * max(1, |c_i|)^deg, so the
    large-magnitude root near the cos = -1 end does not drown the check.
    """
    roots = root_values(n)
    if m is not None:
        if m < 1 or n % m != 0:
            raise ValueError(f"{m} is not a positive divisor of {n}")
        roots = [r for r in roots if r[2] == n // m]
    coeff_scale = max(abs(c) for c in f.coeffs)
    return max(
        (
            abs(eval_float(f, c)) / (coeff_scale * max(1.0, abs(c)) ** max(f.degree, 0))
            for _, c, _ in roots
        ),
        default=0.0,
    )


def _require_odd(n: int):
    if n < 1 or n % 2 == 0:
        raise ValueError(f"defined for odd n >= 1, got {n}")
