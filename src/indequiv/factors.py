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

import itertools
import math
from functools import cache

from .intpoly import (
    ExactDivisionError,
    IntPoly,
    ONE,
    cycle_poly,
    pack,
    poly_exact_div,
    primitive_part,
)


class InternalConsistencyError(AssertionError):
    """An internally-derived exact construction failed; not a user error."""


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def euler_phi(m: int) -> int:
    """Euler's totient, from the distinct prime factors of m."""
    if m < 1:
        raise ValueError(f"totient requires m >= 1, got {m}")
    out = m
    for p in _prime_factors(m):
        out -= out // p
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@cache
def cyclotomic_poly(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, as the product of (x^d - 1)^mu(m/d)
    over the divisors d of m (only squarefree m/d count).

    Multiplying or dividing by x^d - 1 is a linear recurrence on the
    coefficients.  The factors with mu = +1 are multiplied in first, so
    every division is exact; one that is not raises
    InternalConsistencyError.
    """
    if m < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {m}")
    primes = _prime_factors(m)
    ups, downs = [], []
    for k in range(len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            (downs if k % 2 else ups).append(m // math.prod(combo))
    coeffs = [1]
    for d in ups:
        # p * (x^d - 1): out[i] = p[i - d] - p[i]
        out = [-a for a in coeffs] + [0] * d
        for i, a in enumerate(coeffs):
            out[i + d] += a
        coeffs = out
    for d in downs:
        # p / (x^d - 1) = q: q[i] = q[i - d] - p[i], and p's coefficients
        # above q's degree must repeat q's, d places lower
        q = [0] * (len(coeffs) - d)
        for i in range(len(q)):
            q[i] = (q[i - d] if i >= d else 0) - coeffs[i]
        if any(coeffs[i] != (q[i - d] if i >= d else 0)
               for i in range(len(q), len(coeffs))):
            raise InternalConsistencyError(
                f"x^{d} - 1 does not divide the product for Phi_{m}"
            )
        coeffs = q
    return IntPoly(coeffs)


def min_poly_2cos(m: int) -> IntPoly:
    """Monic minimal polynomial of 2 cos(2 pi k / m) over the integers
    (k coprime to m), of degree phi(m)/2, for m >= 3.

    Obtained by the palindromic fold Phi_m(y) = y^d * psi(y + 1/y) with
    d = phi(m)/2.  With z = y + 1/y, Phi_m(y) / y^d is
    a_d + sum over j of a_(d+j) * D_j(z), where D_j(z) = y^j + y^-j obeys
    D_j = z D_(j-1) - D_(j-2) from D_0 = 2 and D_1 = z; Clenshaw's
    recurrence b_j = a_(d+j) + z b_(j+1) - b_(j+2) sums it as
    a_d + z b_1 - 2 b_2, in integers throughout.  A Phi_m that is not
    palindromic of degree 2d, or a psi that is not monic, is an internal
    invariant violation.
    """
    if m < 3:
        raise ValueError(f"min_poly_2cos requires m >= 3, got {m}")
    a = cyclotomic_poly(m).coeffs
    d = euler_phi(m) // 2
    if len(a) != 2 * d + 1 or a != a[::-1]:
        raise InternalConsistencyError(
            f"cyclotomic polynomial {m} is not palindromic of degree 2*{d}"
        )
    # b1, b2: b_(j+1) and b_(j+2), coefficient lists in z
    b1, b2 = [], []
    for j in range(d, 0, -1):
        b = [a[d + j]] + b1
        for i, c in enumerate(b2):
            b[i] -= c
        b1, b2 = b, b1
    out = [a[d]] + b1
    for i, c in enumerate(b2):
        out[i] -= 2 * c
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


@cache
def f_poly_by_division(n: int) -> IntPoly:
    """f_n by exact division of I(C_n, x) by the f_m of proper divisors.

    An inexact division would falsify the factorization of I(C_n, x) and is
    raised as ExactDivisionError rather than patched over.
    """
    _require_odd(n)
    if n == 1:
        return ONE
    poly = cycle_poly(n)
    for m in divisors(n):
        if 3 <= m < n:
            poly = poly_exact_div(poly, f_poly_by_division(m))
    return poly


# Largest n that `factorize_cycle_poly` accepts.  Its time grows with n and
# with the number of divisors; on a 2-core x86-64 machine, `factor` took
# 6.9 s at the prime 9973, 11.7 s at 10001 = 73 * 137, and 62 s at 9945, which
# has 24 divisors, the most of any odd n up to the cap (each about 90 MB).
# The transform route took 32 s at 9945 and 29 s at 10001.
MAX_FACTOR_N = 10001


def factorize_cycle_poly(n: int, route: str = "division") -> dict[int, IntPoly]:
    """Factor I(C_n, x) into {m: f_m for m | n, m >= 3}, verifying the
    product reassembles I(C_n, x) exactly."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"factorization is defined for odd n >= 3, got {n}")
    if n > MAX_FACTOR_N:
        raise ValueError(
            f"factorization supports n <= {MAX_FACTOR_N} (MAX_FACTOR_N), got {n}"
        )
    make = {"division": f_poly_by_division, "transform": f_poly_by_transform}.get(route)
    if make is None:
        raise ValueError(f"unknown route {route!r}")
    factors = {m: make(m) for m in divisors(n) if m >= 3}
    target = cycle_poly(n)
    # no coefficient of nonzero polynomials with nonnegative coefficients,
    # or of their product, exceeds the product of their coefficient sums,
    # so in slots this wide the packing is exact
    bits = max(sum(target.coeffs),
               math.prod(sum(f.coeffs) for f in factors.values())).bit_length()
    if (any(not f or min(f.coeffs) < 0 for f in factors.values())
            or math.prod(pack(f, bits) for f in factors.values())
            != pack(target, bits)):
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
    It is applied before evaluating, so nothing overflows a float: the
    coefficients are divided by max|coeff| exactly, and f(c) / c^deg is
    evaluated by Horner in 1/c where |c| > 1.
    """
    roots = root_values(n)
    if m is not None:
        if m < 1 or n % m != 0:
            raise ValueError(f"{m} is not a positive divisor of {n}")
        roots = [r for r in roots if r[2] == n // m]
    coeff_scale = max(abs(c) for c in f.coeffs)
    scaled = [c / coeff_scale for c in f.coeffs]

    def scaled_residual(c: float) -> float:
        # Horner from the top coefficient in c, or from the bottom one in 1/c
        coeffs, y = (scaled[::-1], c) if abs(c) <= 1.0 else (scaled, 1.0 / c)
        acc = 0.0
        for a in coeffs:
            acc = acc * y + a
        return abs(acc)

    return max((scaled_residual(c) for _, c, _ in roots), default=0.0)


def _require_odd(n: int):
    if n < 1 or n % 2 == 0:
        raise ValueError(f"defined for odd n >= 1, got {n}")
