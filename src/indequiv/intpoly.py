"""Dense integer polynomials with exact arithmetic.

A polynomial is a tuple of arbitrary-precision integer coefficients,
lowest degree first, with trailing zeros stripped.  The zero polynomial
is the empty tuple and has degree -1.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact is not.

    This is a meaningful signal (a falsified divisibility claim), so it is
    detected per step rather than rounded away.
    """


class IntPoly:
    """An immutable polynomial over the integers.

    >>> IntPoly([1, 3]) * IntPoly([1, 6, 9, 3])
    IntPoly([1, 9, 27, 30, 9])
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        """Coefficient of x^k, 0 outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        return IntPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                x = "x" if k == 1 else f"x^{k}"
                term = x if mag == 1 else f"{mag}{x}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ONE = IntPoly([1])
X = IntPoly([0, 1])


def pack(p: IntPoly, bits: int) -> int:
    """p(2^bits): the coefficients of p in consecutive `bits`-wide slots of
    one int, lowest degree in the lowest slot (Kronecker substitution).

    Sums, products and shifts (`<< bits` is x·p) of packed values equal the
    packed sums, products and shifts of the polynomials, exactly, as long as
    every coefficient of every operand and result lies in [0, 2^bits).  The
    coefficients of an independence polynomial on at most n vertices, or of
    a product of such polynomials on n vertices in all, count subsets of
    those n vertices, so they lie in [0, 2^n]: slots of n + 1 bits are exact
    for every such intermediate.  Outside that range a carry crosses a slot
    boundary silently, so pack refuses a coefficient that does not fit.
    """
    for c in p.coeffs:
        if c < 0 or c >> bits:
            raise ValueError(f"coefficient {c} does not fit a {bits}-bit slot")
    # one binary numeral, top slot first, which int() reads in linear time
    return int("".join(format(c, f"0{bits}b") for c in reversed(p.coeffs))
               or "0", 2)


def unpack(v: int, bits: int) -> IntPoly:
    """The polynomial whose coefficients fill the `bits`-wide slots of v;
    the inverse of pack, under the same bound."""
    if v < 0 or bits < 1:
        raise ValueError(f"cannot unpack {v} from {bits}-bit slots")
    mask = (1 << bits) - 1
    coeffs = []
    while v:
        coeffs.append(v & mask)
        v >>= bits
    return IntPoly(coeffs)


def poly_exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    """Divide p by q, requiring the quotient to be exact over the integers.

    Synthetic long division with a per-step integrality check; a non-integer
    step or nonzero remainder raises ExactDivisionError.  Failure is a
    falsified divisibility claim, never a rounding event.
    """
    if not q:
        raise ExactDivisionError("division by the zero polynomial")
    if not p:
        return p
    if p.degree < q.degree:
        raise ExactDivisionError(
            f"degree {p.degree} polynomial is not divisible by degree {q.degree}"
        )
    rem = list(p.coeffs)
    dq = q.degree
    lead = q.coeffs[-1]
    quot = [0] * (p.degree - dq + 1)
    for k in range(p.degree - dq, -1, -1):
        top = rem[k + dq]
        c, r = divmod(top, lead)
        if r != 0:
            raise ExactDivisionError(
                f"leading coefficient {lead} does not divide {top} at step {k}"
            )
        quot[k] = c
        if c:
            for i, b in enumerate(q.coeffs):
                rem[k + i] -= c * b
    if any(rem):
        raise ExactDivisionError("nonzero remainder")
    return IntPoly(quot)


def primitive_part(p: IntPoly) -> tuple[int, IntPoly]:
    """Split p into (content, primitive part).

    The content is the gcd of the coefficients, carrying the sign of the
    leading coefficient, so the primitive part has coefficient gcd 1 and a
    positive leading coefficient.
    """
    if not p:
        raise ValueError("the zero polynomial has no primitive part")
    g = 0
    for c in p.coeffs:
        g = math.gcd(g, c)
    if p.coeffs[-1] < 0:
        g = -g
    return g, IntPoly(c // g for c in p.coeffs)


def cycle_coeff(n: int, k: int) -> int:
    """Number of independent k-subsets of the cycle C_n: (n/k)*C(n-k-1, k-1).

    Exact integer arithmetic; 0 outside the valid range, 1 at k = 0.
    """
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    if k == 0:
        return 1
    if k < 0 or 2 * k > n:
        return 0
    num = n * math.comb(n - k - 1, k - 1)
    val, rem = divmod(num, k)
    if rem:
        raise AssertionError(f"non-integer cycle coefficient at n={n}, k={k}")
    return val


@functools.cache
def cycle_poly(n: int) -> IntPoly:
    """Independence polynomial of the cycle C_n from the closed form, built
    once per n (`factor n` asks for it three times)."""
    return IntPoly(cycle_coeff(n, k) for k in range(n // 2 + 1))
