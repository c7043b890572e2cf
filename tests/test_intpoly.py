import pytest
from hypothesis import given, strategies as st

from indequiv.intpoly import (
    ExactDivisionError,
    IntPoly,
    ONE,
    X,
    cycle_coeff,
    cycle_poly,
    pack,
    poly_exact_div,
    primitive_part,
    unpack,
)
from indequiv.graphs import cycle, path

from conftest import (
    eval_float,
    is_unicyclic_poly,
    naive_independent_counts,
    path_coeff,
    path_poly,
)

C9 = IntPoly([1, 9, 27, 30, 9])
C15 = IntPoly([1, 15, 90, 275, 450, 378, 140, 15])
F3 = IntPoly([1, 3])
F5 = IntPoly([1, 5, 5])
F9 = IntPoly([1, 6, 9, 3])
F15 = IntPoly([1, 7, 14, 8, 1])

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def test_worked_products():
    assert F3 * F9 == C9
    assert F5 * F3 * F15 == C15
    p = IntPoly([2, 0, -7, 1])
    assert p * ONE == p


def test_exact_division_examples():
    assert poly_exact_div(C9, F3) == F9
    assert poly_exact_div(F9, F9) == ONE
    # dividing out I(C_5) from I(C_15) leaves the other two factors
    assert poly_exact_div(C15, F5) == F3 * F15


def test_exact_division_failures():
    with pytest.raises(ExactDivisionError):
        poly_exact_div(C9, IntPoly([1, 1]))
    with pytest.raises(ExactDivisionError):
        poly_exact_div(C9, IntPoly())
    with pytest.raises(ExactDivisionError):
        poly_exact_div(IntPoly([1, 1]), IntPoly([2, 2, 2]))


def test_primitive_part():
    assert primitive_part(IntPoly([2, 6])) == (2, IntPoly([1, 3]))
    assert primitive_part(IntPoly([-1, -3])) == (-1, IntPoly([1, 3]))
    assert primitive_part(F9) == (1, F9)
    with pytest.raises(ValueError):
        primitive_part(IntPoly())


def test_unicyclic_polynomials():
    assert is_unicyclic_poly(C9)           # 27 == C(9,2) - 9
    assert not is_unicyclic_poly(IntPoly([1, 1]))
    assert is_unicyclic_poly(F9)           # 9 == C(6,2) - 6
    assert not is_unicyclic_poly(IntPoly([2, 3]))
    assert not is_unicyclic_poly(IntPoly([1, 4, -2]))


def test_cycle_coeff_examples():
    assert cycle_coeff(9, 4) == 9
    assert cycle_coeff(9, 3) == (9**3 - 9) // 24 == 30
    assert path_coeff(3, 2) == 1
    assert cycle_coeff(9, 0) == 1
    assert cycle_coeff(9, 5) == 0


@pytest.mark.parametrize("n", range(3, 17))
def test_cycle_and_path_coeffs_against_enumeration(n):
    want_c = naive_independent_counts(cycle(n))
    got_c = [cycle_coeff(n, k) for k in range(len(want_c))]
    assert got_c == want_c
    assert cycle_poly(n).coeffs == tuple(want_c)
    want_p = naive_independent_counts(path(n))
    got_p = [path_coeff(n, k) for k in range(len(want_p))]
    assert got_p == want_p
    assert path_poly(n).coeffs == tuple(want_p)


def test_eval_float():
    assert eval_float(F3, -1 / 3) == pytest.approx(0.0, abs=1e-15)
    assert eval_float(IntPoly(), 12.5) == 0.0


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    p, q, r = IntPoly(a), IntPoly(b), IntPoly(c)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(coeff_lists, coeff_lists)
def test_multiply_then_divide_round_trips(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if not q:
        return
    assert poly_exact_div(p * q, q) == p


@given(st.lists(st.integers(0, 2**20), max_size=8),
       st.lists(st.integers(0, 2**20), max_size=8))
def test_pack_round_trips_and_keeps_ring_operations(a, b):
    # coefficients below 2^20 and at most 8 terms: every coefficient of the
    # product is below 8 * 2^40 < 2^44, inside a 44-bit slot
    p, q = IntPoly(a), IntPoly(b)
    bits = 44
    assert unpack(pack(p, bits), bits) == p
    assert unpack(pack(p, bits) * pack(q, bits), bits) == p * q
    assert unpack(pack(p, bits) + pack(q, bits), bits) == p + q
    assert unpack(pack(p, bits) << bits, bits) == X * p


def test_pack_refuses_what_a_slot_cannot_hold():
    assert pack(IntPoly([1, 7, 0, 7]), 3) == 1 | 7 << 3 | 7 << 9
    with pytest.raises(ValueError):
        pack(IntPoly([1, 8]), 3)
    with pytest.raises(ValueError):
        pack(IntPoly([1, -1]), 3)
    with pytest.raises(ValueError):
        unpack(-1, 3)
    with pytest.raises(ValueError):
        unpack(1, 0)


def test_unicyclic_closure_on_cycle_polys():
    # products of unicyclic polynomials are unicyclic, and exact quotients
    # of unicyclic by unicyclic are unicyclic
    polys = [cycle_poly(n) for n in range(3, 16)]
    for p in polys:
        assert is_unicyclic_poly(p)
        for q in polys:
            assert is_unicyclic_poly(p * q)
    assert is_unicyclic_poly(poly_exact_div(C15, F5 * F3))


def test_str_and_repr():
    assert str(IntPoly([1, 0, -2])) == "1 - 2x^2"
    assert str(IntPoly()) == "0"
    assert repr(IntPoly([1, 3])) == "IntPoly([1, 3])"
