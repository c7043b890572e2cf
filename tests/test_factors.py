import math

import pytest

from indequiv.factors import (
    ROOT_TOLERANCE,
    cyclotomic_poly,
    divisors,
    euler_phi,
    f_poly_by_division,
    f_poly_by_transform,
    factorize_cycle_poly,
    min_poly_2cos,
    root_residual,
    root_values,
)
from indequiv.intpoly import (
    IntPoly,
    cycle_poly,
    eval_float,
    is_unicyclic_poly,
    poly_divides,
)


def test_euler_phi():
    assert euler_phi(9) == 6
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    for m in range(1, 200):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_cyclotomic_examples():
    assert cyclotomic_poly(1) == IntPoly([-1, 1])
    assert cyclotomic_poly(6) == IntPoly([1, -1, 1])
    assert cyclotomic_poly(18) == IntPoly([1, 0, 0, -1, 0, 0, 1])


@pytest.mark.parametrize("m", range(1, 40))
def test_cyclotomic_product_recovers_xm_minus_1(m):
    prod = IntPoly([1])
    for d in divisors(m):
        prod = prod * cyclotomic_poly(d)
    assert prod == IntPoly([-1] + [0] * (m - 1) + [1])


def test_min_poly_2cos_examples():
    assert min_poly_2cos(3) == IntPoly([1, 1])
    assert min_poly_2cos(5) == IntPoly([-1, 1, 1])
    assert min_poly_2cos(6) == IntPoly([-1, 1])


@pytest.mark.parametrize("m", range(3, 40))
def test_min_poly_2cos_roots_and_degree(m):
    psi = min_poly_2cos(m)
    assert psi.degree == euler_phi(m) // 2
    assert psi.coeffs[-1] == 1
    for k in range(1, (m + 1) // 2):
        value = 2 * math.cos(2 * math.pi * k / m)
        if math.gcd(k, m) == 1 and 2 * k < m:
            assert abs(eval_float(psi, value)) < 1e-8
        elif math.gcd(k, m) > 1:
            assert abs(eval_float(psi, value)) > 1e-8


def test_transform_route_examples():
    assert f_poly_by_transform(3) == IntPoly([1, 3])
    assert f_poly_by_transform(5) == IntPoly([1, 5, 5])
    assert f_poly_by_transform(9) == IntPoly([1, 6, 9, 3])
    assert f_poly_by_transform(15) == IntPoly([1, 7, 14, 8, 1])


def test_division_route_examples():
    assert f_poly_by_division(5) == cycle_poly(5)
    assert f_poly_by_division(9) == IntPoly([1, 6, 9, 3])
    f45 = f_poly_by_division(45)
    assert f45.degree == euler_phi(45) // 2 == 12
    assert f45 == f_poly_by_transform(45)


@pytest.mark.parametrize("n", range(3, 46, 2))
def test_routes_agree_smoke(n):
    assert f_poly_by_transform(n) == f_poly_by_division(n)


def test_factorize_cycle_poly():
    fs = factorize_cycle_poly(15)
    assert list(fs) == [3, 5, 15]
    assert fs[3] * fs[5] * fs[15] == cycle_poly(15)
    assert factorize_cycle_poly(3) == {3: IntPoly([1, 3])}
    fs9 = factorize_cycle_poly(9, route="transform")
    assert fs9 == factorize_cycle_poly(9) == {
        3: IntPoly([1, 3]), 9: IntPoly([1, 6, 9, 3])
    }
    with pytest.raises(ValueError):
        factorize_cycle_poly(8)
    with pytest.raises(ValueError):
        factorize_cycle_poly(9, route="guess")


def test_factor_polys_are_unicyclic():
    for n in range(3, 60, 2):
        assert is_unicyclic_poly(f_poly_by_division(n))


def test_root_values():
    roots = root_values(3)
    assert len(roots) == 1
    i, c, tag = roots[0]
    assert (i, tag) == (1, 1)
    assert c == pytest.approx(-1 / 3)
    roots9 = root_values(9)
    assert len(roots9) == 4
    assert all(c < 0 for _, c, _ in roots9)
    assert [tag for _, _, tag in roots9] == [1, 3, 1, 1]


def test_root_residual():
    f9 = f_poly_by_division(9)
    assert root_residual(cycle_poly(9), 9) < ROOT_TOLERANCE
    assert root_residual(f9, 9, 9) < ROOT_TOLERANCE
    # the root with gcd tag 3 belongs to f_3, not f_9
    c2 = root_values(9)[1][1]
    assert abs(eval_float(f9, c2)) > 1e-6
    f3_at_c2 = eval_float(IntPoly([1, 3]), c2)
    assert abs(f3_at_c2) < 1e-12
    assert root_residual(IntPoly([1, 3]), 9, 3) < ROOT_TOLERANCE
    # f_9 is not zero at f_3's root, nor f_3 at f_9's
    assert root_residual(f9, 9) > 1e-6
    assert root_residual(IntPoly([1, 3]), 9, 9) > 1e-6
    for m in (4, 0, -3):  # -3 would select no root and read 0.0
        with pytest.raises(ValueError):
            root_residual(f9, 9, m)


def test_divisibility_corollary_small():
    for n in range(3, 34, 2):
        for k in range(3, 34, 2):
            divides = poly_divides(cycle_poly(k), cycle_poly(n))
            assert divides == (n % k == 0)


def test_odd_only():
    with pytest.raises(ValueError):
        f_poly_by_transform(4)
    with pytest.raises(ValueError):
        root_values(6)
    with pytest.raises(ValueError):
        min_poly_2cos(2)
