import random
from fractions import Fraction

import pytest

from delpezzo.cyclotomic import (
    ConductorCapExceeded,
    CyclotomicNumber,
    _poly_gcd,
    cyclotomic_polynomial,
    euler_phi,
)


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_sympy():
    from sympy import cyclotomic_poly

    for m in range(1, 121):
        expected = cyclotomic_poly(m, polys=True).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m)) == [int(c) for c in expected], m


def test_poly_gcd_is_monic():
    # gcd((x - 1)(x + 2), 3(x - 1)(x - 5)) = x - 1
    a = [Fraction(-2), Fraction(1), Fraction(1)]
    b = [Fraction(15), Fraction(-18), Fraction(3)]
    assert _poly_gcd(a, b) == [-1, 1]
    assert _poly_gcd(a, []) == [-2, 1, 1]
    assert _poly_gcd([Fraction(0)], [Fraction(2), Fraction(4)]) == [Fraction(1, 2), 1]
    assert _poly_gcd([], [0, 0]) == []
    # seeded pairs p*h and q*h of degree <= 12 against sympy's gcd made monic
    import sympy

    x = sympy.symbols("x")
    rng = random.Random("poly gcd vs sympy")

    def draw(degree):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
        return sympy.Poly([Fraction(rng.choice([-3, -1, 1, 2, 7]))] + coeffs, x, domain="QQ")

    def fractions(poly):
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    for _ in range(40):
        h = draw(rng.randint(0, 6))
        a, b = draw(rng.randint(0, 12 - h.degree())) * h, draw(rng.randint(0, 12 - h.degree())) * h
        assert _poly_gcd(fractions(a), fractions(b)) == fractions(a.gcd(b).monic()), (a, b)


class TestCyclotomicNumber:
    def test_rational_embedding(self):
        x = CyclotomicNumber.from_rational(Fraction(3, 7))
        assert x.is_rational()
        assert x.as_rational() == Fraction(3, 7)

    def test_zeta_minimal_polynomial(self):
        z = CyclotomicNumber.zeta(3)
        assert (z * z + z + 1).is_zero()
        z4 = CyclotomicNumber.zeta(4)
        assert (z4 * z4 + 1).is_zero()

    def test_cross_conductor_arithmetic(self):
        # zeta_6 = 1 + zeta_3 (primitive 6th vs 3rd roots)
        z6 = CyclotomicNumber.zeta(6)
        z3 = CyclotomicNumber.zeta(3)
        assert z6 == 1 + z3
        assert z6 * z6 * z6 == -1

    def test_truth_value_is_nonzero(self):
        assert not CyclotomicNumber.zero(12)
        assert not CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(3, 2) + 1
        assert CyclotomicNumber.zeta(5)
        assert CyclotomicNumber.from_rational(Fraction(1, 3))

    def test_inverse(self):
        z = CyclotomicNumber.zeta(5) + 2
        assert z * z.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero().inverse()

    def test_sqrt2_in_q_zeta8(self):
        z8 = CyclotomicNumber.zeta(8)
        sqrt2 = z8 + z8 ** 7
        assert (sqrt2 * sqrt2).as_rational() == 2
        assert not sqrt2.is_rational()

    def test_reduce_conductor(self):
        z12 = CyclotomicNumber.zeta(12)
        i = (z12 ** 3).reduce_conductor()
        assert i.conductor == 4
        assert i == CyclotomicNumber.zeta(4)
        one = (CyclotomicNumber.zeta(6) ** 6).reduce_conductor()
        assert one.conductor == 1 and one == 1
        # a primitive 12th root cannot drop
        assert z12.reduce_conductor().conductor == 12

    def test_as_root_of_unity(self):
        z = CyclotomicNumber.zeta(7) ** 3
        assert z.as_root_of_unity() == Fraction(3, 7)
        minus_one = CyclotomicNumber.from_rational(-1)
        assert minus_one.as_root_of_unity() == Fraction(1, 2)
        assert CyclotomicNumber.from_rational(1).as_root_of_unity() == 0
        assert (CyclotomicNumber.zeta(5) + 1).as_root_of_unity() is None
        assert CyclotomicNumber.zero(4).as_root_of_unity() is None

    def test_zeta_round_trip(self):
        # zeta(m, k) -> as_root_of_unity is k/m reduced into [0, 1)
        assert CyclotomicNumber.zeta(12, 5).as_root_of_unity() == Fraction(5, 12)
        for m in range(1, 25):
            for k in range(-m, 2 * m):
                assert CyclotomicNumber.zeta(m, k).as_root_of_unity() == Fraction(k, m) % 1

    def test_conductor_cap(self):
        with pytest.raises(ConductorCapExceeded):
            CyclotomicNumber.zeta(7) * CyclotomicNumber.zeta(121)

    def test_str(self):
        assert str(CyclotomicNumber.zeta(3)) == "zeta(1/3)"
        assert str(CyclotomicNumber.zeta(12, 10)) == "zeta(5/6)"
        assert str(CyclotomicNumber.zeta(8, 4)) == "-1"
        assert str(CyclotomicNumber.from_rational(Fraction(1, 2))) == "1/2"
