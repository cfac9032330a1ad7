import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from delpezzo.cyclotomic import (
    CONDUCTOR_CAP,
    ConductorCapExceeded,
    CyclotomicNumber,
    _poly_gcd,
    cyclotomic_polynomial,
)
from field_reference import DenseCyclotomic


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_sympy():
    from sympy import cyclotomic_poly

    for m in range(1, CONDUCTOR_CAP + 1):
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
        x = CyclotomicNumber([(0, Fraction(3, 7))])
        assert x.terms == {0: Fraction(3, 7)} and x.conductor == 1
        assert x.as_rational() == Fraction(3, 7)
        assert (x + CyclotomicNumber.zeta(2)).as_rational() == Fraction(-4, 7)

    def test_zeta_minimal_polynomial(self):
        z = CyclotomicNumber.zeta(3)
        assert not z * z + z + 1
        z4 = CyclotomicNumber.zeta(4)
        assert not z4 * z4 + 1

    def test_cross_conductor_arithmetic(self):
        # zeta_6 = 1 + zeta_3 (primitive 6th vs 3rd roots)
        z6 = CyclotomicNumber.zeta(6)
        z3 = CyclotomicNumber.zeta(3)
        assert z6 == 1 + z3
        assert z6 * z6 * z6 == -1

    def test_truth_value_is_nonzero(self):
        assert not CyclotomicNumber([])
        assert not CyclotomicNumber([(Fraction(1, 12), 1), (Fraction(7, 12), 1)])
        assert not CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(3, 2) + 1
        assert CyclotomicNumber.zeta(5)
        assert CyclotomicNumber([(0, Fraction(1, 3))])

    def test_inverse(self):
        z = CyclotomicNumber.zeta(5) + 2
        assert z * z.inverse() == 1
        assert z ** -2 * z * z == 1
        assert CyclotomicNumber([(0, 4)]).inverse().terms == {0: Fraction(1, 4)}
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber([]).inverse()
        with pytest.raises(ZeroDivisionError):
            (CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(3, 2) + 1).inverse()

    def test_sqrt2_in_q_zeta8(self):
        z8 = CyclotomicNumber.zeta(8)
        sqrt2 = z8 + z8 ** 7
        assert (sqrt2 * sqrt2).as_rational() == 2
        assert sqrt2.as_rational() is None
        assert sqrt2.as_root_of_unity() is None

    def test_reduce_conductor(self):
        z12 = CyclotomicNumber.zeta(12)
        i = (z12 ** 3).reduce_conductor()
        assert i.conductor == 4
        assert i == CyclotomicNumber.zeta(4)
        one = (CyclotomicNumber.zeta(6) ** 6).reduce_conductor()
        assert one.conductor == 1 and one == 1
        # a primitive 12th root cannot drop
        assert z12.reduce_conductor().conductor == 12
        # the remainder modulo Phi_3 of z + z^2 is -1
        minus_one = (CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(3, 2)).reduce_conductor()
        assert minus_one.terms == {0: -1}
        # modulo Phi_8 = x^4 + 1, z^5 + z^7 is -z - z^3
        sum8 = (CyclotomicNumber.zeta(8, 5) + CyclotomicNumber.zeta(8, 7)).reduce_conductor()
        assert sum8.terms == {Fraction(1, 8): -1, Fraction(3, 8): -1}

    def test_as_root_of_unity(self):
        z = CyclotomicNumber.zeta(7) ** 3
        assert z.as_root_of_unity() == Fraction(3, 7)
        minus_one = CyclotomicNumber([(0, -1)])
        assert minus_one.as_root_of_unity() == Fraction(1, 2)
        assert CyclotomicNumber([(0, 1)]).as_root_of_unity() == 0
        assert (CyclotomicNumber.zeta(5) + 1).as_root_of_unity() is None
        assert CyclotomicNumber([]).as_root_of_unity() is None
        # -zeta_3^2 = zeta_6 in disguise, and 1 + zeta_3 = zeta_6 too
        assert (-CyclotomicNumber.zeta(3, 2)).as_root_of_unity() == Fraction(1, 6)
        assert (1 + CyclotomicNumber.zeta(3)).as_root_of_unity() == Fraction(1, 6)

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
        assert str(CyclotomicNumber([(0, Fraction(1, 2))])) == "1/2"
        assert str(CyclotomicNumber([])) == "0"
        assert str(CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(3, 2)) == "-1"
        assert str(CyclotomicNumber.zeta(5) + 2) == "2*zeta(0) + 1*zeta(1/5)"


# ---------------------------------------------------------------------------
# the root sums against the dense reference field
# ---------------------------------------------------------------------------

def _random_pairs(rng, m):
    """(exponent, coefficient) pairs over the divisors of m: a rational, a
    root of unity up to sign or a random sum, with half of them plus a
    zero in disguise, c * zeta^s times the sum of all the d-th roots."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]

    def root():
        d = rng.choice(divisors)
        return Fraction(rng.randrange(d), d)

    kind = rng.randrange(3)
    if kind == 0:
        pairs = [(0, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))]
    elif kind == 1:
        pairs = [(root(), rng.choice((1, -1)))]
    else:
        pairs = [(root(), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                 for _ in range(rng.randint(0, 5))]
    if m > 1 and rng.random() < 0.5:
        d, s, c = rng.choice(divisors[1:]), root(), rng.randint(1, 3)
        pairs += [(s + Fraction(j, d), c) for j in range(d)]
    return pairs


def _dense(pairs, m):
    vector = [Fraction(0)] * m
    for e, c in pairs:
        vector[int(Fraction(e) % 1 * m)] += c
    return DenseCyclotomic(m, vector)


@lru_cache(maxsize=None)
def _dense_roots(m):
    return {DenseCyclotomic.zeta(m, k).coeffs: Fraction(k, m) for k in range(m)}


def test_root_sums_match_the_dense_reference():
    rng = random.Random("root sums vs the dense field")
    conductors = [*range(1, 25), 72, 120]
    roots = rationals = equal = 0
    for _ in range(1000):
        m = rng.choice(conductors)
        pa, pb = _random_pairs(rng, m), _random_pairs(rng, m)
        a, b = CyclotomicNumber(pa), CyclotomicNumber(pb)
        da, db = _dense(pa, m), _dense(pb, m)
        assert bool(a) is not da.is_zero()
        rational = da.coeffs[0] if not any(da.coeffs[1:]) else None
        assert a.as_rational() == rational
        root = _dense_roots(math.lcm(2, m)).get(da.lift(math.lcm(2, m)).coeffs)
        assert a.as_root_of_unity() == root
        assert (a == b) is (da - db).is_zero()
        equal += a == b
        for got, want in ((a + b, da + db), (a - b, da - db), (a * b, da * db)):
            assert (_dense(got.terms.items(), m) - want).is_zero()
        roots += root is not None
        rationals += rational is not None
    assert roots >= 300 and rationals >= 300 and equal >= 50, (roots, rationals, equal)
