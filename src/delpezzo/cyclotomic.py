"""Exact arithmetic in cyclotomic fields Q(zeta_N): the surfaces solver's field.

A number is a sparse sum of roots of unity, {exponent e in [0, 1):
Fraction c} for the sum of c * zeta^e, as the solver's values are
rationals and roots of unity.  Sums and products work on exponents
alone; a value is tested and read through one reduction, the remainder
modulo Phi_N with N the lcm of the exponents' denominators.  All
arithmetic is exact; there is no floating point anywhere in this
module, so zero-testing is decisive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Cap on the conductor of one number.  A sum has up to N terms, a
# product multiplies their counts, and the reduction divides by Phi_N:
# the surfaces solver peels Phi_d for d <= 24 and combines such roots,
# so fields like Q(zeta_72) (lcm(8, 9)) occur.  Past the cap,
# ConductorCapExceeded (a ValueError) is raised instead of ever larger
# fields being built.
CONDUCTOR_CAP = 360


class ConductorCapExceeded(ValueError):
    pass


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z and Q (coefficient lists, low degree
# first); the surfaces solver uses these too
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Exact division with remainder; works over Q (and over Z when exact)."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        lead = a[-1] if b[-1] == 1 else Fraction(a[-1]) / b[-1]
        deg = len(a) - len(b)
        q[deg] = lead
        for i, bi in enumerate(b):
            if bi:
                a[deg + i] -= lead * bi
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a, b):
    """Monic gcd over Q, by monic remainders; [] when both are zero."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
        b = [Fraction(c) / b[-1] for c in b]
    return [Fraction(c) / a[-1] for c in a]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, low degree first.

    Computed by dividing x^m - 1 by Phi_d for each proper divisor d in turn.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    q = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(q, cyclotomic_polynomial(d))
            assert not r, "cyclotomic division must be exact"
    return tuple(int(c) for c in q)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def _remainder(terms, m):
    """The coefficients, low degree first, of the remainder of
    sum c * x^(e*m) modulo Phi_m: the power-basis coordinates in Q(zeta_m)
    of sum c * zeta^e, for m a multiple of every exponent's denominator."""
    dense = [0] * m
    for e, c in terms.items():
        dense[e.numerator * (m // e.denominator)] += c
    return _poly_divmod(_poly_trim(dense), cyclotomic_polynomial(m))[1]


class CyclotomicNumber:
    """An exact element of Q(zeta): the sum of c * zeta^e over terms =
    {e: c}, each exponent e a Fraction in [0, 1) and each c a nonzero
    Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        """From (exponent, coefficient) pairs; exponents are read mod 1
        and the coefficients of equal exponents add up."""
        out = {}
        for e, c in terms:
            e = Fraction(e) % 1
            out[e] = out.get(e, Fraction(0)) + c
        self.terms = {e: c for e, c in out.items() if c}
        if self.conductor > CONDUCTOR_CAP:
            raise ConductorCapExceeded(
                f"conductor {self.conductor} exceeds cap {CONDUCTOR_CAP}")

    @property
    def conductor(self) -> int:
        """The lcm N of the exponents' denominators: the sum lies in Q(zeta_N)."""
        return math.lcm(*(e.denominator for e in self.terms))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicNumber":
        return cls([(Fraction(k, m), 1)])

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CyclotomicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicNumber([(0, x)])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber([*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber((e, -c) for e, c in self.terms.items())

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber((a + b, x * y) for a, x in self.terms.items()
                                for b, y in other.terms.items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber([(0, 1)])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _conjugate(self, k: int) -> "CyclotomicNumber":
        """The Galois conjugate zeta -> zeta^k, for k prime to the conductor."""
        return CyclotomicNumber((k * e, c) for e, c in self.terms.items())

    def inverse(self) -> "CyclotomicNumber":
        """The product of the other Galois conjugates over the norm, the
        product of all of them, which is rational."""
        if not self:
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        n = self.conductor
        others = CyclotomicNumber([(0, 1)])
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * self._conjugate(k)
        return others * (1 / (self * others).as_rational())

    # -- reading the value ---------------------------------------------------

    def reduce_conductor(self) -> "CyclotomicNumber":
        """The same value as the remainder modulo Phi_N of the sum read as a
        polynomial in zeta_N, N the conductor.  The truth value, ==,
        as_rational and str read the value through it: the reduced sum is
        zero exactly when the value is, and has only the exponent 0 exactly
        when the value is rational."""
        n = self.conductor
        return CyclotomicNumber((Fraction(i, n), c)
                                for i, c in enumerate(_remainder(self.terms, n)))

    def __bool__(self):
        return bool(self.reduce_conductor().terms)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        reduced = self.reduce_conductor()
        if reduced.conductor > 1:
            return None
        return reduced.terms.get(Fraction(0), Fraction(0))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return not self - other

    __hash__ = None  # equal values have many sums; dedupe by scanning

    def as_root_of_unity(self):
        """The exponent e in [0, 1) if this value is exactly exp(2*pi*i*e),
        else None.

        The roots of unity inside Q(zeta_N) are exactly the M-th roots
        where M = lcm(2, N), so the search space is finite.
        """
        big = math.lcm(2, self.conductor)
        return _roots_of_unity(big).get(tuple(_remainder(self.terms, big)))

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        value = self.as_rational()
        if value is not None:
            return str(value)
        root = self.as_root_of_unity()
        if root is not None:
            return f"zeta({root})"
        return " + ".join(f"{c}*zeta({e})"
                          for e, c in sorted(self.reduce_conductor().terms.items()))

    def __repr__(self):
        return f"CyclotomicNumber({sorted(self.terms.items())!r})"


@lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> dict:
    """The m-th roots of unity: their remainders modulo Phi_m -> k/m."""
    return {tuple(_remainder({Fraction(k, m): 1}, m)): Fraction(k, m) for k in range(m)}
