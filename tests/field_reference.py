"""Field references: a dense cyclotomic field, and the exponent arithmetic
of plane_action carried out on coordinates in it.

DenseCyclotomic stores a number of Q(zeta_m) as its power-basis vector
1, z, ..., z^(phi(m)-1), reduced modulo Phi_m on every construction, and
lifts mixed-conductor operands to the lcm conductor.  It shares only
the polynomial helpers with the library's sparse root sums, which add
exponents to multiply roots as plane_action does, so it can check both."""

import math
from fractions import Fraction

from delpezzo.cyclotomic import _poly_divmod, _poly_trim, cyclotomic_polynomial


def _poly_mul(a, b):
    """The product of two coefficient lists, low degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


class DenseCyclotomic:
    """An exact element of Q(zeta_m) in the power basis modulo Phi_m."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = cyclotomic_polynomial(conductor)
        c = _poly_divmod([Fraction(x) for x in coeffs], phi)[1]
        self.conductor = conductor
        self.coeffs = tuple(c + [Fraction(0)] * (len(phi) - 1 - len(c)))

    @classmethod
    def zero(cls, conductor: int = 1) -> "DenseCyclotomic":
        return cls(conductor, [])

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "DenseCyclotomic":
        coeffs = [Fraction(0)] * ((k % m) + 1)
        coeffs[k % m] = Fraction(1)
        return cls(m, coeffs)

    def lift(self, conductor: int) -> "DenseCyclotomic":
        step = conductor // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step)
        out[::step] = self.coeffs
        return DenseCyclotomic(conductor, out)

    def _common(self, other):
        m = math.lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._common(other)
        return DenseCyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return DenseCyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._common(other)
        return DenseCyclotomic(a.conductor, _poly_mul(list(a.coeffs), list(b.coeffs)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def zeta(e):
    """zeta^e for an exponent e, as a DenseCyclotomic."""
    return DenseCyclotomic.zeta(e.denominator, e.numerator)


def apply(g, coords):
    """Image under the monomial matrix g of a coordinate vector of
    DenseCyclotomic numbers: the reference ProjectivePoint.transformed is
    checked against."""
    out = [None, None, None]
    for j, e in enumerate(g.scalars):
        # times zeta^e: a Fraction factor would scale by e itself
        out[g.perm[j]] = coords[j] * zeta(e)
    return out


def cross(u, v):
    """u x v over any ring: the reference that fixed-line normals (the cross
    of the two eigenvectors of a double eigenvalue) and the meets of two
    fixed lines (the cross of their normals) are checked against."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]
