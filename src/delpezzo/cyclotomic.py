"""Exact arithmetic in cyclotomic fields Q(zeta_m): the surfaces solver's field.

Elements are dense vectors of rationals in the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), reduced modulo the m-th
cyclotomic polynomial.  All arithmetic is exact; there is no floating
point anywhere in this module, so zero-testing is decisive.

Mixed-conductor operands are lifted to the lcm conductor first.  We do
not minimize conductors after arithmetic: equality testing works fine
in a non-minimal field and minimization would cost more than it saves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Cap on the conductor of one number.  A number is a dense vector of
# phi(m) rationals, multiplication is quadratic in it, and mixed-conductor
# arithmetic lifts to the lcm: the surfaces solver peels Phi_d for
# d <= 24 and combines such roots, so fields like Q(zeta_72) (lcm(8, 9))
# occur.  Past the cap, ConductorCapExceeded (a ValueError) is raised
# instead of repeated lifting building ever larger fields.
CONDUCTOR_CAP = 360


class ConductorCapExceeded(ValueError):
    pass


def euler_phi(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z and Q (coefficient lists, low degree
# first); the surfaces solver uses these too
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


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

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(int(c) for c in q)


def _reduce_mod_phi(coeffs, m):
    """Reduce a power-basis coefficient list modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    c = _poly_divmod([Fraction(x) for x in coeffs], phi)[1]
    return tuple(c + [Fraction(0)] * (len(phi) - 1 - len(c)))


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """An exact element of Q(zeta_m) in the power basis modulo Phi_m."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if conductor > CONDUCTOR_CAP:
            raise ConductorCapExceeded(
                f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
        self.conductor = conductor
        self.coeffs = _reduce_mod_phi(coeffs, conductor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int = 1) -> "CyclotomicNumber":
        return cls(conductor, [])

    @classmethod
    def from_rational(cls, q) -> "CyclotomicNumber":
        return cls(1, [Fraction(q)])

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * ((k % m) + 1)
        coeffs[k % m] = Fraction(1)
        return cls(m, coeffs)

    # -- conductor handling --------------------------------------------------

    def lift(self, conductor: int) -> "CyclotomicNumber":
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return CyclotomicNumber(conductor, out)

    @staticmethod
    def _common(a: "CyclotomicNumber", b: "CyclotomicNumber"):
        m = math.lcm(a.conductor, b.conductor)
        if m > CONDUCTOR_CAP:
            raise ConductorCapExceeded(f"conductor {m} exceeds cap {CONDUCTOR_CAP}")
        return a.lift(m), b.lift(m)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CyclotomicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicNumber.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return CyclotomicNumber(a.conductor,
                                [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CyclotomicNumber(a.conductor, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        # extended gcd of self (as poly) and Phi_m
        r0, r1 = list(self.coeffs), phi
        s0, s1 = [Fraction(1)], []
        _poly_trim(r0)
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs1 = _poly_mul(q, s1)
            new_s = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs1):
                new_s[i] -= c
            s0, s1 = s1, _poly_trim(new_s)
        # r0 is the gcd, a nonzero constant since Phi_m is irreducible over Q
        assert len(r0) == 1
        inv_lead = 1 / r0[0]
        return CyclotomicNumber(self.conductor, [c * inv_lead for c in s0])

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            return None
        return self.coeffs[0]

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # equality crosses conductors; dedupe by scanning

    def reduce_conductor(self) -> "CyclotomicNumber":
        """Rewrite in the smallest cyclotomic field Q(zeta_d), d | conductor,
        that contains this value.  The minimal d is unique (the divisors d
        with the value in Q(zeta_d) are closed under gcd), so the result is
        a canonical representation."""
        m = self.conductor
        for d in range(1, m):
            if m % d != 0:
                continue
            coords = self._in_subfield(d)
            if coords is not None:
                return CyclotomicNumber(d, coords)
        return self

    def _in_subfield(self, d: int):
        """Coordinates of this value in the power basis of Q(zeta_d) lifted
        into Q(zeta_m), or None if it does not lie in the subfield."""
        m = self.conductor
        basis = [CyclotomicNumber.zeta(d, i).lift(m).coeffs
                 for i in range(euler_phi(d))]
        # solve sum_i a_i * basis[i] = self.coeffs by Gaussian elimination
        ncols = len(basis)
        nrows = len(self.coeffs)
        aug = [[basis[j][r] for j in range(ncols)] + [self.coeffs[r]]
               for r in range(nrows)]
        row = 0
        pivots = []
        for col in range(ncols):
            pivot = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
            if pivot is None:
                pivots.append(None)
                continue
            aug[row], aug[pivot] = aug[pivot], aug[row]
            inv = 1 / aug[row][col]
            aug[row] = [x * inv for x in aug[row]]
            for r in range(nrows):
                if r != row and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
            pivots.append(row)
            row += 1
        # inconsistent if any zero row has nonzero rhs
        for r in range(row, nrows):
            if aug[r][-1] != 0:
                return None
        coords = [Fraction(0)] * ncols
        for col, prow in enumerate(pivots):
            if prow is not None:
                coords[col] = aug[prow][-1]
        # free columns stay 0; verify (cheap and decisive)
        candidate = CyclotomicNumber(d, coords) if ncols else CyclotomicNumber.zero(d)
        if (candidate.lift(m) - self).is_zero():
            return coords
        return None

    def as_root_of_unity(self):
        """The exponent e in [0, 1) if this value is exactly exp(2*pi*i*e),
        else None.

        The roots of unity inside Q(zeta_m) are exactly the M-th roots
        where M = lcm(2, m), so the search space is finite.
        """
        if self.is_zero():
            return None
        big = math.lcm(2, self.conductor)
        return _roots_of_unity(big).get(self.lift(big).coeffs)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        root = self.as_root_of_unity()
        if self.is_zero():
            return "0"
        if self.is_rational():
            return str(self.coeffs[0])
        if root is not None:
            return f"zeta({root})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts) + f" @ Q(zeta_{self.conductor})"

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {list(self.coeffs)!r})"


@lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> dict:
    """The m-th roots of unity in Q(zeta_m): power-basis coefficients -> k/m."""
    return {CyclotomicNumber.zeta(m, k).coeffs: Fraction(k, m) for k in range(m)}
