"""Weighted projective hypersurfaces, plane-curve germs and fibre bookkeeping.

The singular-locus solver is sound but deliberately incomplete: it works
by coordinate-vanishing stratification plus Sylvester resultants down to
univariate polynomials, recognizes rational roots and roots of unity,
and reports Indeterminate (with the offending factor) when anything is
left over.  Every emitted point is verified against the full system, so
the output is exact whenever it is not Indeterminate.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

from .cyclotomic import (ConductorCapExceeded, CyclotomicNumber, _poly_divmod, _poly_gcd,
                         _poly_trim, cyclotomic_polynomial)

# ---------------------------------------------------------------------------
# multivariate polynomials: dict {exponent tuple: coefficient}
#
# Coefficients are Fractions or CyclotomicNumbers, sums of roots of unity;
# both take plain operators with each other, and are false exactly when zero.
# ---------------------------------------------------------------------------


def poly_clean(terms):
    return {e: c for e, c in terms.items() if c}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return poly_clean(out)


def poly_scale(a, k):
    return poly_clean({e: c * k for e, c in a.items()})


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return poly_clean(out)


def poly_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i] > 0:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = out.get(tuple(ne), Fraction(0)) + c * e[i]
    return poly_clean(out)


def poly_div(a, b):
    """a / b for integer polynomials, b dividing a exactly: each step cancels
    the lex-leading term of what is left by an integer term of the quotient."""
    lead = max(b)
    a, q = dict(a), {}
    while a:
        top = max(a)
        e = tuple(x - y for x, y in zip(top, lead))
        q[e] = c = a[top] // b[lead]
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(e, eb))
            a[k] = a.get(k, 0) - c * cb
            if not a[k]:
                del a[k]
    return q


def poly_specialize(a, values):
    """Substitute values[i] for each variable i in values, dropping them."""
    out = {}
    for e, c in a.items():
        for i, v in values.items():
            if e[i]:
                c = c * v ** e[i]
        ne = tuple(x for i, x in enumerate(e) if i not in values)
        out[ne] = out[ne] + c if ne in out else c
    return poly_clean(out)


def poly_str(a, names):
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items(), reverse=True):
        factors = []
        for name, exp in zip(names, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# weighted polynomials
# ---------------------------------------------------------------------------

class WeightedPoly:
    def __init__(self, names: tuple, weights: tuple, terms: dict):
        if len(names) != len(weights):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        self.names = names              # variable names
        self.weights = weights          # positive integer weights, one per variable
        self.terms = poly_clean(dict(terms))    # {exponent tuple: Fraction}

    def weighted_degree(self, e):
        return sum(w * x for w, x in zip(self.weights, e))

    def partial(self, i):
        return poly_diff(self.terms, i)

    def __str__(self):
        return poly_str(self.terms, self.names)


_TERM_RE = re.compile(r"[+-]|[^+\-\s]+")
MAX_COEFFICIENT_BITS = 4096     # numerator and denominator of a term's coefficient
MAX_EXPONENT = 4096             # of one variable in one term


# a decimal literal with an exponent, as Fraction reads it: digits, fraction digits,
# exponent; compiled (and cached by re) at the first literal with an 'e', not at import
_EXPONENT_LITERAL = (r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                     r"(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*")
_CAP_DIGITS = 1234              # 10**1234 passes MAX_COEFFICIENT_BITS


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def read_rational(text: str) -> Fraction:
    """Fraction(text), refused with OverflowError when its numerator or
    denominator passes MAX_COEFFICIENT_BITS.  A nonzero literal of d
    significant digits and decimal scale s (its exponent less its fraction
    digits) has a numerator or denominator of at least 10**(|s| - d), so it
    is refused before Fraction builds 10**|s| once |s| - d >= _CAP_DIGITS."""
    m = re.fullmatch(_EXPONENT_LITERAL, text) if "e" in text or "E" in text else None
    if m:
        whole, fraction = m[1].replace("_", ""), (m[2] or "").replace("_", "")
        digits = (whole + fraction).lstrip("0")
        if not digits:
            return Fraction(0)
        if abs(int(m[3]) - len(fraction)) - len(digits) >= _CAP_DIGITS:
            raise OverflowError(f"{text!r} passes {MAX_COEFFICIENT_BITS} bits")
    value = Fraction(text)
    if _bits(value) > MAX_COEFFICIENT_BITS:
        raise OverflowError(f"{text!r} passes {MAX_COEFFICIENT_BITS} bits")
    return value


def _times_power(coeff: Fraction, base: Fraction, power: int, term: str) -> Fraction:
    """coeff * base**power, refused past MAX_COEFFICIENT_BITS.  An integer of
    b bits has more than (b - 1) * power bits to that power: checked first."""
    if (_bits(base) - 1) * power < MAX_COEFFICIENT_BITS:
        coeff *= base ** power
        if _bits(coeff) <= MAX_COEFFICIENT_BITS:
            return coeff
    raise ValueError(f"the coefficient of {term!r} passes {MAX_COEFFICIENT_BITS} bits")


def parse_poly(text: str, params: dict | None = None) -> WeightedPoly:
    """Parse 'vars X:1 Y:1 Z:2 W:3' followed by an expression like
    'W^2 + Z^3 + X^5*Y + a*X^4*Z'.  Parameters (like a) come from params."""
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    text = text.strip()
    if not text.startswith("vars "):
        raise ValueError("polynomial text must start with a 'vars' declaration")
    header, _, expr = text.partition("\n")
    if not expr:
        # allow single-line form: vars ... : expression  -- split on ';'
        header, _, expr = text.partition(";")
    names, weights = [], []
    for decl in header[len("vars "):].split():
        name, _, w = decl.partition(":")
        if name in names:
            raise ValueError(f"duplicate variable {name!r}")
        names.append(name)
        weights.append(int(w) if w else 1)
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    if re.search(r"\^\s*-", expr):
        raise ValueError("exponents must be nonnegative integers")

    tokens = _TERM_RE.findall(expr)
    if tokens and tokens[-1] in "+-":
        raise ValueError(f"missing term after the final {tokens[-1]!r}")

    terms = {}
    sign = 1
    pending = True
    for tok in tokens:
        if tok in "+-":     # the signs before a term multiply
            sign = (sign if pending else 1) * (-1 if tok == "-" else 1)
            pending = True
            continue
        if not pending:
            raise ValueError(f"missing operator before {tok!r}")
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in tok.split("*"):
            base, caret, power = factor.partition("^")
            if not base:
                raise ValueError(f"missing factor in the term {tok!r}")
            if caret and not power:
                raise ValueError(f"missing exponent after {base}^")
            power = int(power) if caret else 1
            if base in index:
                expo[index[base]] += power
                if expo[index[base]] > MAX_EXPONENT:
                    raise ValueError(f"the exponent of {base} in {tok!r} passes "
                                     f"{MAX_EXPONENT}")
                continue
            try:
                value = params[base] if base in params else read_rational(base)
            except ValueError:
                raise ValueError(f"unknown symbol {base!r} in polynomial") from None
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {base!r}") from None
            except OverflowError:
                raise ValueError(f"the coefficient of {tok!r} passes "
                                 f"{MAX_COEFFICIENT_BITS} bits") from None
            coeff = _times_power(coeff, value, power, tok)
        e = tuple(expo)
        terms[e] = terms.get(e, Fraction(0)) + coeff
        pending = False
    return WeightedPoly(tuple(names), tuple(weights), terms)


def is_quasi_homogeneous(f: WeightedPoly):
    """(True, degree) iff all terms share one weighted degree; also checks
    the Euler identity sum(w_i x_i df/dx_i) = deg * f exactly."""
    if not f.terms:
        return True, 0
    degrees = {f.weighted_degree(e) for e in f.terms}
    if len(degrees) != 1:
        return False, None
    deg = degrees.pop()
    euler = {}
    for i in range(len(f.names)):
        xi = {tuple(1 if j == i else 0 for j in range(len(f.names))): Fraction(f.weights[i])}
        euler = poly_add(euler, poly_mul(xi, f.partial(i)))
    if euler != poly_scale(f.terms, deg):
        raise AssertionError("Euler identity failed on equal-degree input")
    return True, deg


# ---------------------------------------------------------------------------
# exact solving: univariate roots, resultants, stratified systems
# ---------------------------------------------------------------------------

class Indeterminate:
    """Unresolved residual factors; the solver is sound but incomplete."""

    def __init__(self, factors: list):
        self.factors = factors

    def __str__(self):
        return f"Indeterminate({'; '.join(self.factors)})"


UNDERDETERMINED = "underdetermined system (positive-dimensional)"


def _divisors(n):
    """The positive divisors of a nonzero integer, ascending."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients, in
    the order of the divisors of its constant and leading coefficients."""
    coeffs = _poly_trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    # strip zero roots
    low = next(i for i, c in enumerate(coeffs) if c)
    roots = [Fraction(0)] if low else []
    coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return roots
    # clear denominators and content -> primitive integer polynomial
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    deg = len(ints) - 1
    # p/q in lowest terms is a root iff sum c_i p^i q^(deg-i) = 0
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if math.gcd(p, q) != 1:
                continue
            for cand in (p, -p):
                if not sum(c * cand ** i * q ** (deg - i) for i, c in enumerate(ints)):
                    roots.append(Fraction(cand, q))
    return roots


MAX_ROOT_OF_UNITY_ORDER = 24


def sylvester_resultant(p, q, var, nvars):
    """Resultant of two multivariate polynomials w.r.t. variable index var:
    the determinant of their Sylvester matrix, a polynomial in the other
    variables, by the subresultant PRS (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 3.3.7) on integer coefficients,
    where its divisions are exact.  It is 0 when one polynomial is zero and
    1 for two nonzero constants."""
    def coeffs_in(poly):
        deg = max((e[var] for e in poly), default=-1)
        lcm = math.lcm(*(c.denominator for c in poly.values()))
        out = [{} for _ in range(deg + 1)]
        for e, c in poly.items():
            out[e[var]][e[:var] + (0,) + e[var + 1:]] = c.numerator * (lcm // c.denominator)
        return out, lcm

    def power(x, k):
        return functools.reduce(poly_mul, [x] * k) if k else one

    (a, la), (b, lb) = coeffs_in(p), coeffs_in(q)
    # Res(la * p, lb * q) = la^deg(q) * lb^deg(p) * Res(p, q)
    scale = Fraction(la) ** (1 - len(b)) * Fraction(lb) ** (1 - len(a))
    if len(a) < len(b):
        a, b = b, a
        scale *= (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = one = {(0,) * nvars: 1}
    while b:
        delta = len(a) - len(b)
        # h^(1 - delta) * lc(b)^delta: the next h, and the resultant once b is constant
        next_h = poly_div(power(b[-1], delta), power(h, delta - 1)) if delta else h
        if len(b) == 1:
            return poly_scale(next_h, scale)
        scale *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        # pseudo-remainder: lc(b)^(delta + 1) * a reduced by b
        r = a[:]
        for k in range(delta, -1, -1):
            top = r.pop()
            r = [poly_mul(c, b[-1]) for c in r]
            for i, c in enumerate(b[:-1]):
                r[k + i] = poly_add(r[k + i], poly_scale(poly_mul(top, c), -1))
        while r and not r[-1]:
            r.pop()
        divisor = poly_mul(g, power(h, delta))
        a, b, g, h = b, [poly_div(c, divisor) for c in r], b[-1], next_h
    return {}


def solve_system(equations, nvars):
    """All common solutions of rational polynomial equations, each variable
    ranging over nonzero values.

    Returns (solutions, leftovers): solutions are tuples of Fraction /
    CyclotomicNumber values; a nonempty leftovers list means Indeterminate.
    """
    equations = [e for e in map(poly_clean, equations) if e]
    if any(set(e) == {(0,) * nvars} for e in equations):
        return [], []          # nonzero constant: no solution
    if nvars == 0:
        return [()], []
    if not equations:
        return [], [UNDERDETERMINED]

    # variables actually present
    present = [i for i in range(nvars)
               if any(e[i] for eq in equations for e in eq)]
    var = present[-1]
    with_var = [eq for eq in equations if any(e[var] for e in eq)]
    without = [eq for eq in equations if not any(e[var] for e in eq)]

    if len(present) == 1:
        # univariate: the roots of the gcd, the other variables are free
        roots, leftovers = _common_roots([_univ_coeffs(eq, var) for eq in with_var])
        if roots and nvars > 1:
            return [], leftovers + [UNDERDETERMINED]
        return [(r,) for r in roots], leftovers

    # eliminate var by resultants against the first equation that has it;
    # with nothing left, the recursion answers UNDERDETERMINED
    eliminated = without + [sylvester_resultant(with_var[0], other, var, nvars)
                            for other in with_var[1:]]
    if len(with_var) >= 2 and not any(eliminated):
        return [], ["resultants all vanished (shared factor)"]
    # var does not occur in eliminated, so the value substituted is immaterial
    sub_sols, leftovers = solve_system(
        [poly_specialize(e, {var: 0}) for e in eliminated], nvars - 1)

    others = [i for i in range(nvars) if i != var]
    solutions = []
    for partial in sub_sols:
        values = dict(zip(others, partial))
        coeffs = [_univ_coeffs(poly_specialize(eq, values), 0) for eq in with_var]
        if any(c is None for cs in coeffs for c in cs):
            leftovers.append("irrational specialization")
            continue
        roots, left = _common_roots(coeffs)
        leftovers += left
        for r in roots:
            candidate = partial[:var] + (r,) + partial[var:]
            if not any(poly_specialize(eq, dict(enumerate(candidate)))
                       for eq in equations):
                solutions.append(candidate)
    return solutions, leftovers


def _univ_coeffs(eq, var):
    """Coefficient list, low degree first, of eq in which only variable var
    occurs; [0] for the zero polynomial.  Each coefficient is read as a
    Fraction, or None for an irrational cyclotomic number: the one place
    where the solver leaves Q."""
    out = [Fraction(0)] * (max((e[var] for e in eq), default=0) + 1)
    for e, c in eq.items():
        out[e[var]] = c.as_rational() if isinstance(c, CyclotomicNumber) else c
    return out


def _common_roots(polys):
    """(nonzero roots, leftovers) of the gcd of rational coefficient lists,
    read off its square-free part: the rational roots in the order of the
    key (|p|, q, +p/q before -p/q) of p/q in lowest terms, then the roots
    of unity of order 3 <= d <= MAX_ROOT_OF_UNITY_ORDER by d.  What is left,
    square-free, is the leftover."""
    g = polys[0]
    for other in polys[1:]:
        g = _poly_gcd(g, other)
    g = _poly_trim(list(g))
    if not g:
        return [], ["free variable after specialization"]
    g = _poly_divmod(g, _poly_gcd(g, [i * c for i, c in enumerate(g)][1:]))[0]
    roots = rational_roots(g)
    for r in roots:
        g = _poly_divmod(g, [-r, 1])[0]
    for d in range(3, MAX_ROOT_OF_UNITY_ORDER + 1):
        phi = cyclotomic_polynomial(d)
        if len(phi) > len(g):
            continue
        q, rem = _poly_divmod(g, phi)
        if not rem:
            g = q
            roots += [CyclotomicNumber.zeta(d, k) for k in range(d) if math.gcd(k, d) == 1]
    leftover = poly_str({(i,): c / g[-1] for i, c in enumerate(g) if c}, ("t",))
    return [r for r in roots if r], [leftover] if len(g) > 1 else []


# ---------------------------------------------------------------------------
# singular locus of a quasi-cone
# ---------------------------------------------------------------------------

def cone_singular_points(f: WeightedPoly):
    """Points (up to weighted scaling) where f and all partials vanish on the
    affine cone minus the origin.  Returns a list of coordinate tuples, or
    an Indeterminate listing the unresolved factors."""
    ok, _ = is_quasi_homogeneous(f)
    if not ok:
        raise ValueError("input must be quasi-homogeneous")
    n = len(f.names)
    if n > 4:
        raise ValueError("at most 4 variables supported")
    system = [f.terms] + [f.partial(i) for i in range(n)]
    points = []
    leftovers = []
    for support in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n + 1)):
        # off the support the coordinates are 0; scale a coordinate of
        # least weight to 1: its weight does not depend on the variable
        # order, and a weight-1 pivot keeps a rational point rational
        pivot = min(support, key=lambda i: f.weights[i])
        free = tuple(i for i in support if i != pivot)
        values = {i: Fraction(0) for i in range(n) if i not in support}
        values[pivot] = Fraction(1)
        sols, left = solve_system([poly_specialize(eq, values) for eq in system],
                                  len(free))
        leftovers.extend(left)
        for sol in sols:
            point = [Fraction(0)] * n
            point[pivot] = Fraction(1)
            for i, v in zip(free, sol):
                point[i] = v
            point = tuple(point)
            if not _is_scaled_copy(point, points, f.weights):
                points.append(point)
    if leftovers:
        return Indeterminate(sorted(set(leftovers)))
    return points


def _is_scaled_copy(point, found, weights):
    """Whether point is x_i -> zeta_w^(k*w_i) * x_i of a found point, where
    w is the weight of its pivot (a nonzero coordinate of least weight):
    the scalings that keep the pivot at 1.  They depend on k only mod w/g,
    g the gcd of the weights of the nonzero coordinates.  An image past
    the conductor cap counts as a different point."""
    support = [wi for c, wi in zip(point, weights) if c]
    w = min(support)
    for k in range(w // math.gcd(*support)):
        exps = [Fraction(k * wi, w) for wi in weights]
        try:
            image = tuple(c if e.denominator == 1
                          else c * CyclotomicNumber.zeta(e.denominator, e.numerator)
                          for c, e in zip(point, exps))
            if image in found:
                return True
        except ConductorCapExceeded:
            pass
    return False


# ---------------------------------------------------------------------------
# plane-curve germ classification (by 3-jet)
# ---------------------------------------------------------------------------

GERM_SMOOTH = "Smooth"
GERM_NODE = "Node"
GERM_CUSP = "Cusp"
GERM_OTHER = "Other"


def germ_classify(f_terms, point):
    """Classify the germ of a 2-variable polynomial at a point on its zero set.

    Smooth / Node (A1) / Cusp (A2) by the 3-jet; anything degenerate is
    reported as Other, never guessed."""
    shifted = _jet3_at(f_terms, point)
    if (0, 0) in shifted:           # f(point) != 0
        raise ValueError("the point must lie on the curve")
    if (1, 0) in shifted or (0, 1) in shifted:
        return GERM_SMOOTH
    a, b, c = (shifted.get(e, Fraction(0)) for e in ((2, 0), (1, 1), (0, 2)))
    if 4 * a * c - b * b:
        return GERM_NODE
    # Hessian rank 1: kernel direction of [[2a, b], [b, 2c]]; a = c = 0
    # would leave b = 0 too, a zero quadratic part
    if a:
        kern = (-b, 2 * a)
    elif c:
        kern = (2 * c, -b)
    else:
        return GERM_OTHER
    cubic = sum(coeff * kern[0] ** i * kern[1] ** j
                for (i, j), coeff in shifted.items() if i + j == 3)
    return GERM_CUSP if cubic else GERM_OTHER


def _jet3_at(f_terms, point):
    """The terms of degree <= 3 of f(x + p, y + q): the coefficient of
    x^a y^b is the sum of c * C(i, a) * C(j, b) * p^(i-a) * q^(j-b).

    Each term raises each coordinate v to one power, v^(n - min(n, 3))
    for its exponent n, and multiplies up to the others it needs."""
    out = {}
    for (i, j), c in f_terms.items():
        powers = []                 # powers[k][a] = point[k]^(n - a), n = (i, j)[k]
        for v, n in zip(point, (i, j)):
            low = v ** (n - min(n, 3))
            powers.append([low * v ** (min(n, 3) - a) for a in range(min(n, 3) + 1)])
        for a in range(min(i, 3) + 1):
            for b in range(min(j, 3 - a) + 1):
                out[a, b] = (out.get((a, b), 0) + c * math.comb(i, a) * math.comb(j, b)
                             * powers[0][a] * powers[1][b])
    return poly_clean(out)


# ---------------------------------------------------------------------------
# Kodaira fibre types
# ---------------------------------------------------------------------------

_KODAIRA_RE = re.compile(r"^(?:I(\d+)(\*)?|(II|III|IV)(\*)?)$")


def kodaira_euler(t: str) -> int:
    m = _KODAIRA_RE.match(t)
    if not m:
        raise ValueError(f"unknown Kodaira fibre type {t!r}")
    if m.group(1) is not None:
        n = int(m.group(1))
        return n + 6 if m.group(2) else n
    base = {"II": 2, "III": 3, "IV": 4}[m.group(3)]
    if m.group(4):
        return {2: 10, 3: 9, 4: 8}[base]
    return base


MAX_TOTAL_EULER = 1200


def fiber_configurations(must_contain: str = "II*", total_euler: int = 12):
    """Multisets of fibre types containing must_contain with the given total
    Euler number; the other members are irreducible singular fibres.

    The output grows as the square of total_euler, so totals above
    MAX_TOTAL_EULER are refused."""
    if total_euler > MAX_TOTAL_EULER:
        raise ValueError(f"total Euler number {total_euler} exceeds the cap "
                         f"{MAX_TOTAL_EULER}")
    remaining = total_euler - kodaira_euler(must_contain)
    if remaining < 0:
        return []
    # the others are I1 (Euler 1) and II (Euler 2), listed in Euler order;
    # the configurations come out with the fewest II fibres first
    return [(must_contain,) + ("I1",) * (remaining - 2 * k) + ("II",) * k
            for k in range(remaining // 2 + 1)]
