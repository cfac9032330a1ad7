"""Weighted projective hypersurfaces, plane-curve germs and fibre bookkeeping.

The singular-locus solver is sound but deliberately incomplete: it works
by coordinate-vanishing stratification plus Sylvester resultants down to
univariate polynomials, recognizes rational roots and roots of unity,
and reports Indeterminate (with the offending factor) when anything is
left over.  Every emitted point is verified against the full system, so
the output is exact whenever it is not Indeterminate.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from .lattice import config_rank

# ---------------------------------------------------------------------------
# multivariate polynomials: dict {exponent tuple: Fraction}
# ---------------------------------------------------------------------------


def poly_clean(terms):
    return {e: c for e, c in terms.items() if c != 0}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return poly_clean(out)


def poly_scale(a, k):
    return poly_clean({e: c * k for e, c in a.items()})


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return poly_clean(out)


def poly_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i] > 0:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = out.get(tuple(ne), Fraction(0)) + c * e[i]
    return poly_clean(out)


def poly_substitute(a, i, value):
    """Substitute a rational or cyclotomic value for variable i.

    Returns a polynomial in the remaining variables (variable i dropped);
    coefficients become cyclotomic when the value is.
    """
    out = {}
    for e, c in a.items():
        coeff = c * value ** e[i] if e[i] else c
        ne = e[:i] + e[i + 1:]
        if ne in out:
            out[ne] = out[ne] + coeff
        else:
            out[ne] = coeff
    return {e: c for e, c in out.items() if not _is_zero(c)}


def _is_zero(c):
    if isinstance(c, CyclotomicNumber):
        return c.is_zero()
    return c == 0


def poly_eval(a, values):
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for i, exp in enumerate(e):
            if exp:
                term = term * values[i] ** exp
        total = term + total
    return total


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

@dataclass
class WeightedPoly:
    names: tuple          # variable names
    weights: tuple        # positive integer weights, one per variable
    terms: dict           # {exponent tuple: Fraction}

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        self.terms = poly_clean(dict(self.terms))

    def weighted_degree(self, e):
        return sum(w * x for w, x in zip(self.weights, e))

    def partial(self, i):
        return poly_diff(self.terms, i)

    def __str__(self):
        return poly_str(self.terms, self.names)


_TERM_RE = re.compile(r"[+-]|[^+\-\s]+")


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
        names.append(name)
        weights.append(int(w) if w else 1)
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)

    terms = {}
    sign = 1
    pending = True
    for tok in _TERM_RE.findall(expr):
        if tok == "+":
            sign, pending = 1, True
            continue
        if tok == "-":
            sign, pending = -sign if not pending else -1, True
            continue
        if not pending:
            raise ValueError(f"missing operator before {tok!r}")
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in tok.split("*"):
            base, _, power = factor.partition("^")
            power = int(power) if power else 1
            if base in index:
                expo[index[base]] += power
            elif base in params:
                coeff *= params[base] ** power
            else:
                try:
                    coeff *= Fraction(base) ** power
                except ValueError:
                    raise ValueError(f"unknown symbol {base!r} in polynomial") from None
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


def za_surface(a) -> WeightedPoly:
    """The degree-6 hypersurface W^2 + Z^3 + X^5*Y + a*X^4*Z in P(1,1,2,3)."""
    return parse_poly("vars X:1 Y:1 Z:2 W:3\nW^2 + Z^3 + X^5*Y + a*X^4*Z",
                      {"a": Fraction(a)})


# ---------------------------------------------------------------------------
# exact solving: univariate roots, resultants, stratified systems
# ---------------------------------------------------------------------------

@dataclass
class Indeterminate:
    """Unresolved residual factors; the solver is sound but incomplete."""
    factors: list

    def __str__(self):
        return f"Indeterminate({'; '.join(self.factors)})"


def _univ_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        lead = a[-1] / b[-1]
        deg = len(a) - len(b)
        q[deg] = lead
        for i, bi in enumerate(b):
            a[deg + i] -= lead * bi
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _univ_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(b):
        _, r = _univ_divmod(a, b)
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots = []
    # strip zero roots
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        zero_mult += 1
    if zero_mult:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    # clear denominators -> integer polynomial
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    lead, const = ints[-1], ints[0]

    def divisors(n):
        n = abs(n)
        out = [d for d in range(1, n + 1) if n % d == 0]
        return out

    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return roots


def cyclotomic_factor_roots(coeffs, max_order: int = 24):
    """Roots of unity appearing as roots: peel off cyclotomic factors Phi_d."""
    coeffs = list(coeffs)
    roots = []
    for d in range(1, max_order + 1):
        phi = [Fraction(c) for c in cyclotomic_polynomial(d)]
        while len(coeffs) >= len(phi):
            q, r = _univ_divmod(coeffs, phi)
            if any(r):
                break
            coeffs = q
            for k in range(d):
                if math.gcd(k, d) == 1 or (k == 0 and d == 1):
                    root = CyclotomicNumber.zeta(d, k)
                    if not any(_cyc_eq(root, s) for s in roots):
                        roots.append(root)
    return roots, coeffs


def _cyc_eq(a, b):
    if isinstance(a, CyclotomicNumber) or isinstance(b, CyclotomicNumber):
        return (CyclotomicNumber._coerce(a) - CyclotomicNumber._coerce(b)).is_zero()
    return a == b


def univariate_roots(coeffs, name="t"):
    """(roots, leftover) where roots are Fractions or CyclotomicNumbers and
    leftover is None or a residual-factor description string."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    roots = []
    work = list(coeffs)
    for r in rational_roots(work):
        roots.append(r)
        while True:
            q, rem = _univ_divmod(work, [-r, Fraction(1)])
            if any(rem):
                break
            work = q
    extra, work = cyclotomic_factor_roots(work)
    roots.extend(extra)
    leftover = None
    if len(work) > 1:
        leftover = poly_str({(i,): c for i, c in enumerate(work) if c != 0}, (name,))
    return roots, leftover


def sylvester_resultant(p, q, var, nvars):
    """Resultant of two multivariate polynomials w.r.t. variable index var.

    Entries of the Sylvester matrix are polynomials in the remaining
    variables; the determinant is expanded exactly."""
    def coeffs_in(poly):
        deg = max((e[var] for e in poly), default=0)
        out = [{} for _ in range(deg + 1)]
        for e, c in poly.items():
            ne = list(e)
            k = ne[var]
            ne[var] = 0
            key = tuple(ne)
            out[k][key] = out[k].get(key, Fraction(0)) + c
        return [poly_clean(x) for x in out]

    a = coeffs_in(p)
    b = coeffs_in(q)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 or n == 0:
        # a constant in var: resultant is that constant to the right power
        if m == 0 and n == 0:
            return {}
        base, power = (a[0], n) if m == 0 else (b[0], m)
        out = {tuple([0] * nvars): Fraction(1)}
        for _ in range(power):
            out = poly_mul(out, base)
        return out
    size = m + n
    matrix = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(a)):
            matrix[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(b)):
            matrix[n + i][i + j] = c
    return _poly_det(matrix)


def _poly_det(matrix):
    n = len(matrix)
    if n == 0:
        return {}
    if n == 1:
        return matrix[0][0]
    # Laplace expansion along the first row (sizes stay small here)
    total = {}
    for j in range(n):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        term = poly_mul(entry, _poly_det(minor))
        if j % 2:
            term = poly_scale(term, Fraction(-1))
        total = poly_add(total, term)
    return total


def solve_system(equations, nvars, nonzero=True, _depth=0):
    """All common solutions of rational polynomial equations, each variable
    ranging over nonzero values when nonzero=True.

    Returns (solutions, leftovers): solutions are tuples of Fraction /
    CyclotomicNumber values; a nonempty leftovers list means Indeterminate.
    """
    equations = [poly_clean(e) for e in equations]
    equations = [e for e in equations if e]
    for e in equations:
        if list(e.keys()) == [tuple([0] * nvars)]:
            return [], []          # nonzero constant: no solution
    if nvars == 0:
        return [()], []
    if _depth > 12:
        return [], ["elimination depth exceeded"]
    if not equations:
        return [], ["underdetermined system (positive-dimensional)"]

    # variables actually present
    present = [i for i in range(nvars)
               if any(e[i] for eq in equations for e in eq)]
    if not present:
        return [], ["no variables left in nonzero equations"]
    var = present[-1]

    def univ_in(eq, v):
        return all(all(x == 0 for j, x in enumerate(e) if j != v) for e in eq)

    with_var = [eq for eq in equations if any(e[var] for e in eq)]
    without = [eq for eq in equations if not any(e[var] for e in eq)]

    # reduce the with_var set to one polynomial via gcd (univariate case)
    # or resultants (multivariate case)
    if all(univ_in(eq, var) for eq in with_var) and not without and len(present) == 1:
        g = None
        for eq in with_var:
            coeffs = _project_univ(eq, var)
            g = coeffs if g is None else _univ_gcd(g, coeffs)
        if len(g) <= 1:
            return ([], []) if g else ([], ["zero gcd"])
        roots, leftover = univariate_roots(g)
        sols = []
        for r in roots:
            if nonzero and _is_zero(r):
                continue
            sols.append(_embed_value(r, var, nvars, ()))
        return sols, ([leftover] if leftover else [])

    if len(with_var) >= 2:
        base = with_var[0]
        eliminated = list(without)
        for other in with_var[1:]:
            res = sylvester_resultant(base, other, var, nvars)
            eliminated.append(res)
        if not any(eliminated):
            return [], ["resultants all vanished (shared factor)"]
        sub_sols, leftovers = solve_system(
            [_drop_var(e, var) for e in eliminated], nvars - 1, nonzero, _depth + 1)
    elif without:
        sub_sols, leftovers = solve_system(
            [_drop_var(e, var) for e in without], nvars - 1, nonzero, _depth + 1)
    else:
        # single equation in several variables: positive-dimensional
        return [], ["underdetermined system (positive-dimensional)"]

    solutions = []
    for partial in sub_sols:
        specialized = []
        for eq in with_var:
            spec = eq
            for j, value in zip([i for i in range(nvars) if i != var], partial):
                spec = _substitute_keepdims(spec, j, value)
            specialized.append(spec)
        g = None
        bad = False
        for spec in specialized:
            coeffs = _project_univ(spec, var)
            if any(isinstance(c, CyclotomicNumber) and not c.is_rational()
                   for c in coeffs):
                leftovers.append("irrational specialization")
                bad = True
                break
            coeffs = [c.as_rational() if isinstance(c, CyclotomicNumber) else c
                      for c in coeffs]
            g = coeffs if g is None else _univ_gcd(g, [Fraction(c) for c in coeffs])
        if bad:
            continue
        g = [Fraction(c) for c in g]
        if not g:
            leftovers.append("free variable after specialization")
            continue
        if len(g) == 1:
            continue          # no root extends this partial solution
        roots, leftover = univariate_roots(g)
        if leftover:
            leftovers.append(leftover)
        for r in roots:
            if nonzero and _is_zero(r):
                continue
            candidate = _embed_value(r, var, nvars, partial)
            if _verify(equations, candidate):
                solutions.append(candidate)
    return solutions, leftovers


def _project_univ(eq, var):
    deg = max((e[var] for e in eq), default=0)
    out = [Fraction(0)] * (deg + 1)
    for e, c in eq.items():
        if all(x == 0 for j, x in enumerate(e) if j != var):
            out[e[var]] = out[e[var]] + c if not isinstance(c, CyclotomicNumber) else c + out[e[var]]
        else:
            raise ValueError("not univariate")
    return out


def _drop_var(eq, var):
    out = {}
    for e, c in eq.items():
        if e[var] != 0:
            raise ValueError("variable still present")
        ne = e[:var] + e[var + 1:]
        out[ne] = out.get(ne, Fraction(0)) + c
    return poly_clean(out)


def _substitute_keepdims(eq, i, value):
    """Substitute keeping the exponent-tuple arity (slot i becomes 0)."""
    out = {}
    for e, c in eq.items():
        coeff = c * value ** e[i] if e[i] else c
        ne = list(e)
        ne[i] = 0
        key = tuple(ne)
        out[key] = coeff + out[key] if key in out else coeff
    return {e: c for e, c in out.items() if not _is_zero(c)}


def _embed_value(value, var, nvars, partial):
    out = []
    k = 0
    for i in range(nvars):
        if i == var:
            out.append(value)
        else:
            out.append(partial[k])
            k += 1
    return tuple(out)


def _verify(equations, values):
    for eq in equations:
        if not _is_zero(poly_eval(eq, values)):
            return False
    return True


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
        support = list(support)
        pivot = support[0]
        free = support[1:]
        eqs = []
        for eq in system:
            spec = dict(eq)
            for i in range(n):
                if i not in support:
                    spec = _substitute_keepdims(spec, i, Fraction(0))
            spec = _substitute_keepdims(spec, pivot, Fraction(1))
            # compress to the free variables only
            comp = {}
            for e, c in spec.items():
                key = tuple(e[i] for i in free)
                comp[key] = c + comp[key] if key in comp else c
            comp = {e: c for e, c in comp.items() if not _is_zero(c)}
            eqs.append(comp)
        sols, left = solve_system(eqs, len(free), nonzero=True)
        leftovers.extend(left)
        for sol in sols:
            point = [Fraction(0)] * n
            point[pivot] = Fraction(1)
            for i, v in zip(free, sol):
                point[i] = v
            if not any(_points_equal(point, p) for p in points):
                points.append(tuple(point))
    if leftovers:
        return Indeterminate(sorted(set(leftovers)))
    return points


def _points_equal(a, b):
    return all(_cyc_eq(x, y) for x, y in zip(a, b))


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
    if not _is_zero(poly_eval(f_terms, point)):
        raise ValueError("the point must lie on the curve")
    # shift the point to the origin: substitute x -> x + p
    shifted = _shift_to_origin(f_terms, point)
    grad = [shifted.get((1, 0), Fraction(0)), shifted.get((0, 1), Fraction(0))]
    if not all(_is_zero(g) for g in grad):
        return GERM_SMOOTH
    a = shifted.get((2, 0), Fraction(0))
    b = shifted.get((1, 1), Fraction(0))
    c = shifted.get((0, 2), Fraction(0))
    hess_det = 4 * a * c - b * b if not isinstance(a, CyclotomicNumber) else a * c * 4 - b * b
    quad_zero = all(_is_zero(x) for x in (a, b, c))
    if not _is_zero(hess_det):
        return GERM_NODE
    if quad_zero:
        return GERM_OTHER
    # Hessian rank 1: kernel direction of [[2a, b], [b, 2c]]
    if not _is_zero(a):
        kern = (_neg(b), _two(a))       # (-b, 2a)
    elif not _is_zero(c):
        kern = (_two(c), _neg(b))       # (2c, -b)
    else:
        # a = c = 0, b != 0 would make det nonzero; unreachable
        return GERM_OTHER
    cubic = Fraction(0)
    for (i, j), coeff in shifted.items():
        if i + j == 3:
            cubic = coeff * kern[0] ** i * kern[1] ** j + cubic
    return GERM_CUSP if not _is_zero(cubic) else GERM_OTHER


def _neg(x):
    return -x


def _two(x):
    return x * 2 if isinstance(x, CyclotomicNumber) else 2 * x


def _shift_to_origin(f_terms, point):
    x = {(1, 0): Fraction(1), (0, 0): point[0]}
    y = {(0, 1): Fraction(1), (0, 0): point[1]}
    x = {e: c for e, c in x.items() if not _is_zero(c)}
    y = {e: c for e, c in y.items() if not _is_zero(c)}
    out = {}
    for (i, j), c in f_terms.items():
        term = {(0, 0): c}
        for _ in range(i):
            term = _cpoly_mul(term, x)
        for _ in range(j):
            term = _cpoly_mul(term, y)
        for e, v in term.items():
            out[e] = v + out[e] if e in out else v
    return {e: c for e, c in out.items() if not _is_zero(c)}


def _cpoly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            v = ca * cb
            out[e] = v + out[e] if e in out else v
    return {e: c for e, c in out.items() if not _is_zero(c)}


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


def kodaira_reducible(t: str) -> bool:
    kodaira_euler(t)  # validates
    return t not in ("I0", "I1", "II")


def fiber_configurations(must_contain: str = "II*", total_euler: int = 12,
                         others_irreducible: bool = True):
    """Multisets of fibre types containing must_contain with the given total
    Euler number; the other members are irreducible singular fibres."""
    remaining = total_euler - kodaira_euler(must_contain)
    if remaining < 0:
        return []
    if others_irreducible:
        pool = ["I1", "II"]
    else:
        pool = ["I1", "II", "III", "IV", "I0*"]
    results = set()

    def go(left, start, acc):
        if left == 0:
            results.add(tuple(acc))
            return
        for i in range(start, len(pool)):
            e = kodaira_euler(pool[i])
            if e <= left:
                go(left - e, i, acc + [pool[i]])

    go(remaining, 0, [])
    out = []
    for extra in sorted(results):
        out.append(tuple([must_contain] + sorted(extra, key=_kodaira_sort_key)))
    return sorted(out, key=lambda cfg: [_kodaira_sort_key(t) for t in cfg])


def _kodaira_sort_key(t):
    return (kodaira_euler(t), t)


# ---------------------------------------------------------------------------
# Noether / Euler consistency
# ---------------------------------------------------------------------------

def noether_check(d: int, config) -> dict:
    """For a rank-1 Gorenstein log del Pezzo of degree d with the given
    singularity configuration: b2 of the resolution is 10-d, the exceptional
    rank is 9-d, and the Euler number of the surface is 3."""
    if not 1 <= d <= 9:
        raise ValueError("degree must be in [1, 9]")
    rank = config_rank(config)
    b2 = 10 - d
    chi = 12 - d - rank
    ok = rank == 9 - d and chi == 3
    return {
        "degree": d,
        "b2_resolution": b2,
        "exceptional_rank": rank,
        "expected_rank": 9 - d,
        "chi_surface": chi,
        "pass": ok,
    }
