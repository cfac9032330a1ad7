import cmath
import itertools
import math
import random
import re
import signal
import time
from fractions import Fraction

import pytest

from delpezzo import surfaces as S
from delpezzo.classifier import SurfaceProfile, consistency
from delpezzo.lattice import parse_config
from fixtures import kodaira_reducible, za_surface


def parse(text, **params):
    return S.parse_poly(text, {k: Fraction(v) for k, v in params.items()})


class TestParsePoly:
    def test_basic(self):
        f = parse("vars X:1 Y:1 Z:2 W:3\nW^2 + Z^3 + X^5*Y")
        assert list(f.names) == ["X", "Y", "Z", "W"]
        assert list(f.weights) == [1, 1, 2, 3]
        assert f.terms[(0, 0, 0, 2)] == 1
        assert f.terms[(5, 1, 0, 0)] == 1

    def test_parameters_and_coefficients(self):
        f = parse("vars X:1 Y:1\nX^2 - 3/2*X*Y + a*Y^2", a="5")
        assert f.terms[(1, 1)] == Fraction(-3, 2)
        assert f.terms[(0, 2)] == 5

    def test_zero_parameter_drops_term(self):
        f = parse("vars X:1 Z:2\nZ + a*X^2", a="0")
        assert (2, 0) not in f.terms

    def test_errors(self):
        with pytest.raises(ValueError):
            parse("no header here")
        with pytest.raises(ValueError):
            parse("vars X:1\nX + Q^2")
        with pytest.raises(ValueError):
            parse("vars X:1\nX + b*X")  # unbound parameter

    def test_minus_sets_the_sign(self):
        f = parse("vars X:1 Y:1 Z:1\nX - Y - Z")
        assert f.terms == {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): -1}
        f = parse("vars X:1 Y:1\n-X - Y + -X*Y - -Y^2")
        assert f.terms == {(1, 0): -1, (0, 1): -1, (1, 1): -1, (0, 2): 1}
        f = parse("vars X:1 Y:1\n- +X - +Y + -+X*Y - + -Y^2")
        assert f.terms == {(1, 0): -1, (0, 1): -1, (1, 1): -1, (0, 2): 1}

    def test_sign_runs_read_as_sympy_reads_them(self):
        # the signs before a term multiply: each - flips, each + keeps
        import sympy

        x, y = sympy.symbols("X Y")
        runs = ("+", "-", "- +", "+ -", "- -", "-+", "- + -")
        monomials = ("X", "Y", "X*Y", "2*X^2", "3/4*Y^3", "5")
        rng = random.Random("sign runs vs sympy")
        for _ in range(300):
            first, *rest = (rng.choice(monomials) for _ in range(rng.randint(1, 4)))
            text = rng.choice(("",) + runs) + " " + first
            text += "".join(f" {rng.choice(runs)} {term}" for term in rest)
            ours = sum(sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
                       for (i, j), c in parse("vars X:1 Y:1\n" + text).terms.items())
            expected = sympy.sympify(text.replace("^", "**"), rational=True)
            assert sympy.expand(ours - expected) == 0, text

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            parse("vars X:1 Y:1\nX^-1*Y + X")

    def test_dangling_caret_rejected(self):
        with pytest.raises(ValueError, match="missing exponent"):
            parse("vars X:1 Y:1\nY^ + X")

    def test_trailing_operator_rejected(self):
        with pytest.raises(ValueError, match="missing term"):
            parse("vars X:1 Y:1\nX + Y -")

    def test_missing_factor_is_named_with_its_term(self):
        for text, term in [("X +* Y", "*"), ("X*", "X*"), ("*X", "*X"), ("X^2*", "X^2*"),
                           ("X + Y*^2", "Y*^2"), ("2*X*", "2*X*"), ("^2", "^2"),
                           ("X + ^2*Y", "^2*Y")]:
            with pytest.raises(ValueError, match=re.escape(f"missing factor in the term {term!r}")):
                parse("vars X:1 Y:1\n" + text)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse("vars X:1 X:2\nX")

    def test_coefficient_bits_are_capped(self):
        assert S.MAX_COEFFICIENT_BITS == 4096
        # a numerator or denominator of 4096 bits passes, 4097 do not
        assert parse("vars X:1\n2^4095*X").terms == {(1,): 2 ** 4095}
        assert parse("vars X:1\n1/2^4095*X").terms == {(1,): Fraction(1, 2 ** 4095)}
        assert parse("vars X:1\n2^2048*2^2047*X").terms == {(1,): 2 ** 4095}
        for text in ("2^4096*X", "1/2^4096*X", "2^2048*2^2048*X", "3^99999999*X"):
            with pytest.raises(ValueError, match=r"passes 4096 bits"):
                parse("vars X:1\n" + text)
        with pytest.raises(ValueError, match=r"of 'a\^2\*X' passes 4096 bits"):
            parse("vars X:1\na^2*X", a=str(2 ** 2100))
        # bases 0 and +-1 never grow, whatever the power
        f = parse("vars X:1 Y:1\n1^9999999999*X + a^9999999999*Y + 0^9999999999*X*Y",
                  a="-1")
        assert f.terms == {(1, 0): 1, (0, 1): -1}

    def test_read_rational_is_fraction_inside_the_cap(self):
        for text in ("3", " -2/6 ", "1.5e3", "+.25E-2", "1_000.0_1e1_0", "1e1233", "1e-1233",
                     "0.001e1235", "10000e-1236", str(2 ** 4096 - 1), "0e10000000", "-0.0e-99"):
            assert S.read_rational(text) == Fraction(text.replace("e10000000", ""))
        for text in ("x", "1/2e3", "1e", "e5", "1e1_", "1.2.3"):
            with pytest.raises(ValueError):
                S.read_rational(text)
        with pytest.raises(ZeroDivisionError):
            S.read_rational("1/0")

    def test_read_rational_refuses_past_the_cap_before_building(self):
        # 10**1234 and 1/10**1234 have 4100 bits; 10**10**9 would take minutes to build
        start = time.perf_counter()
        for text in ("1e1234", "1e-1234", "-7.5e10000000", "1e-1000000000", "0.01e1236",
                     str(2 ** 4096), f"1/{2 ** 4096}"):
            with pytest.raises(OverflowError, match="passes 4096 bits"):
                S.read_rational(text)
        assert time.perf_counter() - start < 0.5

    def test_exponents_are_capped(self):
        assert S.MAX_EXPONENT == 4096
        # a variable's exponent in a term, summed over its factors
        assert parse("vars X:1 Y:1\nX*Y^4096").terms == {(1, 4096): 1}
        assert parse("vars X:1 Y:1\nX^4000*X^96 + Y").terms == {(4096, 0): 1, (0, 1): 1}
        for text, name in [("X*Y^4097", "Y"), ("X^4000*X^97", "X"),
                           ("X*Y^100000000000", "Y"), ("x^100000000000 + y", "x")]:
            with pytest.raises(ValueError, match=rf"the exponent of {name} in .* passes 4096"):
                parse("vars X:1 Y:1 x:1 y:1\n" + text)


def test_poly_text_round_trip():
    # names, weights and terms -> "vars" header + poly_str -> parse_poly
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coeffs = st.fractions(max_denominator=50).filter(bool)

    def polys(nvars):
        exps = st.tuples(*[st.integers(0, 5)] * nvars)
        return st.tuples(st.lists(st.integers(1, 6), min_size=nvars, max_size=nvars),
                         st.dictionaries(exps, coeffs, max_size=6))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(polys))
    def check(drawn):
        weights, terms = drawn
        names = ["X", "Y", "Z", "W"][:len(weights)]
        header = "vars " + " ".join(f"{n}:{w}" for n, w in zip(names, weights))
        text = f"{header}\n{S.poly_str(terms, names)}"
        f = S.parse_poly(text)
        assert (list(f.names), list(f.weights), f.terms) == (names, weights, terms)

    check()


class TestQuasiHomogeneity:
    def test_za_surface(self):
        for a in (0, 1):
            f = za_surface(Fraction(a))
            qh, deg = S.is_quasi_homogeneous(f)
            assert qh and deg == 6

    def test_inhomogeneous(self):
        f = parse("vars X:1 Y:1\nX^2 + Y^3")
        qh, _ = S.is_quasi_homogeneous(f)
        assert not qh


class TestUnivariate:
    def test_rational_roots(self):
        # (2t - 1)(t + 3) = 2t^2 + 5t - 3
        roots = S.rational_roots([Fraction(-3), Fraction(5), Fraction(2)])
        assert set(roots) == {Fraction(1, 2), Fraction(-3)}

    def test_cyclotomic_roots(self):
        # t^2 + t + 1 has the primitive cube roots, and no leftover
        roots, leftovers = S._common_roots([[Fraction(1), Fraction(1), Fraction(1)]])
        assert roots == [S.CyclotomicNumber.zeta(3, 1), S.CyclotomicNumber.zeta(3, 2)]
        assert leftovers == []

    def test_rational_roots_of_large_coefficients(self):
        # (1000 t - 999)(t + 1000003): constant term about -10^9
        coeffs = [Fraction(-999 * 1000003), Fraction(1000 * 1000003 - 999), Fraction(1000)]
        start = time.perf_counter()
        roots = S.rational_roots(coeffs)
        assert time.perf_counter() - start < 0.5
        assert roots == [Fraction(999, 1000), Fraction(-1000003)]
        assert S.rational_roots([-10**7, 0, 10**4]) == []
        # p (2t - 1)(t + 3) for a prime p near 10^14: the content plays no
        # part, and walking its divisors up to sqrt(p) would take seconds
        p = 100000000000031
        start = time.perf_counter()
        roots = S.rational_roots([Fraction(-3 * p), Fraction(5 * p), Fraction(2 * p)])
        assert time.perf_counter() - start < 0.5
        assert roots == [Fraction(1, 2), Fraction(-3)]

    def test_rational_roots_in_divisor_order(self):
        # the order of the roots sets the order of the singular points that
        # wps prints: candidates p/q by ascending divisors p of the constant
        # term, then q of the leading one, +p/q before -p/q
        rng = random.Random("rational roots order")
        for _ in range(60):
            coeffs = [Fraction(1)]
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randint(1, 4), rng.randint(-6, 6)
                coeffs = _times_linear(coeffs, Fraction(a), Fraction(b))
            coeffs = [c * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for c in coeffs]
            assert S.rational_roots(coeffs) == _naive_rational_roots(coeffs), coeffs

    def test_resultant_detects_common_root(self):
        # p = x^2 - y^2 and q = x - y share the line x = y
        p = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
        q = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
        res = S.sylvester_resultant(p, q, 0, 2)
        assert all(c == 0 for c in res.values())


class TestSolveSystem:
    def test_free_variable_after_specialization(self):
        # X*Y - Y = 0 = X - 1 holds on the line X = 1, Y free
        eqs = [{(1, 1): Fraction(1), (0, 1): Fraction(-1)},
               {(1, 0): Fraction(1), (0, 0): Fraction(-1)}]
        assert S.solve_system(eqs, 2) == ([], ["free variable after specialization"])

    def test_one_variable_left_of_several_is_underdetermined(self):
        # (X - 2)(X - 3) = 0 with Y free
        eqs = [{(2, 0): Fraction(1), (1, 0): Fraction(-5), (0, 0): Fraction(6)}]
        assert S.solve_system(eqs, 2) == ([], [S.UNDERDETERMINED])

    def test_one_equation_in_two_variables_is_underdetermined(self):
        # X*Y = 1: nothing is left once Y is eliminated
        eqs = [{(1, 1): Fraction(1), (0, 0): Fraction(-1)}]
        assert S.solve_system(eqs, 2) == ([], [S.UNDERDETERMINED])

    def test_finite_solutions(self):
        # X = Y^2 and Y^2 = 4
        eqs = [{(1, 0): Fraction(1), (0, 2): Fraction(-1)},
               {(0, 2): Fraction(1), (0, 0): Fraction(-4)}]
        assert S.solve_system(eqs, 2) == ([(4, 2), (4, -2)], [])


def _times_linear(coeffs, a, b):
    """coeffs * (a t + b), low degree first."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += b * c
        out[i + 1] += a * c
    return out


def _naive_rational_roots(coeffs):
    """The rational root theorem by brute force over every divisor."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    if len(ints) == 1:
        return roots

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return roots


def _cyclotomic_and_linear_product(rng):
    """A product of rational linear factors and cyclotomic factors Phi_d,
    d <= 24, with the distinct roots it has."""
    from delpezzo.cyclotomic import cyclotomic_polynomial

    coeffs, rational, orders = [Fraction(1)], set(), set()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randint(1, 4), rng.randint(-9, 9)
        coeffs = _times_linear(coeffs, Fraction(a), Fraction(b))
        rational.add(Fraction(-b, a))
    for bound in (24, 12)[:rng.randint(1, 2)]:
        d = rng.randint(3, bound)
        phi = cyclotomic_polynomial(d)
        out = [Fraction(0)] * (len(coeffs) + len(phi) - 1)
        for i, c in enumerate(coeffs):
            for j, p in enumerate(phi):
                out[i + j] += c * p
        coeffs = out
        orders.add(d)
    return coeffs, rational, orders


def _complex_value(root):
    from delpezzo.cyclotomic import CyclotomicNumber

    if isinstance(root, CyclotomicNumber):
        return sum(float(c) * cmath.exp(2j * math.pi * e) for e, c in root.terms.items())
    return complex(root)


def test_univariate_roots_match_sympy():
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random("univariate roots vs sympy")
    for _ in range(10):
        coeffs, rational, orders = _cyclotomic_and_linear_product(rng)
        roots, leftovers = S._common_roots([coeffs])
        assert leftovers == []
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                   for i, c in enumerate(coeffs))
        expected = [complex(sympy.N(r, 30)) for r in sympy.roots(sympy.Poly(expr, t)) if r]
        ours = [_complex_value(r) for r in roots]
        assert len(ours) == len(expected) == len(rational - {0}) + sum(
            math.gcd(k, d) == 1 for d in orders for k in range(d))
        for z in ours:
            assert min(abs(z - w) for w in expected) < 1e-9, (coeffs, z)


def test_common_roots_read_off_the_square_free_part():
    # f and f*h^2 have the same roots in the same order, and a leftover
    # names each factor once: it has gcd 1 with its derivative
    from delpezzo.cyclotomic import _poly_gcd
    from field_reference import _poly_mul

    rng = random.Random("square-free part")
    for _ in range(20):
        f, _, _ = _cyclotomic_and_linear_product(rng)
        roots, leftovers = S._common_roots([f])
        assert leftovers == []
        # t^2 + c has the roots +-sqrt(-c): neither rational nor of unity
        rootless = [Fraction(rng.choice((2, 3, 5, 7))), Fraction(0), Fraction(1)]
        for h in (f, rootless, _poly_mul(f, rootless)):
            again, left = S._common_roots([_poly_mul(f, _poly_mul(h, h))])
            assert again == roots
            assert len(left) == (0 if h is f else 1)
            for text in left:
                coeffs = S._univ_coeffs(S.parse_poly(f"vars t:1\n{text}").terms, 0)
                derivative = [i * c for i, c in enumerate(coeffs)][1:]
                assert _poly_gcd(coeffs, derivative) == [1], text


def test_sylvester_resultant_matches_sympy():
    import sympy

    # up to degree 6 in the eliminated x: Sylvester matrices up to 12 x 12
    names = sympy.symbols("x y z")
    rng = random.Random("resultant vs sympy")

    def random_poly():
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = (rng.randint(0, 6), rng.randint(0, 2), rng.randint(0, 1))
            terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms[(rng.randint(1, 6), 0, 0)] = Fraction(rng.choice([-2, -1, 1, 3]))
        return S.poly_clean(terms)

    def expr(poly):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(v ** k for v, k in zip(names, e)))
                   for e, c in poly.items())

    sextic_pairs = 0
    for _ in range(15):
        p, q = random_poly(), random_poly()
        ours = S.sylvester_resultant(p, q, 0, 3)
        assert all(e[0] == 0 for e in ours)
        expected = sympy.resultant(expr(p), expr(q), names[0])
        assert sympy.expand(expr(ours) - expected) == 0, (p, q)
        sextic_pairs += bool(ours) and max(p)[0] == max(q)[0] == 6
    assert sextic_pairs >= 2


def test_sylvester_resultant_with_a_constant_matches_sympy():
    # constant in x: the Sylvester matrix is diagonal, so the resultant is
    # that constant to the other polynomial's degree in x
    import sympy

    x, y = sympy.symbols("x y")
    c = {(0, 1): Fraction(2), (0, 0): Fraction(-3, 2)}               # 2y - 3/2
    q = {(3, 0): Fraction(1), (1, 1): Fraction(5), (0, 0): Fraction(-1)}  # x^3 + 5xy - 1
    power = {(0, 0): Fraction(1)}
    for _ in range(3):
        power = S.poly_mul(power, c)
    expected = sympy.resultant(2 * y - sympy.Rational(3, 2), x ** 3 + 5 * x * y - 1, x)
    for first, second in ((c, q), (q, c)):
        ours = S.sylvester_resultant(first, second, 0, 2)
        assert ours == power
        assert sympy.expand(sum(sympy.Rational(v.numerator, v.denominator) * y ** e[1]
                                for e, v in ours.items()) - expected) == 0
    assert S.sylvester_resultant(c, {(1, 0): Fraction(1)}, 0, 2) == c
    assert S.sylvester_resultant({}, q, 0, 2) == {}


def test_sylvester_resultant_of_two_constants_matches_sympy():
    # the Sylvester matrix is empty, so the resultant is 1 unless one is zero
    import sympy

    x, y = sympy.symbols("x y")
    cases = [({(0,): Fraction(2)}, {(0,): Fraction(3)}, 1, sympy.Integer(2), sympy.Integer(3)),
             ({(0, 1): Fraction(2), (0, 0): Fraction(1)}, {(0, 0): Fraction(-3, 4)}, 2,
              2 * y + 1, sympy.Rational(-3, 4)),
             ({}, {(0, 0): Fraction(5)}, 2, sympy.Integer(0), sympy.Integer(5))]
    for p, q, nvars, p_expr, q_expr in cases:
        expected = sympy.resultant(p_expr, q_expr, x)
        ours = S.sylvester_resultant(p, q, 0, nvars)
        assert ours == ({(0,) * nvars: expected} if expected else {}), (p, q)


def _singular_points_under_a_cpu_alarm(text):
    """cone_singular_points of the parsed text, or TimeoutError past 10 s
    of CPU."""
    def over(signum, frame):
        raise TimeoutError("more than 10 s of CPU")

    previous = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, 10)
    try:
        return S.cone_singular_points(parse(text))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def test_resultants_of_the_sextic_in_four_variables_finish_under_a_cpu_alarm():
    # its Sylvester matrices are large enough that expanding them by minors
    # takes more than 20 s of CPU; the subresultant PRS takes under a second
    out = _singular_points_under_a_cpu_alarm(
        "vars X:1 Y:1 Z:1 W:1\n3*Z^6 - 2*X*Y*Z*W^3 + 2*X*Y^3*Z^2 + 3/2*X^4*Y^2")
    assert out.factors == ["t^5 + 3087/4", S.UNDERDETERMINED]


def test_gcd_of_two_resultants_finishes_under_a_cpu_alarm():
    # the last univariate step takes the gcd of two resultants of degree 89
    # and 85: a Euclid over Q whose remainders are not made monic grows its
    # Fraction coefficients past 10 s of CPU; monic remainders take under 1 s
    out = _singular_points_under_a_cpu_alarm(
        "vars X:1 Y:1 Z:1 W:2\n-2*X^10*Y^2 + 3*X^3*Y*Z^8 + 2*X*Y^10*Z - X*Y^8*Z^3")
    assert out.factors == ["t^2 - 2", S.UNDERDETERMINED]


def test_jet3_matches_sympy():
    import sympy

    x, y = sympy.symbols("x y")
    rng = random.Random("3-jet vs sympy")
    for _ in range(40):
        f = S.poly_clean({(rng.randint(0, 7), rng.randint(0, 7)):
                          Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 8))})
        point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
        shifted = sympy.Poly(sympy.expand(sum(
            sympy.Rational(c.numerator, c.denominator)
            * (x + sympy.Rational(point[0].numerator, point[0].denominator)) ** i
            * (y + sympy.Rational(point[1].numerator, point[1].denominator)) ** j
            for (i, j), c in f.items())), x, y)
        expected = {e: Fraction(int(c.p), int(c.q)) for e, c in shifted.terms()
                    if sum(e) <= 3 and c}
        assert S._jet3_at(f, point) == expected, (f, point)


class TestSingularPoints:
    def test_za_cone(self):
        for a in (0, 1):
            pts = S.cone_singular_points(za_surface(Fraction(a)))
            assert [[str(c) for c in p] for p in pts] == [["0", "1", "0", "0"]]

    def test_smooth_conic_cone(self):
        f = parse("vars X:1 Y:1 Z:1\nX*Y - Z^2")
        assert S.cone_singular_points(f) == []

    def test_underdetermined_leftover_is_indeterminate(self):
        # W (X^3 + Y^3) vanishes to second order along the line X = Y = 0
        f = parse("vars X:1 Y:1 Z:1 W:1\nW*X^3 + W*Y^3")
        out = S.cone_singular_points(f)
        assert isinstance(out, S.Indeterminate)
        assert S.UNDERDETERMINED in out.factors

    def test_nodal_cubic_cone(self):
        f = parse("vars X:1 Y:1 Z:1\nX*Y*Z")
        pts = S.cone_singular_points(f)
        keys = {tuple(str(c) for c in p) for p in pts}
        assert keys == {("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")}

    def test_large_equal_weights_scale_by_the_identity_only(self):
        # with equal weights the scalings that keep the pivot at 1 are the
        # identity, so both points on the support {X, Y} are listed, at once
        f = parse("vars X:1000000000 Y:1000000000 Z:1000000000\nX^2*Z - Y^2*Z")
        start = time.perf_counter()
        pts = S.cone_singular_points(f)
        assert time.perf_counter() - start < 5
        assert [[str(c) for c in p] for p in pts] == [["0", "0", "1"], ["1", "1", "0"],
                                                     ["1", "-1", "0"]]

    def test_rational_points_in_every_variable_order(self):
        # the pivot is a coordinate of least weight, so these rational
        # points keep rational coordinates whichever variable comes first
        weights = {"X": 1, "Y": 2, "Z": 3}
        for order in itertools.permutations("XYZ"):
            header = "vars " + " ".join(f"{v}:{weights[v]}" for v in order)
            f = parse(header + "\n2*X^6 - 4*X^3*Z + 4*Z^2 + 4*X^2*Y^2 - 4*X^4*Y")
            pts = S.cone_singular_points(f)
            assert not isinstance(pts, S.Indeterminate), order
            back = {tuple(str(p[order.index(v)]) for v in "XYZ") for p in pts}
            assert back == {("0", "1", "0"), ("1", "1/2", "1/2")}, order
            # (Y^2 - X^4)^2 vanishes along a curve: the same Indeterminate
            # in every order, at once
            f = parse(header + "\nX^6*Y^6 - 2*X^10*Y^4 + X^14*Y^2")
            start = time.perf_counter()
            out = S.cone_singular_points(f)
            assert time.perf_counter() - start < 5, order
            assert out.factors == [S.UNDERDETERMINED], order

    def test_verdict_does_not_depend_on_variable_order(self):
        # weights whose supports each have one coordinate of least weight:
        # every order scales the same coordinate to 1, so every order
        # answers with the same number of points or every order refuses
        rng = random.Random(20)
        for _ in range(30):
            weights = (1, 2, 3)
            f = _form_singular_where_two_forms_vanish(rng, weights)
            verdicts = set()
            for order in itertools.permutations(range(3)):
                g = S.WeightedPoly(tuple("XYZ"[i] for i in order),
                                   tuple(weights[i] for i in order),
                                   {tuple(e[i] for i in order): c for e, c in f.items()})
                pts = S.cone_singular_points(g)
                verdicts.add(None if isinstance(pts, S.Indeterminate) else len(pts))
            assert len(verdicts) == 1, (f, verdicts)

    def test_point_count_does_not_depend_on_variable_order(self):
        rng = random.Random(1)
        for _ in range(20):
            weights = rng.choice([(1, 1, 2), (1, 2, 3), (1, 1, 3), (1, 2, 2)])
            f = _form_singular_where_two_forms_vanish(rng, weights)
            counts = set()
            for order in itertools.permutations(range(3)):
                g = S.WeightedPoly(tuple("XYZ"[i] for i in order),
                                   tuple(weights[i] for i in order),
                                   {tuple(e[i] for i in order): c for e, c in f.items()})
                try:
                    pts = S.cone_singular_points(g)
                except ValueError:          # the conductor cap: exit 1
                    continue
                if not isinstance(pts, S.Indeterminate):
                    counts.add(len(pts))
            assert len(counts) <= 1, (weights, f, counts)


def _random_form(rng, weights, d, size):
    monomials = [e for e in itertools.product(*(range(d // w + 1) for w in weights))
                 if sum(w * x for w, x in zip(weights, e)) == d]
    return {e: Fraction(rng.choice([-2, -1, 1, 2, 3]))
            for e in rng.sample(monomials, min(size, len(monomials)))}


def _form_singular_where_two_forms_vanish(rng, weights):
    """g^2 + c*h^2, or g^2 + h^4 with h of half the degree."""
    d = max(weights)
    g = _random_form(rng, weights, d, 2)
    if rng.random() < 0.5:
        h = _random_form(rng, weights, d, 2)
        h2 = S.poly_scale(S.poly_mul(h, h), Fraction(rng.choice([1, -1, 2])))
    else:
        h = _random_form(rng, weights, d // 2, 1) if d % 2 == 0 else {}
        h2 = S.poly_mul(S.poly_mul(h, h), S.poly_mul(h, h))
    return S.poly_add(S.poly_mul(g, g), h2)


class TestGerms:
    def test_node(self):
        f = {(1, 1): Fraction(1)}
        assert S.germ_classify(f, (Fraction(0), Fraction(0))) == S.GERM_NODE

    def test_cusp(self):
        f = {(0, 2): Fraction(1), (3, 0): Fraction(1)}
        assert S.germ_classify(f, (Fraction(0), Fraction(0))) == S.GERM_CUSP

    def test_smooth(self):
        f = {(1, 0): Fraction(1), (0, 2): Fraction(1)}
        assert S.germ_classify(f, (Fraction(0), Fraction(0))) == S.GERM_SMOOTH

    def test_translated_cusp(self):
        # cusp moved to (1, 2)
        f = {(0, 2): Fraction(1), (0, 1): Fraction(-4), (0, 0): Fraction(4),
             (3, 0): Fraction(1), (2, 0): Fraction(-3),
             (1, 0): Fraction(3)}
        f[(0, 0)] = f[(0, 0)] - 1
        assert S.germ_classify(f, (Fraction(1), Fraction(2))) == S.GERM_CUSP

    def test_point_not_on_curve(self):
        f = {(0, 0): Fraction(1)}
        with pytest.raises(ValueError):
            S.germ_classify(f, (Fraction(0), Fraction(0)))


class TestKodaira:
    def test_euler_numbers(self):
        assert S.kodaira_euler("I1") == 1
        assert S.kodaira_euler("I0*") == 6
        assert S.kodaira_euler("II*") == 10
        assert S.kodaira_euler("IV*") == 8
        assert S.kodaira_euler("III") == 3

    def test_reducibility(self):
        assert not kodaira_reducible("I1")
        assert not kodaira_reducible("II")
        assert kodaira_reducible("I2")
        assert kodaira_reducible("III")

    def test_fiber_configurations(self):
        configs = {tuple(c) for c in S.fiber_configurations()}
        assert configs == {("II*", "II"), ("II*", "I1", "I1")}

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            S.kodaira_euler("V")


def test_noether_check():
    # rank 9 - d and chi = 12 - d - rank = 3, checked by classifier.consistency
    def check(d, cfg):
        return consistency(SurfaceProfile(cfg, d, parse_config(cfg)))

    for d, cfg in [(8, "A1"), (6, "A1+A2"), (3, "3A2"), (1, "4A2")]:
        out = check(d, cfg)
        assert out["pass"], (d, cfg, out)
    assert not check(3, "A1")["pass"]
