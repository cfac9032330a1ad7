"""End-to-end acceptance checks, one per headline requirement.

Each test prints a single "criterion N ...: PASS/FAIL" line (visible with
pytest -s or in the captured output of a failing run).
"""

import collections
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from delpezzo import classifier as C
from delpezzo import fpgroups as F
from delpezzo import lattice as L
from delpezzo import plane_action as P
from delpezzo import surfaces as S
from delpezzo.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from field_reference import DenseCyclotomic, apply, cross, zeta
from fixtures import za_surface

N_CASES = 1000


@contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        print(f"criterion {n} ({desc}): FAIL")
        raise
    print(f"criterion {n} ({desc}): PASS")


# ---------------------------------------------------------------------------
# 1. golden degree table
# ---------------------------------------------------------------------------

def test_criterion_1_degree_table():
    with criterion(1, "golden degree table"):
        rows = C.lemma1_table()
        pairs = [(L.config_str(r.config), r.d) for r in rows]
        assert pairs == [("smooth", 9), ("A1", 8), ("A1+A2", 6), ("A4", 5),
                         ("D5", 4), ("E6", 3), ("E7", 2), ("E8", 1)]
        assert 7 not in {r.d for r in rows}          # the d = 7 gap
        assert "7" in C.D7_NOTE
        for row in rows:
            out = C.consistency(row)
            assert out["pass"], (row.name, out)
            assert L.config_rank(row.config) == 9 - row.d
            assert row.chi == 3


# ---------------------------------------------------------------------------
# 2. the six built-in quotient profiles
# ---------------------------------------------------------------------------

EXPECTED_PROFILES = {
    "z2_cone": (2, 8, "A1"),
    "z6": (6, 6, "A1+A2"),
    "z3": (3, 3, "3A2"),
    "z3xz3": (9, 1, "4A2"),
    "z4": (4, 4, "2A1+A3"),
    "quaternion8": (8, 2, "3A1+D4"),
}


def _profiles():
    return {name: P.quotient_profile(P.close_group(gens))
            for name, gens in P.builtin_actions().items()}


def test_criterion_2_builtin_profiles():
    with criterion(2, "six built-in quotient profiles"):
        profiles = _profiles()
        got = {name: (p.group_order, p.k2, L.config_str(p.config))
               for name, p in profiles.items()}
        assert got == EXPECTED_PROFILES


# ---------------------------------------------------------------------------
# 3. cover enumeration for the plane and the quadric cone
# ---------------------------------------------------------------------------

def test_criterion_3_cover_enumeration():
    with criterion(3, "cover enumeration with tagged exclusions"):
        p2 = C.enumerate_quotients("P2")
        assert {(s["degree"], s["config"]) for s in p2["survivors"]} == {
            (3, "3A2"), (9, "4A2")}
        q = C.enumerate_quotients("Q")
        assert {(s["degree"], s["config"]) for s in q["survivors"]} == {
            (2, "2A1+A3"), (4, "3A1+D4")}
        d6 = [e for e in q["exclusions"]
              if e["degree"] == 8 and e["config"] == "2A1+D6"]
        assert d6[0]["reason"] == C.EULER_MISMATCH
        assert d6[0]["paper_case"] == "2.3"
        a8 = [e for e in p2["exclusions"] if e["config"] == "A8"]
        assert a8[0]["paper_case"] == "1.2"
        a7 = [e for e in q["exclusions"]
              if e["degree"] == 4 and e["config"] == "A7"]
        assert a7[0]["paper_case"] == "2.2"
        # the forced-type exclusions over the A1+A2 top carry their own tags
        v3 = C.theorem1_report()["cover_analysis"]["V3"]
        assert v3["survivors"] == []
        assert [e["paper_case"] for e in v3["exclusions"]] == [
            C.FORCED_CASE_TAGS[2], C.FORCED_CASE_TAGS[3], C.FORCED_CASE_TAGS[6]]


# ---------------------------------------------------------------------------
# 4. boundary group orders and abelianizations
# ---------------------------------------------------------------------------

def test_criterion_4_boundary_groups():
    with criterion(4, "boundary group orders and abelianizations"):
        orders = {i: F.coset_enumerate(F.mumford_presentation(i))
                  for i in range(4, 9)}
        assert orders == {4: 5, 5: 12, 6: 24, 7: 48, 8: 120}
        for i in range(4, 9):
            torsion, free_rank = F.abelianization(F.mumford_presentation(i))
            assert free_rank == 0
            d = 9 - i
            assert torsion == ([d] if d > 1 else [])


# ---------------------------------------------------------------------------
# 5. elliptic fibre configurations
# ---------------------------------------------------------------------------

def test_criterion_5_fiber_enumeration():
    with criterion(5, "elliptic fibre enumeration"):
        configs = {tuple(c) for c in S.fiber_configurations()}
        assert configs == {("II*", "II"), ("II*", "I1", "I1")}
        for c in configs:
            assert sum(S.kodaira_euler(t) for t in c) == 12


# ---------------------------------------------------------------------------
# 6. the weighted hypersurfaces Z_a
# ---------------------------------------------------------------------------

def test_criterion_6_za_verification():
    with criterion(6, "Z_a singular locus and boundary germs"):
        for a in (0, 1):
            f = za_surface(Fraction(a))
            pts = S.cone_singular_points(f)
            assert [[str(c) for c in p] for p in pts] == [["0", "1", "0", "0"]]
            # boundary curve {X = 0} in chart Y = 1: a cusp at the origin
            bx = S.poly_specialize(f.terms, {0: Fraction(0)})
            germ = S.poly_specialize(bx, {0: Fraction(1)})
            assert S.germ_classify(germ, (Fraction(0), Fraction(0))) == S.GERM_CUSP
            # the curve {Y = 0} in weighted (X, Z, W) coordinates
            by = S.poly_specialize(f.terms, {1: Fraction(0)})
            curve = S.WeightedPoly(["X", "Z", "W"], [1, 2, 3], by)
            sing = S.cone_singular_points(curve)
            if a == 0:
                assert [[str(c) for c in p] for p in sing] == [["1", "0", "0"]]
                germ = S.poly_specialize(curve.terms, {0: Fraction(1)})
                assert S.germ_classify(germ, (Fraction(0), Fraction(0))) == S.GERM_CUSP
            else:
                assert sing == []


# ---------------------------------------------------------------------------
# 7. ramification inequality
# ---------------------------------------------------------------------------

def test_criterion_7_ramification():
    with criterion(7, "ramification inequality"):
        for d in (1, 2, 4, 9):
            out = C.ramification_constraints(d)
            assert out["singletons_only"]
            assert [] in out["feasible"]
            for multiset in out["feasible"]:
                assert len(multiset) <= 1
                if multiset:
                    assert multiset[0][1] == 1       # delta = 1 only


# ---------------------------------------------------------------------------
# 8. randomized property suites (>= 1000 cases each)
# ---------------------------------------------------------------------------

def _random_cyclotomic(rng, m):
    phi = len(cyclotomic_polynomial(m)) - 1
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)]
    return CyclotomicNumber((Fraction(i, m), c) for i, c in enumerate(coeffs))


def test_criterion_8a_cyclotomic_axioms():
    with criterion("8a", "cyclotomic field axioms, >=1000 cases"):
        rng = random.Random(801)
        for _ in range(N_CASES):
            m = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            a, b, c = (_random_cyclotomic(rng, m) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert not a - a
            if b:
                assert a * b.inverse() * b == a
                assert b * b.inverse() == 1


def _random_root(rng):
    d = rng.choice([1, 2, 3, 4, 5, 6, 12])
    return Fraction(rng.randrange(d), d)


def _cyclotomic_coords(p):
    """The coordinates of an exponent point in the dense reference field."""
    return [DenseCyclotomic.zero() if e is None else zeta(e) for e in p.exps]


def _random_point_on(rng, normal):
    """A random point of the line normal . x = 0, with coordinates 0 or
    roots of unity; normal has a zero coordinate, as fixed-line normals do."""
    support = [k for k in range(3) if normal[k] is not None]
    exps = [None if k in support else _random_root(rng) for k in range(3)]
    if len(support) == 2 and rng.random() < 0.7:
        # zeta^a x_i + zeta^b x_j = 0 holds for x_i = zeta^s, x_j = -zeta^(s + a - b)
        i, j = support
        s = _random_root(rng)
        exps[i], exps[j] = s, s + normal[i] - normal[j] + Fraction(1, 2)
    if all(e is None for e in exps):
        exps[next(k for k in range(3) if k not in support)] = Fraction(0)
    return P.ProjectivePoint(exps)


def test_criterion_8b_fixed_points():
    with criterion("8b", "fixed loci are pointwise fixed, >=1000 cases"):
        rng = random.Random(802)
        actions = dict(P.builtin_actions())
        # a transposition with a scalar and the reflection diag(1, 1, -1):
        # the elements that swap x0, x1 and scale x2 fix lines whose
        # normals have two nonzero coordinates
        actions["reflections"] = P.parse_action(
            '[{"perm": [1, 0, 2], "scalars": ["0", "1/3", "0"]},'
            ' {"perm": [0, 1, 2], "scalars": ["0", "0", "1/2"]}]')
        groups = {name: P.close_group(gens) for name, gens in actions.items()}
        loci = {name: [(g, P.fixed_locus(g)) for g in grp.non_identity()]
                for name, grp in groups.items()}
        on_lines = collections.Counter()
        for _ in range(N_CASES):
            name = rng.choice(sorted(loci))
            g, points = rng.choice(loci[name])
            p = rng.choice(points)
            assert p.transformed(g) == p
            if len(points) == 1:
                # a random point of the pointwise-fixed line pole^perp is
                # fixed too, and is not the pole
                normal = P._normal(p)
                assert None in normal.exps
                q = _random_point_on(rng, normal.exps)
                assert q != p
                coords = _cyclotomic_coords(q)
                dot = sum((a * b for a, b in zip(_cyclotomic_coords(normal), coords)),
                          DenseCyclotomic.zero())
                assert dot.is_zero()
                assert q.transformed(g) == q
                assert all(c.is_zero() for c in cross(apply(g, coords), coords))
                on_lines[3 - normal.exps.count(None)] += 1
        assert on_lines[1] >= 100 and on_lines[2] >= 20


def test_criterion_8c_orbit_sizes():
    with criterion("8c", "orbit sizes divide the group order, >=1000 cases"):
        rng = random.Random(803)
        groups = [P.close_group(gens) for _, gens in
                  sorted(P.builtin_actions().items())]
        for _ in range(N_CASES):
            grp = rng.choice(groups)
            exps = [None if rng.random() < 0.3 else _random_root(rng) for _ in range(3)]
            if all(e is None for e in exps):
                exps[rng.randrange(3)] = Fraction(0)
            p = P.ProjectivePoint(exps)
            orbit = {p.transformed(g) for g in grp.elements}
            assert grp.order % len(orbit) == 0


def test_criterion_8d_hj_normalize():
    with criterion("8d", "Hirzebruch-Jung reduction properties, >=1000 cases"):
        rng = random.Random(804)
        for _ in range(N_CASES):
            r = rng.randint(2, 60)
            while True:
                a, b = rng.randrange(r), rng.randrange(r)
                if math.gcd(r, math.gcd(a, b)) == 1:
                    break
            ra, aa, ba = L.hj_normalize(r, a, b)
            rb, ab, bb = L.hj_normalize(r, b, a)
            assert ra == rb and {aa, ba} == {ab, bb}
            # 1/r(a, r-a) with gcd(a, r) = 1 is the A_{r-1} germ
            while True:
                a = rng.randrange(1, r)
                if math.gcd(a, r) == 1:
                    break
            r2, a2, b2 = L.hj_normalize(r, a, r - a)
            assert r2 == r and (a2 + b2) % r2 == 0


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_criterion_8e_smith_normal_form():
    with criterion("8e", "Smith normal form recomposition, >=1000 cases"):
        rng = random.Random(805)
        for _ in range(N_CASES):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            u, d, v = F.smith_normal_form(m)
            prod = [[sum(u[i][k] * m[k][j] for k in range(rows))
                     for j in range(cols)] for i in range(rows)]
            prod = [[sum(prod[i][k] * v[k][j] for k in range(cols))
                     for j in range(cols)] for i in range(rows)]
            assert prod == d
            assert abs(_det(u)) == 1 and abs(_det(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                assert x >= 0 and y >= 0
                if x != 0:
                    assert y % x == 0
                else:
                    assert y == 0
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0


def test_criterion_8f_blow_down():
    with criterion("8f", "blow-down bookkeeping, >=1000 cases"):
        rng = random.Random(806)
        for _ in range(N_CASES):
            n = rng.randint(2, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.randint(-3, -1)
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.randint(0, 2)
            e = rng.randrange(n)
            m[e][e] = -1
            c = L.CurveConfig([f"C{i}" for i in range(n)], m)
            out = L.blow_down(c, e)
            assert len(out.labels) == n - 1
            keep = [k for k in range(n) if k != e]
            for a, i in enumerate(keep):
                for b, j in enumerate(keep):
                    assert out.matrix[a][b] == m[i][j] + m[i][e] * m[j][e]
            # contracting a (-1)-curve raises its neighbours' self-intersections
            for a, i in enumerate(keep):
                assert out.matrix[a][a] == m[i][i] + m[i][e] ** 2


def test_criterion_8g_euler_identity():
    with criterion("8g", "Euler identity for weighted forms, >=1000 cases"):
        rng = random.Random(807)
        for _ in range(N_CASES):
            nvars = rng.randint(2, 4)
            weights = [rng.randint(1, 4) for _ in range(nvars)]
            deg = rng.randint(4, 12)
            terms = {}
            for _ in range(rng.randint(1, 5)):
                for _attempt in range(50):
                    e = [rng.randint(0, deg) for _ in range(nvars)]
                    if sum(w * x for w, x in zip(weights, e)) == deg:
                        terms[tuple(e)] = Fraction(rng.randint(-5, 5))
                        break
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                continue
            # sum_i w_i x_i df/dx_i == deg * f
            lhs = {}
            for i in range(nvars):
                di = S.poly_diff(terms, i)
                for e, c in di.items():
                    ne = e[:i] + (e[i] + 1,) + e[i + 1:]
                    lhs[ne] = lhs.get(ne, 0) + weights[i] * c
            rhs = {e: deg * c for e, c in terms.items()}
            assert {e: c for e, c in lhs.items() if c} == rhs


def test_criterion_8h_euler_multiplicativity():
    with criterion("8h", "Euler multiplicativity on the built-ins, >=1000 cases"):
        rng = random.Random(808)
        profiles = _profiles()
        for _ in range(N_CASES):
            name = rng.choice(sorted(profiles))
            p = profiles[name]
            n = p.group_order
            preimages = sum(o.size for o in p.orbits)
            s = len(p.orbits)
            if not p.branch_lines:
                # the literal unramified count over isolated special points
                assert 3 - preimages == n * (3 - s)
            check = p.euler_check
            assert check["pass"]
            assert check["chi_free"] % n == 0
            assert check["chi_quotient"] == 3
            # the strata partition the plane: chi adds up to chi(P^2) = 3
            assert check["chi_free"] + check["chi_line_strata"] \
                + check["special_points"] == 3
            # a random perturbation of the free stratum breaks divisibility
            delta = rng.randint(1, n - 1)
            assert (check["chi_free"] + delta) % n != 0


# ---------------------------------------------------------------------------
# 9. cross-module agreement and the final report
# ---------------------------------------------------------------------------

def test_criterion_9_cross_module_agreement():
    with criterion(9, "cross-module agreement and report statuses"):
        out = C.cross_module_check()
        assert out["pass"]
        assert set(out["builtins"]) == set(EXPECTED_PROFILES)
        for name, entry in out["builtins"].items():
            assert entry["matched"], (name, entry)
        report = C.theorem1_report()
        assert report["statuses"]["V8"] == "not dominated"
        assert report["statuses"]["V8'"] == "not a quotient; domination open"
