import contextlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from delpezzo.cyclotomic import CyclotomicNumber
from delpezzo import plane_action
from delpezzo.lattice import (SMOOTH, A, D, NonGorensteinCyclic, cartan_determinant, config_str,
                              hj_normalize, local_noether_terms, local_pi1_order)
from delpezzo.plane_action import (
    ActionError,
    GroupCapExceeded,
    MonomialMatrix,
    ProjectivePoint,
    Unsupported,
    _closure,
    _generators,
    _normal,
    _orbits,
    builtin_actions,
    classify_stabilizer,
    close_group,
    eigen_data,
    fixed_locus,
    parse_action,
    parse_exponent,
    quotient_profile,
    tangent_eigenvalues,
)
from field_reference import DenseCyclotomic, apply, cross, zeta


def mono(perm, scalars):
    return MonomialMatrix(tuple(perm), tuple(parse_exponent(s) for s in scalars))


def pt(*coords):
    """The point with these coordinates: 0, 1, -1, or a string "k/m" for
    the root of unity zeta^(k/m)."""
    known = {0: None, 1: Fraction(0), -1: Fraction(1, 2)}
    return ProjectivePoint([known[c] if c in known else parse_exponent(c)
                            for c in coords])


def _stabilizer(group, p):
    """The stabilizer of p, by brute force over the group's elements."""
    return [g for g in group.elements if p.transformed(g) == p]


def _on_line(g, pole, p):
    """The membership rule of quotient_profile: g's fixed points are its
    pole and the line pole^perp, so p lies on the line exactly when it is
    another fixed point of g."""
    return p != pole and p.transformed(g) == p


def _transpose_image(g, normal):
    """The normal of g's image of the line {normal . x = 0}: the normal
    under the inverse transpose of g, which permutes like g and negates
    its scalars."""
    return normal.transformed(MonomialMatrix(g.perm, tuple(-s for s in g.scalars)))


class TestMonomialMatrix:
    def test_identity_and_inverse(self):
        g = mono((1, 2, 0), ("1/3", "0", "1/2"))
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()

    def test_associativity(self):
        a = mono((1, 0, 2), ("1/4", "0", "0"))
        b = mono((0, 2, 1), ("0", "1/3", "0"))
        c = mono((2, 1, 0), ("1/2", "0", "1/5"))
        assert (a * b) * c == a * (b * c)

    def test_apply_matches_multiplication(self):
        a = mono((1, 2, 0), ("1/3", "0", "1/2"))
        b = mono((0, 2, 1), ("0", "1/4", "0"))
        p = pt(1, "1/3", "2/5")
        assert p.transformed(b).transformed(a) == p.transformed(a * b)

    def test_projective_order(self):
        g = mono((0, 1, 2), ("0", "1/3", "2/3"))
        assert g.order() == 3
        # projectively trivial scalar matrix
        s = mono((0, 1, 2), ("1/3", "1/3", "1/3"))
        assert s.is_identity()

    def test_bad_perm_rejected(self):
        with pytest.raises(ActionError):
            mono((0, 0, 2), ("0", "0", "0"))

    def test_scalar_multiples_are_equal(self):
        s = mono((0, 1, 2), ("1/3", "1/3", "1/3"))
        assert s == MonomialMatrix.identity()
        g = mono((2, 0, 1), ("1/12", "5/361", "1/2"))
        assert s * g == g and hash(s * g) == hash(g)
        assert len({g, s * g}) == 1
        assert mono((1, 0, 2), ("1/4", "3/4", "1/2")) == mono((1, 0, 2), ("0", "1/2", "1/4"))
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert mono((1, 0, 2), ("1/4", "3/4", "1/2")).scalars == (0, half, quarter)
        # dividing out scalars[0] reduces every exponent into [0, 1)
        assert mono((0, 1, 2), ("1/2", "0", "1/4")).scalars == (0, half, 3 * quarter)
        assert mono((0, 1, 2), ("1/2", "0", "0")) == mono((0, 1, 2), ("0", "1/2", "1/2"))

    def test_order_matches_powers(self):
        # closed-form order against the first power that is a scalar matrix
        def reference_order(g):
            power = g
            for k in itertools.count(1):
                if power.perm == (0, 1, 2) and len(set(power.scalars)) == 1:
                    return k
                power = power * g

        rng = random.Random(5)
        perms = list(itertools.permutations(range(3)))
        seen = set()
        for _ in range(80):
            d = rng.choice([1, 2, 3, 4, 6, 12, 361])
            perm = rng.choice(perms)
            exps = [Fraction(rng.randrange(d), d) for _ in range(3)]
            kind = rng.choice(["any", "reflection", "scalar"]) if perm == (0, 1, 2) else "any"
            if kind == "reflection":
                i, j = rng.sample(range(3), 2)
                exps[i] = exps[j]
            elif kind == "scalar":
                exps = [exps[0]] * 3
            g = MonomialMatrix(perm, tuple(exps))
            assert g.order() == reference_order(g), g
            cycles = 3 - sum(perm[k] == k for k in range(3))
            seen.add((d, kind, cycles))
        assert {361, 12} <= {d for d, _, _ in seen}
        assert {"reflection", "scalar"} <= {k for _, k, _ in seen}
        assert {2, 3} <= {c for _, _, c in seen}
        assert mono((0, 1, 2), ("1/12", "1/12", "1/12")).order() == 1
        assert mono((0, 1, 2), ("0", "1/12", "1/361")).order() == 12 * 361


class TestParseAction:
    def test_bare_list(self):
        gens = parse_action('[{"perm": [0, 1, 2], "scalars": ["0", "1/3", "2/3"]}]')
        assert len(gens) == 1
        assert gens[0].order() == 3

    def test_object_with_generators(self):
        text = json.dumps({"generators": [
            {"perm": [1, 2, 0], "scalars": ["0", "0", "0"]}]})
        assert parse_action(text)[0].order() == 3

    def test_errors(self):
        with pytest.raises(ActionError):
            parse_action("not json")
        with pytest.raises(ActionError):
            parse_action('{"nope": []}')
        with pytest.raises(ActionError):
            parse_action('[{"perm": [0, 1], "scalars": ["0"]}]')

    @pytest.mark.parametrize("perm", [[0, 1, 2.0], [False, True, 2], [0, 1, "2"], [0, 1, None]])
    def test_perm_entries_must_be_ints(self, perm):
        text = json.dumps([{"perm": perm, "scalars": ["1/2", "0", "0"]}])
        with pytest.raises(ActionError, match="is not a permutation of 0,1,2"):
            parse_action(text)

    def test_parse_exponent(self):
        assert parse_exponent("2/3") == Fraction(2, 3)
        assert parse_exponent(" 0 ") == 0
        assert parse_exponent("1/2").denominator == 2
        assert parse_exponent("-1/4") == parse_exponent("3/4") == parse_exponent("7/4")
        assert parse_exponent("6/3") == 0
        message = r"bad root-of-unity literal '1' \(expected 'k/m' or '0'\)"
        with pytest.raises(ValueError, match=message):
            parse_exponent("1")
        with pytest.raises(ValueError):
            parse_exponent("a/3")
        with pytest.raises(ZeroDivisionError):
            parse_exponent("1/0")
        with pytest.raises(ActionError, match="generator 0, scalar 2: "):
            parse_action('[{"perm": [0, 1, 2], "scalars": ["0", "1/3", "1/0"]}]')


def test_action_json_round_trip():
    # generators -> action JSON with "k/m" scalars, k/m unreduced and
    # outside [0, 1) too -> parse_action
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    exponents = st.integers(1, 400).flatmap(
        lambda m: st.tuples(st.integers(-m, 2 * m), st.just(m)))
    generator = st.tuples(st.permutations(range(3)), st.lists(exponents, min_size=3, max_size=3))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(generator, min_size=1, max_size=4), st.booleans())
    def check(raw, named):
        gens = [MonomialMatrix(tuple(perm), tuple(Fraction(k, m) for k, m in exps))
                for perm, exps in raw]
        body = [{"perm": list(perm), "scalars": [f"{k}/{m}" for k, m in exps]}
                for perm, exps in raw]
        text = json.dumps({"name": "drawn", "generators": body} if named else body)
        assert parse_action(text) == gens

    check()


class TestCloseGroup:
    def test_builtin_orders(self):
        expected = {"z2_cone": 2, "z6": 6, "z3": 3, "z3xz3": 9,
                    "z4": 4, "quaternion8": 8}
        for name, gens in builtin_actions().items():
            assert close_group(gens).order == expected[name], name

    def test_cap(self):
        gens = builtin_actions()["z3xz3"]
        with pytest.raises(GroupCapExceeded):
            close_group(gens, cap=4)


class TestFixedLocus:
    def test_distinct_eigenvalues(self):
        g = mono((0, 1, 2), ("0", "1/3", "2/3"))
        points = fixed_locus(g)
        assert len(points) == 3
        assert set(points) == {pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}

    def test_pseudo_reflection_line(self):
        g = mono((0, 1, 2), ("0", "0", "1/2"))
        pole = pt(0, 0, 1)
        assert fixed_locus(g) == [pole]
        assert _normal(pole) == pole
        assert _on_line(g, pole, pt(1, 0, 0))
        assert _on_line(g, pole, pt(1, "1/5", 0))
        assert not _on_line(g, pole, pole)
        assert not _on_line(g, pole, pt(1, 0, 1))

    def test_permutation_fixed_points(self):
        g = mono((1, 2, 0), ("0", "0", "0"))
        assert pt(1, 1, 1) in fixed_locus(g)

    def test_identity_rejected(self):
        with pytest.raises(ActionError):
            fixed_locus(MonomialMatrix.identity())

    def test_fixed_points_are_fixed(self):
        for gens in builtin_actions().values():
            for g in close_group(gens).non_identity():
                points = fixed_locus(g)
                assert len(points) in (1, 3)
                for p in points:
                    assert p.transformed(g) == p
                    # a lone point is a pole: g acts on the tangent plane
                    # there as a scalar, fixing every direction of its line
                    t1, t2 = tangent_eigenvalues(g, p)
                    assert (t1 == t2) == (len(points) == 1)
                if len(points) == 1:
                    assert _transpose_image(g, _normal(points[0])) == _normal(points[0])


class TestTangent:
    def test_diagonal_case(self):
        g = mono((0, 1, 2), ("0", "1/3", "2/3"))
        assert sorted(tangent_eigenvalues(g, pt(1, 0, 0))) == [Fraction(1, 3), Fraction(2, 3)]
        # at (0, 1, 0): 1/w and w^2/w
        assert sorted(tangent_eigenvalues(g, pt(0, 1, 0))) == [Fraction(1, 3), Fraction(2, 3)]
        # a reflection: 1 along its fixed line, -1 across it, in [0, 1)
        r = mono((0, 1, 2), ("1/2", "1/2", "0"))
        assert sorted(tangent_eigenvalues(r, pt(1, 0, 0))) == [0, Fraction(1, 2)]

    def test_unfixed_point_rejected(self):
        g = mono((0, 1, 2), ("0", "1/3", "2/3"))
        with pytest.raises(ActionError):
            tangent_eigenvalues(g, pt(1, 1, 1))


class TestHJ:
    def test_smooth_cases(self):
        assert hj_normalize(1, 0, 0) == (1, 0, 0)
        assert hj_normalize(2, 0, 1) == (1, 0, 0)      # pseudo-reflection
        assert hj_normalize(6, 2, 3) == (1, 0, 0)

    def test_du_val_cases(self):
        assert hj_normalize(2, 1, 1) == (2, 1, 1)
        assert hj_normalize(4, 1, 3) == (4, 1, 3)

    def test_symmetry(self):
        for (r, a, b) in [(12, 5, 8), (7, 2, 3), (9, 4, 6)]:
            ra, aa, ba = hj_normalize(r, a, b)
            rb, ab, bb = hj_normalize(r, b, a)
            assert ra == rb and {aa, ba} == {ab, bb}

    def test_non_faithful_rejected(self):
        with pytest.raises(ValueError):
            hj_normalize(4, 2, 2)


class TestClassifyStabilizer:
    def test_a2_point(self):
        group = close_group(builtin_actions()["z3"])
        p = pt(0, 0, 1)
        assert classify_stabilizer(_stabilizer(group, p), p) == A(2)

    def test_smooth_point_in_z6(self):
        group = close_group(builtin_actions()["z6"])
        # full stabilizer but reflections reduce the germ to a smooth one
        p = pt(1, 0, 0)
        assert classify_stabilizer(_stabilizer(group, p), p) == SMOOTH

    def test_d4_point(self):
        group = close_group(builtin_actions()["quaternion8"])
        p = pt(1, 0, 0)
        assert classify_stabilizer(_stabilizer(group, p), p) == D(4)

    def test_d6_point(self):
        # binary dihedral of order 16: |H^ab| = 4 picks D6 over A15
        group = close_group([mono((0, 1, 2), ("0", "7/8", "3/4")),
                             mono((2, 1, 0), ("0", "1/2", "1/2"))])
        assert group.order == 16
        p = pt(0, 1, 0)
        assert classify_stabilizer(_stabilizer(group, p), p) == D(6)
        profile = quotient_profile(group)
        assert (profile.k2, config_str(profile.config)) == (1, "2A1+D6")

    def test_non_gorenstein(self):
        g = mono((0, 1, 2), ("0", "1/3", "1/3"))
        group = close_group([g])
        p = pt(1, 0, 0)
        out = classify_stabilizer(_stabilizer(group, p), p)
        assert out == NonGorensteinCyclic(3, 1, 1)

    def test_trivial_stabilizer_rejected(self):
        group = close_group(builtin_actions()["z3"])
        p = pt(1, -1, "1/5")
        with pytest.raises(ActionError):
            classify_stabilizer(_stabilizer(group, p), p)

    def test_quaternion_abelianization(self):
        # Q8 / [Q8, Q8] = Q8 / {+-1} is the Klein four-group, det(Cartan(D4))
        group = close_group(builtin_actions()["quaternion8"])
        p = pt(1, 0, 0)
        stab = _stabilizer(group, p)
        assert len(stab) == 8
        assert classify_stabilizer(stab, p) == D(4)
        assert _all_pairs_abelianization_order(stab) == cartan_determinant(D(4)) == 4


def _all_pairs_abelianization_order(elements):
    """|H / [H,H]| with [H,H] generated by the commutators of all pairs."""
    commutators = {x * y * x.inverse() * y.inverse()
                   for x, y in itertools.combinations(elements, 2)}
    return len(elements) // len(_closure(commutators, len(elements)))


def test_stabilizer_generators_against_all_pairs():
    # greedy generators span the stabilizer, the abelian and SL(2) verdicts
    # read off them agree with the definitions over all pairs or all
    # elements, and the type of an SL(2) stabilizer has |H| = local_pi1_order
    # and |H^ab| = det(Cartan)
    rng = random.Random(1211)
    perms = list(itertools.permutations(range(3)))
    # binary dihedral groups of order 4k <= 24 at [1, 0, 0], D4 ... D8 (order
    # 24, as E6), come first: the draws below meet no SL(2) stabilizer.  Only
    # the draws count toward the 300 stabilizers and the non-abelian floor
    dihedral = [[mono((0, 1, 2), ("0", f"1/{2 * k}", f"{2 * k - 1}/{2 * k}")),
                 mono((0, 2, 1), ("0", "0", "1/2"))] for k in range(2, 7)]
    stabilizers = non_abelian = sl2 = 0
    while stabilizers < 300:
        seeded = not dihedral
        if dihedral:
            gens = dihedral.pop()
        else:
            m = rng.choice((2, 3, 4, 6))
            gens = [MonomialMatrix(rng.choice(perms), tuple(Fraction(rng.randrange(m), m)
                                                            for _ in range(3)))
                    for _ in range(rng.choice((1, 2)))]
        try:
            group = close_group(gens, cap=24)
        except GroupCapExceeded:
            continue
        points = {p for g in group.non_identity() for p in fixed_locus(g)}
        seen = set()
        for p, _, stab in _orbits(group, sorted(points, key=ProjectivePoint.key)):
            if frozenset(stab) in seen:
                continue
            seen.add(frozenset(stab))
            stabilizers += seeded
            picks = _generators(stab)
            assert _closure(picks, len(stab)) == set(stab)
            abelian = all(x * y == y * x for x, y in itertools.combinations(stab, 2))
            assert abelian == all(x * y == y * x for x, y in itertools.combinations(picks, 2))
            non_abelian += seeded and not abelian
            if abelian:
                continue
            in_sl2 = all(not sum(tangent_eigenvalues(g, p)) % 1 for g in stab)
            verdict = classify_stabilizer(stab, p)
            refused = Unsupported(f"non-abelian stabilizer with reflections at {p}")
            assert (verdict == refused) == (not in_sl2)
            if in_sl2:
                sl2 += 1
                assert local_pi1_order(verdict) == len(stab)
                assert cartan_determinant(verdict) == _all_pairs_abelianization_order(stab)
    assert non_abelian >= 30 and sl2 >= 5, (non_abelian, sl2)


@pytest.mark.parametrize("gens, bound", [
    # diag(1, 1, z26), diag(1, z26, 1): Z/26 x Z/26, refused as non-cyclic abelian
    ([mono((0, 1, 2), ("0", "0", "1/26")), mono((0, 1, 2), ("0", "1/26", "0"))], 2000),
    # a diagonal group of order 144, refused the same way
    ([mono((0, 1, 2), ("0", "7/12", "0")), mono((0, 1, 2), ("0", "1/2", "1/12"))], 500),
    (builtin_actions()["quaternion8"], 70),
    # the binary dihedral group of order 16 of test_d6_point
    ([mono((0, 1, 2), ("0", "7/8", "3/4")), mono((2, 1, 0), ("0", "1/2", "1/2"))], 250),
], ids=["order676", "order144", "quaternion8", "d6"])
def test_quotient_profile_constructions_are_bounded(monkeypatch, gens, bound):
    # a deterministic work counter: a scan over all pairs of stabilizer
    # elements would build |H|^2 matrices and break these bounds
    group = close_group(gens)
    built = [0]
    new = MonomialMatrix.__new__

    def counted(cls, *args):
        built[0] += 1
        return new(cls, *args)

    monkeypatch.setattr(MonomialMatrix, "__new__", staticmethod(counted))
    with contextlib.suppress(ActionError):       # a refusal counts too
        quotient_profile(group)
    assert built[0] <= bound


PROFILES = {
    "z2_cone": (2, 8, "A1"),
    "z6": (6, 6, "A1+A2"),
    "z3": (3, 3, "3A2"),
    "z3xz3": (9, 1, "4A2"),
    "z4": (4, 4, "2A1+A3"),
    "quaternion8": (8, 2, "3A1+D4"),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_builtin_quotient_profiles(name):
    from delpezzo.lattice import config_str

    profile = quotient_profile(close_group(builtin_actions()[name]))
    order, k2, config = PROFILES[name]
    assert profile.group_order == order
    assert profile.k2 == k2
    assert config_str(profile.config) == config
    assert profile.euler_check["pass"]
    for orbit in profile.orbits:
        assert profile.group_order % orbit.size == 0
        assert orbit.size * orbit.stabilizer_order == profile.group_order


def test_bench_tracer_sees_plane_action(monkeypatch):
    # the traced benchmark run patches these names; a rewrite that drops
    # or renames one would silently empty the plane_action metrics
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench.tracing import Tracer, instrument
    tracer = Tracer()
    instrument(tracer)
    try:
        group = plane_action.close_group(builtin_actions()["quaternion8"])
        profile = plane_action.quotient_profile(group)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["plane_action.close_group"][0] == 1
    assert tracer.counts["plane_action.group_elements"] == 8
    assert tracer.counts["plane_action.orbits_found"] == len(profile.orbits)
    assert totals["plane_action.classify_stabilizer"][0] >= 1


def test_bench_tracer_installs_and_uninstalls(monkeypatch, capsys):
    # the traced benchmark run looks every patched name up in its owner's
    # __dict__: a rewrite that deletes one fails here, and uninstalling
    # must put every original back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench.tracing import Tracer, instrument
    from delpezzo import classifier, cli, cyclotomic, fpgroups, lattice, surfaces

    owners = [classifier, cli, cyclotomic, fpgroups, lattice, plane_action, surfaces,
              plane_action.ProjectivePoint, plane_action.OrbitData,
              cyclotomic.CyclotomicNumber, fpgroups.CosetTable]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    instrument(tracer)
    try:
        patched = {(target, name) for target, name, _ in tracer._patched}
        assert (plane_action.ProjectivePoint, "__init__") in patched
        for name in ("__init__", "__mul__", "__rmul__", "inverse", "reduce_conductor",
                     "as_root_of_unity"):
            assert (cyclotomic.CyclotomicNumber, name) in patched, name
        assert [dict(vars(owner)) for owner in owners] != before
        # the singular points [1, 0, +-i] are read through the reduction
        assert cli.main(["wps", "--poly", "vars X:1 Y:1 Z:1\n-X^2*Y - Y*Z^2",
                         "--singular"]) == 0
        assert "zeta(1/4)" in capsys.readouterr().out
        assert tracer.totals()["cyclotomic.reduce_conductor"][0] > 0
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_unsupported_action_raises():
    # Z/3 acting with a non-Gorenstein isolated fixed point
    g = mono((0, 1, 2), ("0", "1/3", "1/3"))
    with pytest.raises(ActionError):
        quotient_profile(close_group([g]))


# ---------------------------------------------------------------------------
# one image pass per orbit over G-stable lists in key order
# ---------------------------------------------------------------------------

def _candidates_and_poles(group):
    """The candidate points of quotient_profile, recomputed here, and the
    poles of the pointwise-fixed lines, each with the elements fixing its
    line pointwise."""
    points, poles = set(), {}
    for g in group.non_identity():
        fixed = fixed_locus(g)
        points.update(fixed)
        if len(fixed) == 1:
            poles.setdefault(fixed[0], []).append(g)
    return points, poles


def _seeded_groups():
    """300 seeded monomial groups of orders 2 to 16, scalars in mu_2, mu_3
    or mu_4."""
    rng = random.Random(1103)
    perms = list(itertools.permutations(range(3)))
    groups = 0
    while groups < 300:
        m = rng.choice((2, 3, 4))
        gens = [MonomialMatrix(rng.choice(perms), tuple(Fraction(rng.randrange(m), m)
                                                        for _ in range(3)))
                for _ in range(rng.choice((1, 2)))]
        try:
            group = close_group(gens, cap=16)
        except GroupCapExceeded:
            continue
        if group.order == 1:
            continue
        groups += 1
        yield group


def test_orbit_pass_against_brute_force():
    answered = 0
    for group in _seeded_groups():
        points, poles = _candidates_and_poles(group)
        brute = {}           # orbit minimum -> (orbit size, stabilizer order)
        for first, orbit, stab in _orbits(group, sorted(points, key=ProjectivePoint.key)):
            full = {first.transformed(g) for g in group.elements}
            assert set(orbit) == full and first == min(full, key=ProjectivePoint.key)
            assert stab == _stabilizer(group, first)
            brute[first] = (len(full), len(stab))
        try:
            profile = quotient_profile(group)
        except ActionError:
            continue
        answered += 1
        keys = [o.representative.key() for o in profile.orbits]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for o in profile.orbits:
            assert brute[o.representative] == (o.size, o.stabilizer_order)
        keys = [b.normal.key() for b in profile.branch_lines]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        normals = {_normal(v): v for v in poles}
        for b in profile.branch_lines:
            # the line orbit under the inverse transpose, not through poles
            full = {_transpose_image(g, b.normal) for g in group.elements}
            assert b.normal == min(full, key=ProjectivePoint.key)
            assert b.orbit_size == len(full) and full <= set(normals)
            assert b.e == len(poles[normals[b.normal]]) + 1
        pole_orbits = {frozenset(v.transformed(g) for g in group.elements) for v in poles}
        assert len(profile.branch_lines) == len(pole_orbits)
    assert answered >= 150, answered


def test_orbits_refuse_a_list_that_is_not_g_stable():
    group = close_group(builtin_actions()["z3"])
    with pytest.raises(RuntimeError, match="not G-stable"):
        list(_orbits(group, [pt(1, 1, 1)]))


def test_refusal_names_the_key_least_unsupported_point():
    gens = parse_action('[{"perm":[0,1,2],"scalars":["1/2","0","0"]},'
                        '{"perm":[0,2,1],"scalars":["0","0","0"]}]')
    with pytest.raises(ActionError, match=r"of order 4 at \[0, 1, 1\]\)$"):
        quotient_profile(close_group(gens))


def test_k2_from_the_local_noether_terms():
    # Z/7 acting by (1, 2, 4): three 1/7(1, 3) points give 9 - 3*3 + 3*3/7
    # = 9/7 = 3^2/7, which the library still refuses as non-integral
    group = close_group([mono((0, 1, 2), ("1/7", "2/7", "4/7"))])
    terms = [local_noether_terms(classify_stabilizer(_stabilizer(group, p), p))
             for p in (pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))]
    assert terms == [(3, Fraction(3, 7))] * 3
    with pytest.raises(ActionError, match=r"K\^2 = 3\^2/7 is not an integer"):
        quotient_profile(group)


def test_k2_mismatch_is_an_internal_error(monkeypatch):
    def off_by_one(germ):
        length, c = local_noether_terms(germ)
        return length + 1, c

    monkeypatch.setattr(plane_action, "local_noether_terms", off_by_one)
    with pytest.raises(RuntimeError, match="local Noether terms"):
        quotient_profile(close_group(builtin_actions()["z3"]))


def test_point_normalisation():
    assert pt(1, 0, 0).exps == (Fraction(0), None, None)
    assert pt("1/3", "5/6", 0) == pt(1, -1, 0)
    assert pt(1, -1, 0).exps == (Fraction(0), Fraction(1, 2), None)
    assert hash(pt("1/3", "5/6", 0)) == hash(pt(1, -1, 0))
    assert ProjectivePoint((None, Fraction(1, 4), Fraction(3, 4))).exps == (
        None, Fraction(0), Fraction(1, 2))
    assert ProjectivePoint((Fraction(1, 2), Fraction(7, 4), Fraction(-1, 3))).exps == (
        Fraction(0), Fraction(1, 4), Fraction(1, 6))
    assert ProjectivePoint.__slots__ == ("exps",)
    assert pt(1, 0, 0) in fixed_locus(mono((0, 1, 2), ("0", "1/3", "2/3")))
    with pytest.raises(ActionError):
        ProjectivePoint((None, None, None))
    with pytest.raises(ActionError):
        ProjectivePoint((Fraction(0), None))


# ---------------------------------------------------------------------------
# exponent arithmetic against the cyclotomic reference
# ---------------------------------------------------------------------------

def test_exponent_str_matches_cyclotomic_reference():
    checked = 0
    for m in range(1, 37):
        for k in range(m):
            if math.gcd(k, m) != 1:
                continue
            e = Fraction(k, m)
            ref = CyclotomicNumber.zeta(m, k).reduce_conductor()
            assert str(ProjectivePoint((Fraction(0), e, None))) == f"[1, {ref}, 0]"
            checked += 1
    assert checked == 396


def test_point_key_is_exponent_order_with_zero_first():
    assert ProjectivePoint((Fraction(0), Fraction(5, 7), None)).key() == (0, Fraction(5, 7), -1)
    points = [pt(1, "1/3", 0), pt(1, 1, 0), pt(1, 0, 0), pt(0, 1, -1), pt(1, -1, 0)]
    assert [str(p) for p in sorted(points, key=ProjectivePoint.key)] == [
        "[0, 1, -1]", "[1, 0, 0]", "[1, 1, 0]", "[1, zeta(1/3), 0]", "[1, -1, 0]"]


def _ref(p):
    """Coordinates of an exponent point rebuilt in the dense reference field."""
    return [DenseCyclotomic.zero() if e is None else zeta(e) for e in p.exps]


def _same_point(u, v):
    return all(c.is_zero() for c in cross(u, v))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), DenseCyclotomic.zero())


def _spectrum(g):
    """Exponents of the three eigenvalues: the c-th roots of the scalar
    product along each permutation cycle of length c."""
    out, seen = [], set()
    for start in range(3):
        if start in seen:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = g.perm[j]
        rho = sum(g.scalars[j] for j in cycle)
        out += [((rho + t) / len(cycle)) % 1 for t in range(len(cycle))]
    return out


def _random_element(rng, perms):
    """A monomial element with scalars in mu_12; half of them reflections,
    whose double eigenvalue gives a pointwise-fixed line."""
    d = rng.choice([1, 2, 3, 4, 6, 12])
    perm = rng.choice(perms)
    exps = [Fraction(rng.randrange(d), d) for _ in range(3)]
    fixed = [k for k in range(3) if perm[k] == k]
    if rng.random() < 0.5 and len(fixed) == 3:        # repeat a diagonal scalar
        i, j = rng.sample(range(3), 2)
        exps[i] = exps[j]
    elif rng.random() < 0.5 and len(fixed) == 1:      # match a 2-cycle eigenvalue
        i, j = [x for x in range(3) if x != fixed[0]]
        exps[fixed[0]] = (exps[i] + exps[j]) / 2 + rng.choice([0, Fraction(1, 2)])
    return MonomialMatrix(perm, tuple(exps))


def test_exponent_points_match_cyclotomic_reference():
    rng = random.Random(2405)
    perms = list(itertools.permutations(range(3)))
    elements = [g for g in (_random_element(rng, perms) for _ in range(30))
                if not g.is_identity()]
    loci = [fixed_locus(g) for g in elements]
    points = [p for loc in loci for p in loc]
    lines = {}           # pole -> an element fixing its line pointwise
    for g, loc in zip(elements, loci):
        if len(loc) == 1:
            lines.setdefault(loc[0], g)
    assert all(p.exps is not None for p in points) and len(lines) >= 8

    for g in elements:
        for p in rng.sample(points, 2):
            assert _same_point(_ref(p.transformed(g)), apply(g, _ref(p)))

    assert _fixed_line_claims(elements)[1] >= 80

    # the membership rule against the normal's dot product, on every
    # point of the monomial loci
    hits = 0
    for pole, g in lines.items():
        for p in dict.fromkeys(points):
            got = _on_line(g, pole, p)
            assert got == _dot(_ref(_normal(pole)), _ref(p)).is_zero()
            hits += got
    assert hits >= 25, hits

    for g, loc in zip(elements, loci):
        spectrum = _spectrum(g)
        for p in loc:
            image, coords = apply(g, _ref(p)), _ref(p)
            lam = next(mu for mu in spectrum
                       if all((a - zeta(mu) * b).is_zero()
                              for a, b in zip(image, coords)))
            rest = list(spectrum)
            rest.remove(lam)
            got = sorted(tangent_eigenvalues(g, p))
            assert got == sorted((mu - lam) % 1 for mu in rest)


def _fixed_line_claims(elements):
    """Check the two claims fixed_locus and quotient_profile rest on
    against the field reference's cross product: a fixed line's normal,
    conj of its pole, is the cross of the two eigenvectors of the double
    eigenvalue, and the distinct fixed lines of g1 and g2 meet at an
    isolated fixed point of g1*g2, which lies on both.  Returns the
    numbers of lines and of meets checked."""
    with_line = []
    for g in elements:
        if g.is_identity() or len(fixed := fixed_locus(g)) != 1:
            continue
        pairs = eigen_data(g)
        values = [lam for lam, _ in pairs]
        u, v = [_ref(w) for lam, w in pairs if values.count(lam) == 2]
        assert _same_point(_ref(_normal(fixed[0])), cross(u, v))
        with_line.append((g, fixed[0]))
    meets = 0
    for (g1, v1), (g2, v2) in itertools.combinations(with_line, 2):
        if v1 == v2:
            continue
        meet = cross(_ref(_normal(v1)), _ref(_normal(v2)))
        assert not all(c.is_zero() for c in meet)
        q = [p for p in fixed_locus(g1 * g2) if _same_point(_ref(p), meet)]
        assert len(q) == 1 and _on_line(g1, v1, q[0]) and _on_line(g2, v2, q[0])
        meets += 1
    return len(with_line), meets


def _gbar(m):
    """G-bar(m,1,3): the coordinate permutations and diag(1, zeta^(1/m), 1),
    of order 6*m^2 in PGL(3)."""
    return close_group([mono((1, 0, 2), ("0", "0", "0")), mono((1, 2, 0), ("0", "0", "0")),
                        mono((0, 1, 2), ("0", f"1/{m}", "0"))])


def test_fixed_lines_against_the_cross_product():
    lines = meets = 0
    for group in itertools.chain(_seeded_groups(), map(_gbar, range(1, 5))):
        got = _fixed_line_claims(group.elements)
        lines, meets = lines + got[0], meets + got[1]
    assert [_gbar(m).order for m in range(1, 5)] == [6, 24, 54, 96]
    assert lines >= 500 and meets >= 650, (lines, meets)


def test_poles_name_the_fixed_lines():
    # conjugation moves poles with the group, a pole has at most two
    # nonzero coordinates, and the key-least normal over a pole orbit is
    # the key-least normal over the line orbit, the rule of a branch
    # entry.  No answered profile has a line orbit of more than one line,
    # so that rule is checked here orbit by orbit, on G-bar(m,1,3) too.
    sizes = set()
    for group in itertools.chain(_seeded_groups(), map(_gbar, range(1, 5))):
        points, poles = _candidates_and_poles(group)
        for v, fixers in poles.items():
            assert v.exps.count(None) >= 1
            for g in group.elements:
                for h in fixers:
                    assert fixed_locus(g * h * g.inverse()) == [v.transformed(g)]
        for first, orbit, _ in _orbits(group, sorted(points, key=ProjectivePoint.key)):
            if first not in poles:
                assert not set(orbit) & poles.keys()
                continue
            assert set(orbit) <= poles.keys()
            full = {_transpose_image(g, _normal(first)) for g in group.elements}
            assert len(full) == len(orbit)
            assert min(map(_normal, orbit), key=ProjectivePoint.key) == \
                min(full, key=ProjectivePoint.key)
            sizes.add(len(orbit))
    assert {1, 3, 6, 12} <= sizes, sizes
