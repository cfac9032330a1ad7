import math
import random
from fractions import Fraction

import pytest

from delpezzo import lattice
from delpezzo.fpgroups import Presentation, abelianization, coset_enumerate
from delpezzo.lattice import (
    SMOOTH,
    A,
    CurveConfig,
    D,
    DynkinType,
    E,
    NonGorensteinCyclic,
    NotADE,
    blow_down,
    cartan_determinant,
    config_rank,
    config_str,
    cyclic_germ,
    hj_chain,
    hj_normalize,
    local_noether_terms,
    local_pi1_order,
    parse_config,
    recognize_dynkin,
    types_with_order,
)
from fixtures import dynkin_curve_config, dynkin_edges, ii_star_fiber, remove


def test_cartan_determinants():
    assert [cartan_determinant(A(n)) for n in range(1, 6)] == [2, 3, 4, 5, 6]
    assert all(cartan_determinant(D(n)) == 4 for n in range(4, 9))
    assert [cartan_determinant(E(n)) for n in (6, 7, 8)] == [3, 2, 1]


def test_local_pi1_orders():
    assert local_pi1_order(A(7)) == 8
    assert local_pi1_order(D(4)) == 8
    assert local_pi1_order(D(6)) == 16
    assert [local_pi1_order(E(n)) for n in (6, 7, 8)] == [24, 48, 120]


def test_types_with_order():
    assert set(map(str, types_with_order(8))) == {"A7", "D4"}
    assert set(map(str, types_with_order(24))) == {"A23", "D8", "E6"}
    assert set(map(str, types_with_order(120))) == {"A119", "D32", "E8"}


# The ADE table against computations that do not read it: the determinant
# of the Cartan matrix built from the diagram, and the order and
# abelianization of the binary polyhedral group's presentation.
ORACLE_TYPES = lattice.all_types(24)


def test_oracle_types_cover_rank_24():
    assert len(ORACLE_TYPES) == 48
    assert {t.rank for t in ORACLE_TYPES} == set(range(1, 25))


def test_cartan_determinant_matches_sympy():
    import sympy
    from sympy.polys.matrices import DomainMatrix

    for t in ORACLE_TYPES:
        rows = [[2 if i == j else 0 for j in range(t.rank)] for i in range(t.rank)]
        for i, j in dynkin_edges(t):
            rows[i][j] = rows[j][i] = -1
        m = DomainMatrix.from_list_sympy(t.rank, t.rank, rows).convert_to(sympy.ZZ)
        assert cartan_determinant(t) == m.det(), t


def _binary_polyhedral_presentation(t):
    """<x | x^(n+1)> for A_n; <x, y | (xy)^l = x^m = y^k> for D_n and E_n."""
    if t.letter == "A":
        return Presentation(1, ((1,) * (t.rank + 1),))
    l, m, k = (2, 2, t.rank - 2) if t.letter == "D" else (2, 3, t.rank - 3)
    return Presentation(2, ((1, 2) * l + (-1,) * m, (1,) * m + (-2,) * k))


def _link_presentation(weights, edges):
    """Mumford's presentation of pi_1 of the link of a germ whose resolution
    graph is the tree edges on vertices with self-intersections -weights[v]:
    a generator e_v per vertex, [e_v, e_w] = 1 on each edge, and e_v^b_v
    the product of its neighbours, in ascending order."""
    relators = [(v + 1, w + 1, -v - 1, -w - 1) for v, w in edges]
    for v, b in enumerate(weights):
        neighbours = sorted({w for e in edges if v in e for w in e} - {v})
        relators.append((v + 1,) * b + tuple(-w - 1 for w in reversed(neighbours)))
    return Presentation(len(weights), tuple(relators))


def test_orders_and_determinants_match_presentations():
    # up to rank 8 also Mumford's presentation of the link, read off the
    # dual graph of the (-2)-curves resolving the germ
    for t in ORACLE_TYPES:
        presentations = [_binary_polyhedral_presentation(t)]
        if t.rank <= 8:
            presentations.append(_link_presentation([2] * t.rank, dynkin_edges(t)))
        for p in presentations:
            assert coset_enumerate(p) == local_pi1_order(t), t
            torsion, free_rank = abelianization(p)
            assert free_rank == 0, t
            assert math.prod(torsion) == cartan_determinant(t), t


@pytest.mark.parametrize("r, q", [(5, 2), (7, 3), (9, 2), (12, 5)])
def test_hj_chains_give_cyclic_link_groups(r, q):
    # the chain of 1/r(1, q) is a resolution graph whose link group is Z/r
    chain = hj_chain(r, q)
    p = _link_presentation(chain, [(i, i + 1) for i in range(len(chain) - 1)])
    assert coset_enumerate(p) == r
    assert abelianization(p) == ([r], 0)


def test_types_with_order_inverts_local_pi1_order():
    for n in range(1, 201):
        # every type of order n has rank at most n - 1 (A_{n-1})
        expected = [t for t in lattice.all_types(max(n - 1, 0))
                    if local_pi1_order(t) == n]
        assert types_with_order(n) == expected, n


# ---------------------------------------------------------------------------
# cyclic quotient germs
# ---------------------------------------------------------------------------

def _hj_normalize_by_loop(r, a, b):
    """Divide reflections out of 1/r(a, b) one gcd at a time until none is
    left: the iterative form of hj_normalize's single division."""
    if r < 1:
        raise ValueError("r must be >= 1")
    a %= r
    b %= r
    if math.gcd(r, math.gcd(a, b)) != 1 and r > 1:
        raise ValueError(f"non-faithful cyclic data 1/{r}({a},{b})")
    changed = True
    while changed and r > 1:
        changed = False
        g = math.gcd(r, a)
        if g > 1:
            r //= g
            a //= g
            b %= r
            changed = True
        g = math.gcd(r, b)
        if g > 1:
            r //= g
            b //= g
            a %= r
            changed = True
    if r == 1:
        return (1, 0, 0)
    return (r, a % r, b % r)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_hj_normalize_matches_reference_loop():
    refused = 0
    for r in range(1, 61):
        for a in range(-r, 2 * r):
            for b in range(r + 1):
                want = _outcome(_hj_normalize_by_loop, r, a, b)
                assert _outcome(hj_normalize, r, a, b) == want, (r, a, b)
                refused += isinstance(want, str)
    assert refused > 0


def test_cyclic_germ():
    assert cyclic_germ(1, 0, 0) == SMOOTH
    assert cyclic_germ(2, 0, 1) == SMOOTH                # a reflection
    assert cyclic_germ(6, 2, 3) == SMOOTH                # two, of coprime orders
    assert cyclic_germ(3, 1, 2) == A(2)
    assert cyclic_germ(12, 3, 2) == A(1)                 # 1/12(3, 2) -> 1/2(1, 1)
    assert cyclic_germ(8, 2, 3) == A(3)                  # 1/8(2, 3) -> 1/4(1, 3)
    assert cyclic_germ(3, 1, 1) == NonGorensteinCyclic(3, 1, 1)
    assert cyclic_germ(10, 2, 5) == SMOOTH
    assert cyclic_germ(15, 3, 5) == SMOOTH
    assert cyclic_germ(14, 2, 3) == NonGorensteinCyclic(7, 1, 3)
    assert str(cyclic_germ(5, 1, 2)) == "NonGorensteinCyclic(1/5(1,2))"
    with pytest.raises(ValueError, match="non-faithful"):
        cyclic_germ(4, 2, 2)


def test_non_gorenstein_cyclic_rejects_reflections():
    for r, a, b in [(4, 2, 1), (6, 1, 3), (9, 3, 3)]:
        with pytest.raises(ValueError, match="reflection"):
            NonGorensteinCyclic(r, a, b)


def _continued_fraction(chain):
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def test_hj_chain():
    assert hj_chain(3, 1) == [3]
    assert hj_chain(5, 2) == [3, 2]
    assert hj_chain(7, 3) == [3, 2, 2]
    assert hj_chain(7, 6) == [2] * 6                     # A6
    for r in range(2, 40):
        for q in range(1, r):
            if math.gcd(r, q) == 1:
                chain = hj_chain(r, q)
                assert min(chain) >= 2 and _continued_fraction(chain) == Fraction(r, q)


def test_local_noether_terms():
    assert local_noether_terms(SMOOTH) == (0, 0)
    assert local_noether_terms(D(5)) == (5, 0)
    assert local_noether_terms(NonGorensteinCyclic(3, 1, 1)) == (1, Fraction(1, 3))
    assert local_noether_terms(NonGorensteinCyclic(5, 1, 2)) == (2, Fraction(2, 5))
    assert local_noether_terms(NonGorensteinCyclic(7, 1, 3)) == (3, Fraction(3, 7))
    # 1/r(a, b) = 1/r(1, b/a) = 1/r(a/b, 1): the chain of the inverse is reversed
    assert local_noether_terms(NonGorensteinCyclic(7, 2, 6)) == (3, Fraction(3, 7))
    assert local_noether_terms(NonGorensteinCyclic(7, 3, 1)) == (3, Fraction(3, 7))


def _thomas_noether_c(chain):
    """c = -(sum a_i E_i)^2, with the discrepancies a_i solving the
    tridiagonal system sum_i a_i E_i.E_j = b_j - 2 on the chain (E_j^2 =
    -b_j, E_j.E_{j+1} = 1): a forward sweep, then back substitution."""
    upper, rhs = [Fraction(0)], [Fraction(0)]
    for b in chain:
        pivot = -b - upper[-1]
        upper.append(1 / pivot)
        rhs.append((b - 2 - rhs[-1]) / pivot)
    disc = [rhs[-1]]
    for u, d in zip(upper[-2:0:-1], rhs[-2:0:-1]):
        disc.append(d - u * disc[-1])
    return -sum(a * (b - 2) for a, b in zip(reversed(disc), chain))


def test_local_noether_terms_closed_form_matches_the_tridiagonal_solve():
    # every non-Gorenstein 1/r(1, q) with r <= 60; q = r - 1 is the du Val A_{r-1}
    for r in range(3, 61):
        for q in range(1, r - 1):
            if math.gcd(r, q) == 1:
                chain = hj_chain(r, q)
                germ = NonGorensteinCyclic(r, 1, q)
                assert local_noether_terms(germ) == (len(chain), _thomas_noether_c(chain))


def test_local_noether_terms_match_sympy():
    import sympy

    rng = random.Random(909)
    for _ in range(200):
        r = rng.randint(2, 40)
        a, b = rng.choice([k for k in range(1, r) if math.gcd(k, r) == 1]), 0
        while math.gcd(b, r) != 1:
            b = rng.randrange(1, r)
        chain = hj_chain(r, b * pow(a, -1, r) % r)
        n = len(chain)
        m = sympy.Matrix(n, n, lambda i, j: -chain[i] if i == j else int(abs(i - j) == 1))
        disc = m.solve(sympy.Matrix([bj - 2 for bj in chain]))
        c = -(disc.T * m * disc)[0, 0]
        germ = cyclic_germ(r, a, b)
        if (a + b) % r == 0:
            assert germ == A(r - 1) and c == 0
        else:
            assert local_noether_terms(germ) == (n, Fraction(int(c.p), int(c.q))), (r, a, b)


def test_dynkin_type_validation():
    with pytest.raises(ValueError):
        DynkinType("D", 3)
    with pytest.raises(ValueError):
        DynkinType("E", 9)
    with pytest.raises(ValueError):
        DynkinType("F", 4)
    assert DynkinType.parse("D5") == D(5)


def test_config_helpers():
    cfg = parse_config("A3+2A1")
    assert config_rank(cfg) == 5
    assert config_str(cfg) == "2A1+A3"
    assert parse_config("3A2") == (A(2), A(2), A(2))
    assert config_str(()) == "smooth"
    assert parse_config("smooth") == ()
    assert config_str(parse_config("D4+3A1")) == "3A1+D4"


def test_recognize_round_trip():
    for t in lattice.all_types(10):
        assert recognize_dynkin(dynkin_curve_config(t)) == t


def test_recognize_rejections():
    # a cycle of three (-2)-curves
    m = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
    r = recognize_dynkin(CurveConfig(["a", "b", "c"], m))
    assert isinstance(r, NotADE) and "cycle" in r.reason
    # wrong self-intersection
    r = recognize_dynkin(CurveConfig(["a"], [[-1]]))
    assert isinstance(r, NotADE)
    # disconnected
    m = [[-2, 0], [0, -2]]
    r = recognize_dynkin(CurveConfig(["a", "b"], m))
    assert isinstance(r, NotADE) and "disconnected" in r.reason


def test_blow_down_rule():
    c = CurveConfig(["E", "C", "D"],
                    [[-1, 1, 1],
                     [1, -2, 0],
                     [1, 0, -3]])
    out = blow_down(c, 0)
    assert out.labels == ["C", "D"]
    # C.D picks up (C.E)(D.E) = 1, self-intersections rise by 1
    assert out.matrix == [[-1, 1], [1, -2]]


def test_blow_down_requires_minus_one():
    c = CurveConfig(["C"], [[-2]])
    with pytest.raises(ValueError):
        blow_down(c, 0)


def test_ii_star_fiber_contractions():
    fib = ii_star_fiber()
    assert sum(fib.multiplicities) == 30
    # dropping the end of the long arm leaves the E8 diagram
    assert recognize_dynkin(remove(fib, fib.index_of("C1"))) == E(8)
    # dropping the short branch leaves the A8 chain
    assert recognize_dynkin(remove(fib, fib.index_of("C3'"))) == A(8)
