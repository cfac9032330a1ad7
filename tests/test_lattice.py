import math

import pytest

from delpezzo import lattice
from delpezzo.fpgroups import Presentation, abelianization, coset_enumerate
from delpezzo.lattice import (
    A,
    CurveConfig,
    D,
    DynkinType,
    E,
    NotADE,
    blow_down,
    cartan_determinant,
    config_rank,
    config_str,
    dynkin_curve_config,
    ii_star_fiber,
    local_pi1_order,
    parse_config,
    recognize_dynkin,
    types_with_order,
)


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
        for i, j in lattice.dynkin_edges(t):
            rows[i][j] = rows[j][i] = -1
        m = DomainMatrix.from_list_sympy(t.rank, t.rank, rows).convert_to(sympy.ZZ)
        assert cartan_determinant(t) == m.det(), t


def _binary_polyhedral_presentation(t):
    """<x | x^(n+1)> for A_n; <x, y | (xy)^l = x^m = y^k> for D_n and E_n."""
    if t.letter == "A":
        return Presentation(1, ((1,) * (t.rank + 1),))
    l, m, k = (2, 2, t.rank - 2) if t.letter == "D" else (2, 3, t.rank - 3)
    return Presentation(2, ((1, 2) * l + (-1,) * m, (1,) * m + (-2,) * k))


def test_orders_and_determinants_match_presentations():
    for t in ORACLE_TYPES:
        p = _binary_polyhedral_presentation(t)
        assert coset_enumerate(p) == local_pi1_order(t), t
        torsion, free_rank = abelianization(p)
        assert free_rank == 0, t
        assert math.prod(torsion) == cartan_determinant(t), t


def test_types_with_order_inverts_local_pi1_order():
    for n in range(1, 201):
        # every type of order n has rank at most n - 1 (A_{n-1})
        expected = [t for t in lattice.all_types(max(n - 1, 0))
                    if local_pi1_order(t) == n]
        assert types_with_order(n) == expected, n


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
    assert recognize_dynkin(fib.remove(fib.index_of("C1"))) == E(8)
    # dropping the short branch leaves the A8 chain
    assert recognize_dynkin(fib.remove(fib.index_of("C3'"))) == A(8)
