import random
from math import factorial
from pathlib import Path

import pytest

from delpezzo.fpgroups import (
    MAX_PRESENTATION_GENERATORS,
    MAX_PRESENTATION_LETTERS,
    CosetBoundExceeded,
    Presentation,
    abelianization,
    coset_enumerate,
    format_presentation,
    hom_count_cyclic,
    mumford_presentation,
    parse_presentation,
    smith_normal_form,
)


def test_parse_format_round_trip():
    text = "gens=2; rel=(1 2)^2 * 1^-3; rel=1^3 * 2^-5"
    p = parse_presentation(text)
    assert p.ngens == 2
    again = parse_presentation(format_presentation(p))
    assert again == p


def test_presentation_text_round_trip():
    # Presentation -> format_presentation -> parse_presentation, and the
    # formatted text is a fixed point
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def presentations(ngens):
        letters = st.integers(-ngens, ngens).filter(bool)
        relators = st.lists(st.lists(letters, min_size=1, max_size=12).map(tuple), max_size=4)
        return relators.map(lambda rels: Presentation(ngens, tuple(rels)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(st.just(Presentation(0, ())), st.integers(1, 5).flatmap(presentations)))
    def check(p):
        text = format_presentation(p)
        assert parse_presentation(text) == p
        assert format_presentation(parse_presentation(text)) == text

    check()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_presentation("rel=1^2")
    with pytest.raises(ValueError):
        parse_presentation("gens=1; rel=3^2")
    with pytest.raises(ValueError):
        parse_presentation("gens=-2")


def test_cyclic_group():
    p = parse_presentation("gens=1; rel=1^7")
    assert coset_enumerate(p) == 7


def test_parse_caps_letters_before_expanding():
    assert len(parse_presentation("gens=1; rel=1^100000").relators[0]) == MAX_PRESENTATION_LETTERS
    with pytest.raises(ValueError, match="letters"):
        parse_presentation("gens=1; rel=1^100001")
    with pytest.raises(ValueError, match="letters"):         # the cap is per presentation
        parse_presentation("gens=2; rel=(1 2)^30000; rel=2^-40001")
    with pytest.raises(ValueError, match="letters"):
        parse_presentation("gens=1; rel=1^" + "9" * 4000)


def test_parse_caps_generators():
    assert MAX_PRESENTATION_GENERATORS == 100
    assert parse_presentation("gens=100; rel=100^2").ngens == 100
    for n in (101, 3_000_000, 100_000_000):
        with pytest.raises(ValueError, match="more than 100 generators"):
            parse_presentation(f"gens={n}; rel=1^2")


def test_symmetric_group_s3():
    p = parse_presentation("gens=2; rel=1^2; rel=2^3; rel=(1 2)^2")
    assert coset_enumerate(p) == 6


def test_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    p = parse_presentation("gens=2; rel=1^4; rel=1^2 * 2^-2; rel=2^-1 * 1 * 2 * 1")
    assert coset_enumerate(p) == 8


def test_free_group_exceeds_bound():
    p = Presentation(2, [])
    with pytest.raises(CosetBoundExceeded):
        coset_enumerate(p, bound=50)


def coxeter(n, edges):
    """Coxeter presentation on n involutions: (i j)^m for each edge
    (i, j, m), (i j)^2 for every other pair."""
    m = {(i, j): k for i, j, k in edges}
    rels = [(i, i) for i in range(1, n + 1)]
    rels += [(i, j) * m.get((i, j), 2)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Presentation(n, tuple(rels))


def chain(n, last=3):
    return [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, last)]


def von_dyck(l, m, n):
    return Presentation(2, ((1,) * l, (2,) * m, (1, 2) * n))


# closed forms: |W(A_n)| = (n+1)!, |W(B_n)| = 2^n n!, |W(D_n)| = 2^(n-1) n!,
# (2,2,n) is dihedral of order 2n, (2,3,r) is S3, A4, S4, A5 for r = 2..5
PINNED = (
    [(f"A{n}", coxeter(n, chain(n)), factorial(n + 1)) for n in (4, 5, 6)]
    + [(f"B{n}", coxeter(n, chain(n, 4)), 2 ** n * factorial(n)) for n in (4, 5)]
    + [(f"D{n}", coxeter(n, chain(n - 1) + [(n - 2, n, 3)]), 2 ** (n - 1) * factorial(n))
       for n in (4, 5, 6)]
    + [(f"dyck(2,2,{n})", von_dyck(2, 2, n), 2 * n) for n in (2, 3, 7, 12)]
    + [(f"dyck(2,3,{r})", von_dyck(2, 3, r), order)
       for r, order in [(2, 6), (3, 12), (4, 24), (5, 60)]]
)


@pytest.mark.parametrize("name,p,order", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_orders(name, p, order):
    assert coset_enumerate(p, bound=4 * order) == order


@pytest.mark.parametrize("name,p,order", PINNED, ids=[c[0] for c in PINNED])
def test_bound_below_order_is_refused(name, p, order):
    # every coset of a complete table is defined, so half the order
    # can never suffice
    with pytest.raises(CosetBoundExceeded):
        coset_enumerate(p, bound=order // 2)


@pytest.mark.parametrize("text,order", [
    ("gens=1; rel=-1^2", 2),
    ("gens=1; rel=1^2", 2),
    ("gens=1; rel=1", 1),
    # S3 with the involution a also inverted: a b a^-1 = b^-1
    ("gens=2; rel=-1^2; rel=2^3; rel=1 * 2 * 1^-1 * 2", 6),
    ("gens=2; rel=1^2; rel=2^3; rel=(-2 -1)^2", 6),
    ("gens=2; rel=1^2; rel=-2^2; rel=(1 2)^2", 4),
])
def test_involution_edge_cases(text, order):
    assert coset_enumerate(parse_presentation(text)) == order


def test_bound_counts_every_coset_defined():
    # Z/2 and Z/7 define exactly their elements, coset 1 included
    p = parse_presentation("gens=1; rel=1^2")
    assert coset_enumerate(p, bound=2) == 2
    with pytest.raises(CosetBoundExceeded):
        coset_enumerate(p, bound=1)
    p = parse_presentation("gens=1; rel=1^7")
    assert coset_enumerate(p, bound=7) == 7
    with pytest.raises(CosetBoundExceeded):
        coset_enumerate(p, bound=6)
    # the infinite dihedral group <a, b | a^2, b^2>
    with pytest.raises(CosetBoundExceeded):
        coset_enumerate(parse_presentation("gens=2; rel=1^2; rel=-2^2"), bound=500)


def _sympy_order(ngens, rels):
    """The order from sympy's own Todd-Coxeter over the trivial subgroup.

    FpGroup.order() is not used: on some random presentations its
    shortcuts raise IndexError (a relator that reduces to 1), recurse
    without end, or run for seconds."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(" ".join(f"x{k}" for k in range(1, ngens + 1)))
    words = []
    for rel in rels:
        word = free.identity
        for g in rel:
            word *= gens[abs(g) - 1] ** (1 if g > 0 else -1)
        if word != free.identity:
            words.append(word)
    table = FpGroup(free, words).coset_enumeration([], max_cosets=20_000)
    table.compress()
    return len(table.table)


def test_orders_agree_with_sympy():
    rng = random.Random("fpgroups vs sympy")
    compared = 0
    for _ in range(60):
        ngens = rng.randint(1, 3)
        rels = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:          # an involution, g g or -g -g
                g = rng.randint(1, ngens) * rng.choice((1, -1))
                rels.append((g, g))
            else:
                rels.append(tuple(rng.randint(1, ngens) * rng.choice((1, -1))
                                  for _ in range(rng.randint(1, 8))))
        try:
            order = coset_enumerate(Presentation(ngens, tuple(rels)), bound=200)
        except CosetBoundExceeded:
            continue
        assert order == _sympy_order(ngens, rels), (ngens, rels)
        compared += 1
    assert compared >= 25


def test_bench_tracer_sees_the_enumerator(monkeypatch):
    # the traced benchmark run patches these names; a rewrite that drops
    # one would silently empty the fpgroups metrics
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench.tracing import Tracer, instrument
    from delpezzo import fpgroups

    tracer = Tracer()
    instrument(tracer)
    try:
        assert fpgroups.coset_enumerate(mumford_presentation(8)) == 120
    finally:
        tracer.uninstall()
    assert tracer.totals()["fpgroups.coset_enumerate"][0] == 1
    defined = tracer.counts["fpgroups.cosets_defined"]
    coincidences = tracer.counts["fpgroups.coincidences"]
    assert defined > 120 and coincidences > 0
    assert defined - coincidences == 120       # each coincidence kills a coset


@pytest.mark.parametrize("i,order", [(4, 5), (5, 12), (6, 24), (7, 48), (8, 120)])
def test_mumford_orders(i, order):
    assert coset_enumerate(mumford_presentation(i)) == order


@pytest.mark.parametrize("i", [4, 5, 6, 7, 8])
def test_mumford_abelianizations_cyclic(i):
    torsion, free_rank = abelianization(mumford_presentation(i))
    assert free_rank == 0
    d = 9 - i
    assert torsion == ([d] if d > 1 else [])


def test_mumford_range():
    with pytest.raises(ValueError):
        mumford_presentation(3)
    with pytest.raises(ValueError):
        mumford_presentation(9)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def test_smith_normal_form_known():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = smith_normal_form(m)
    assert _matmul(_matmul(u, m), v) == d
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1


def test_smith_normal_form_divisibility():
    m = [[1, 2], [3, 4]]
    u, d, v = smith_normal_form(m)
    assert _matmul(_matmul(u, m), v) == d
    assert d[1][1] % d[0][0] == 0


@pytest.mark.parametrize("m, expected", [
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
     ([[1, 0, 0], [-22, 1, 5], [-885, 40, 201]],
      [[2, 0, 0], [0, 2, 0], [0, 0, 156]],
      [[1, -34, 66], [0, 1, -2], [0, 16, -31]])),
    ([[6, -4, 10]],
     ([[-1]], [[2, 0, 0]], [[1, -2, -1], [2, -3, 1], [0, 0, 1]])),
    ([[4], [-6], [10]],
     ([[2, 1, 0], [-3, -2, 0], [-4, -1, 1]], [[2], [0], [0]], [[1]])),
    ([[0, 0], [0, 0]],
     ([[1, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 1]])),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
     ([[1, 0, 0], [4, -1, 0], [1, -2, 1]],
      [[1, 0, 0], [0, 3, 0], [0, 0, 0]],
      [[1, -2, 1], [0, 1, -2], [0, 0, 1]])),
], ids=["3x3", "1x3", "3x1", "zero", "rank2"])
def test_smith_normal_form_transforms_are_pinned(m, expected):
    # U*M*V = D holds for many (U, V); these are the ones the pivot rule
    # and the order of elementary operations give, so a rewrite that
    # changes either shows here
    assert smith_normal_form(m) == expected


def test_abelianization_free_rank():
    torsion, free_rank = abelianization(Presentation(3, [[1, 1]]))
    assert torsion == [2]
    assert free_rank == 2


def test_abelianization_matches_the_smith_normal_form():
    # abelianization diagonalizes the relator matrix alone; its invariant
    # factors are those of the full (U, D, V) computation
    rng = random.Random(1301)
    for _ in range(500):
        ngens = rng.randint(1, 4)
        relators = [[rng.choice([1, -1]) * rng.randint(1, ngens)
                     for _ in range(rng.randint(1, 8))] for _ in range(rng.randint(1, 5))]
        matrix = [[rel.count(k) - rel.count(-k) for k in range(1, ngens + 1)]
                  for rel in relators]
        _, d, _ = smith_normal_form(matrix)
        diag = [d[i][i] for i in range(min(len(d), ngens))]
        expected = ([x for x in diag if x > 1], ngens - sum(1 for x in diag if x))
        assert abelianization(Presentation(ngens, relators)) == expected, relators


def test_abelianization_of_many_relators():
    # no rows x rows transform is built: 20,000 relators of one generator
    # are one pass down a single column
    assert abelianization(Presentation(1, [[1, 1]] * 20000)) == ([2], 0)


def test_hom_count_cyclic():
    # Z/6 has gcd(6, d) homomorphisms to Z/d
    p = parse_presentation("gens=1; rel=1^6")
    assert hom_count_cyclic(p, 4) == 2
    assert hom_count_cyclic(p, 9) == 3
    # the icosahedral boundary group is perfect mod its Z/1 abelianization
    assert hom_count_cyclic(mumford_presentation(8), 5) == 1


def test_smith_normal_form_matches_sympy_invariant_factors():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    rng = random.Random(806)
    singular = 0
    for case in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if case % 3 == 0 and rows > 1:
            # a row that is a combination of the others: the rank drops
            a = rng.randrange(rows)
            b, c = (rng.choice([x for x in range(rows) if x != a]) for _ in range(2))
            k = rng.randint(-3, 3)
            m[a] = [x + k * y for x, y in zip(m[b], m[c])]
        if case % 5 == 0:
            # a common factor in every entry
            f = rng.randint(2, 6)
            m = [[f * x for x in row] for row in m]
        _, d, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(min(rows, cols))]
        expected = [int(x) for x in normalforms.invariant_factors(Matrix(m))]
        assert diag == expected, m
        singular += 0 in diag
    assert singular >= 40
