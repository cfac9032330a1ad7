"""Finitely presented groups: coset enumeration and abelianization.

Todd-Coxeter is the deterministic HLT strategy (Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, section 5.1): every relator
is scanned from every live coset in order, and the row is then filled.
A generator with the relator g g or -g -g is an involution and gets one
table column that is its own inverse, so that relator holds by
construction.  Coincidences are processed as soon as a scan finds them,
so the rows of live cosets only ever name live cosets and a scan never
consults the union-find.  The coset bound counts every coset defined.
Abelianization goes through the Smith normal form of the relator
exponent-sum matrix.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple

DEFAULT_COSET_BOUND = 10_000
MAX_PRESENTATION_LETTERS = 100_000      # relator letters, after expanding powers
MAX_PRESENTATION_GENERATORS = 100       # each gives up to two coset-table columns


class CosetBoundExceeded(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"coset table exceeded bound {bound}")
        self.bound = bound


class Presentation(namedtuple("Presentation", "ngens relators")):
    __slots__ = ()

    def __new__(cls, ngens: int, relators: tuple):  # tuples of signed 1-based generator indices
        if ngens < 0:
            raise ValueError(f"the number of generators must be >= 0, got {ngens}")
        for rel in relators:
            if not rel:
                raise ValueError("relators must be nonempty words")
            for g in rel:
                if g == 0 or abs(g) > ngens:
                    raise ValueError(f"letter {g} out of range in relator {rel}")
        return super().__new__(cls, ngens, relators)

    def __str__(self):
        return format_presentation(self)


def mumford_presentation(i: int) -> Presentation:
    """Boundary fundamental group <e2,e3 | (e2 e3)^2 = e2^3 = e3^(i-3)>.

    Only 4 <= i <= 8 is accepted: at i = 3 the group is infinite.
    """
    if not 4 <= i <= 8:
        raise ValueError(f"i must be in [4, 8], got {i} (i=3 gives an infinite group)")
    r1 = (1, 2, 1, 2) + (-1,) * 3          # (e2 e3)^2 e2^-3
    r2 = (1,) * 3 + (-2,) * (i - 3)        # e2^3 e3^-(i-3)
    return Presentation(2, (r1, r2))


# ---------------------------------------------------------------------------
# presentation text format:  gens=2; rel=(1 2)^2 * 1^-3; rel=1^3 * 2^-5
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^(?:\((?P<word>[-\d\s]+)\)|(?P<gen>-?\d+))(?:\^(?P<exp>-?\d+))?$")


def parse_presentation(text: str) -> Presentation:
    ngens = None
    relators = []
    letters = 0
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "gens":
            ngens = int(value)
            if ngens > MAX_PRESENTATION_GENERATORS:
                raise ValueError(f"more than {MAX_PRESENTATION_GENERATORS} generators")
        elif key == "rel":
            word = []
            for factor in value.split("*"):
                m = _FACTOR_RE.match(factor.strip())
                if not m:
                    raise ValueError(f"bad relator factor {factor!r}")
                if m.group("word") is not None:
                    base = tuple(int(x) for x in m.group("word").split())
                else:
                    base = (int(m.group("gen")),)
                exp = int(m.group("exp")) if m.group("exp") else 1
                if exp < 0:
                    base = tuple(-g for g in reversed(base))
                    exp = -exp
                letters += len(base) * exp
                if letters > MAX_PRESENTATION_LETTERS:
                    raise ValueError(f"relators expand to more than "
                                     f"{MAX_PRESENTATION_LETTERS} letters")
                word.extend(base * exp)
            relators.append(tuple(word))
        else:
            raise ValueError(f"unknown key {key!r} in presentation text")
    if ngens is None:
        raise ValueError("presentation text must declare gens=<n>")
    return Presentation(ngens, tuple(relators))


def format_presentation(p: Presentation) -> str:
    def fmt_rel(rel):
        # run-length encode into factors
        parts = []
        for g, run in itertools.groupby(rel):
            exp = len(list(run)) * (1 if g > 0 else -1)
            parts.append(str(abs(g)) if exp == 1 else f"{abs(g)}^{exp}")
        return " * ".join(parts)

    rels = "; ".join(f"rel={fmt_rel(r)}" for r in p.relators)
    return f"gens={p.ngens}; {rels}"


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT) over the trivial subgroup
# ---------------------------------------------------------------------------

class CosetTable:
    """Working state for HLT enumeration of the cosets of the trivial
    subgroup of the group presented by p.

    Cosets are numbered from 1 in the order they are defined, and 0 marks
    an undefined entry.  The table is stored by column: columns[col][c] is
    the image of coset c under the letter of column col.  A generator g
    with the relator g g or -g -g is an involution and has one column,
    its own inverse; every other generator has a column for g and one for
    -g.  Each relator is kept as the columns of its letters, the columns of
    their inverses (which a scan reads backward) and the column indices;
    involution relators hold by construction and are dropped.

    Coincidences are processed at once (Holt's COINCIDENCE), so outside
    coincide() the row of every live coset names only live cosets.
    """

    def __init__(self, p: Presentation, bound: int):
        squares = [rel for rel in p.relators if len(rel) == 2 and rel[0] == rel[1]]
        involutions = {abs(rel[0]) for rel in squares}
        col = {}                    # letter -> column
        self.inverse = []           # column -> column of the inverse letter
        for g in range(1, p.ngens + 1):
            k = len(self.inverse)
            if g in involutions:
                col[g] = col[-g] = k
                self.inverse.append(k)
            else:
                col[g], col[-g] = k, k + 1
                self.inverse += [k + 1, k]
        self.columns = [[0, 0] for _ in self.inverse]
        self.relators = [
            ([self.columns[col[g]] for g in rel],
             [self.columns[col[-g]] for g in rel],
             [col[g] for g in rel])
            for rel in p.relators if rel not in squares]
        self.parent = [0, 1]        # union-find forest; index 0 is unused
        self.bound = bound

    def find(self, c):
        parent = self.parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(self, c, col):
        """Define c.col as a new coset and return it.  The bound counts
        every coset defined, coset 1 and the dead ones included."""
        new = len(self.parent)
        if new > self.bound:
            raise CosetBoundExceeded(self.bound)
        self.parent.append(new)
        for column in self.columns:
            column.append(0)
        self.columns[col][c] = new
        self.columns[self.inverse[col]][new] = c
        return new

    def coincide(self, a, b):
        """Identify cosets a and b and every consequence, row by row."""
        columns, inverse, find = self.columns, self.inverse, self.find
        queue = []
        self._merge(a, b, queue)
        for dead in queue:              # _merge appends while this reads
            for col, column in enumerate(columns):
                d = column[dead]
                if not d:
                    continue
                back = columns[inverse[col]]
                back[d] = 0             # the edge d -> dead goes with dead
                mu, nu = find(dead), find(d)
                if column[mu]:
                    self._merge(nu, column[mu], queue)
                elif back[nu]:
                    self._merge(mu, back[nu], queue)
                else:
                    column[mu] = nu
                    back[nu] = mu

    def _merge(self, a, b, queue):
        a, b = self.find(a), self.find(b)
        if a != b:
            if b < a:
                a, b = b, a
            self.parent[b] = a
            queue.append(b)

    def scan_and_fill(self, coset, relator):
        """Trace a relator from a live coset, defining cosets as needed."""
        fwd, back, cols = relator
        f = b = coset
        i, j = 0, len(cols)             # letters i..j-1 are still untraced
        while True:
            while i < j and (nxt := fwd[i][f]):
                f = nxt
                i += 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return
            while j > i and (prev := back[j - 1][b]):
                b = prev
                j -= 1
            if j == i:
                self.coincide(f, b)
                return
            if j == i + 1:
                # deduction closes the scan
                fwd[i][f] = b
                back[i][b] = f
                return
            self.define(f, cols[i])


def coset_enumerate(p: Presentation, bound: int = DEFAULT_COSET_BOUND) -> int:
    """Order of the group presented by p, enumerating cosets of the
    trivial subgroup.  Raises CosetBoundExceeded if the enumeration needs
    to define more than `bound` cosets."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    table = CosetTable(p, bound)
    parent, columns = table.parent, table.columns
    c = 1
    while c < len(parent):
        for rel in table.relators:
            if parent[c] != c:
                break
            table.scan_and_fill(c, rel)
        if parent[c] == c:
            # HLT fill: complete the row so the enumeration keeps moving
            for col, column in enumerate(columns):
                if not column[c]:
                    table.define(c, col)
        c += 1
    return sum(1 for c in range(1, len(parent)) if parent[c] == c)


# ---------------------------------------------------------------------------
# Smith normal form and abelianization
# ---------------------------------------------------------------------------

def smith_normal_form(matrix):
    """Return (U, D, V) with U*M*V = D, U and V unimodular, and D diagonal
    with each diagonal entry dividing the next.

    The work is done on the augmented matrix [[M, I], [I, 0]]: a row
    operation on its first `rows` rows carries U along beside M, and a
    column operation on its first `cols` columns carries V along below it."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(matrix)]
    m += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    _diagonalize(m, rows, cols)
    return ([row[cols:] for row in m[:rows]], [row[:cols] for row in m[:rows]],
            [row[:cols] for row in m[rows:]])


def _diagonalize(m, rows, cols):
    """Bring the top-left rows x cols block of m, in place, to Smith normal
    form.  Pivots are taken in that block; a row operation spans the whole
    row and a column operation spans every row of m, so whatever m holds
    beside or below the block is carried along."""
    def row_op(a, b, k):      # row a += k * row b
        row, other = m[a], m[b]
        for j in range(len(row)):
            row[j] += k * other[j]

    def col_op(a, b, k):      # col a += k * col b
        for row in m:
            row[a] += k * row[b]

    t = 0
    while t < min(rows, cols):
        # find pivot: entry of least nonzero absolute value in the submatrix
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        for i in range(t + 1, rows):
            if k := m[i][t] // m[t][t]:
                row_op(i, t, -k)
        for j in range(t + 1, cols):
            if k := m[t][j] // m[t][t]:
                col_op(j, t, -k)
        # what is left in row and column t are the remainders
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][j] for j in range(t + 1, cols)):
            continue  # re-pick pivot; remainders shrank
        # enforce divisibility d_t | d_{t+1..}: add the first offending row
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                         if m[i][j] % m[t][t]), None)
        if offender is not None:
            row_op(t, offender, 1)
            continue
        t += 1


def abelianization(p: Presentation):
    """Invariant factors of G^ab: (torsion_factors, free_rank).

    Works on the relator exponent-sum matrix alone, diagonalized in place
    with no transforms carried; no coset table needed.
    """
    matrix = [[sum(1 if g == k else -1 if g == -k else 0 for g in rel)
               for k in range(1, p.ngens + 1)]
              for rel in p.relators]
    _diagonalize(matrix, len(matrix), p.ngens)
    diag = [matrix[i][i] for i in range(min(len(matrix), p.ngens))]
    rank = sum(1 for x in diag if x != 0)
    torsion = [x for x in diag if x > 1]
    return torsion, p.ngens - rank


def hom_count_cyclic(p: Presentation, d: int) -> int:
    """|Hom(G, Z/d)| computed from the abelianization invariant factors."""
    if d < 1:
        raise ValueError("d must be >= 1")
    torsion, free_rank = abelianization(p)
    count = d ** free_rank
    for factor in torsion:
        count *= math.gcd(factor, d)
    return count
