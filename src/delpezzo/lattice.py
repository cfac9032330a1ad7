"""ADE Dynkin types, curve configurations and blow-down calculus.

Covers the numerical side of du Val singularities: the one ADE table
(Cartan determinants and local fundamental group orders, the binary
polyhedral groups, with its inverse), the cyclic quotient germs
1/r(a, b) with their Hirzebruch-Jung chains and local Noether terms,
recognition of ADE dual graphs from intersection matrices, and the
intersection-matrix update rule for contracting a (-1)-curve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class DynkinType(namedtuple("DynkinType", "letter rank")):
    __slots__ = ()

    def __new__(cls, letter: str, rank: int):
        if letter == "A":
            if rank < 1:
                raise ValueError("A_n requires n >= 1")
        elif letter == "D":
            if rank < 4:
                raise ValueError("D_n requires n >= 4")
        elif letter == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E_n requires n in {6, 7, 8}")
        else:
            raise ValueError(f"unknown Dynkin letter {letter!r}")
        return super().__new__(cls, letter, rank)

    def __str__(self):
        return f"{self.letter}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        text = text.strip()
        if not text or text[0] not in "ADE":
            raise ValueError(f"bad Dynkin type {text!r}")
        return cls(text[0], int(text[1:]))


class NotADE(namedtuple("NotADE", "reason")):
    __slots__ = ()

    def __str__(self):
        return f"NotADE({self.reason})"


def A(n):
    return DynkinType("A", n)


def D(n):
    return DynkinType("D", n)


def E(n):
    return DynkinType("E", n)


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

_E_ORDERS = {6: 24, 7: 48, 8: 120}


def cartan_determinant(t: DynkinType) -> int:
    """Determinant of the Cartan matrix; it equals |H^ab| for the local
    fundamental group H."""
    if t.letter == "A":
        return t.rank + 1
    if t.letter == "D":
        return 4
    return 9 - t.rank


def local_pi1_order(t: DynkinType) -> int:
    """Order of the local fundamental group (the binary polyhedral group)."""
    if t.letter == "A":
        return t.rank + 1
    if t.letter == "D":
        return 4 * (t.rank - 2)
    return _E_ORDERS[t.rank]


def all_types(max_rank: int):
    """Every ADE type of rank at most max_rank."""
    return ([A(n) for n in range(1, max_rank + 1)]
            + [D(n) for n in range(4, max_rank + 1)]
            + [E(n) for n in _E_ORDERS if n <= max_rank])


def types_with_order(n: int):
    """Every ADE type whose local fundamental group has order n: the exact
    inverse of local_pi1_order."""
    types = [A(n - 1)] if n >= 2 else []
    if n % 4 == 0 and n >= 8:
        types.append(D(n // 4 + 2))
    return types + [E(k) for k, order in _E_ORDERS.items() if order == n]


# ---------------------------------------------------------------------------
# cyclic quotient germs 1/r(a, b)
# ---------------------------------------------------------------------------

SMOOTH = "Smooth"


class NonGorensteinCyclic(namedtuple("NonGorensteinCyclic", "r a b")):
    """The germ 1/r(a, b) with its reflections divided out (hj_normalize)."""

    __slots__ = ()

    def __new__(cls, r: int, a: int, b: int):
        if math.gcd(r, a) > 1 or math.gcd(r, b) > 1:
            raise ValueError(f"1/{r}({a},{b}) still contains a reflection")
        return super().__new__(cls, r, a, b)

    def __str__(self):
        return f"NonGorensteinCyclic(1/{self.r}({self.a},{self.b}))"


def hj_normalize(r: int, a: int, b: int):
    """Reduce cyclic quotient data 1/r(a,b) by dividing out reflections.

    Requires gcd(r, a, b) = 1.  The reflections fixing the two axes form
    subgroups of the coprime orders gcd(r, a) and gcd(r, b), so one
    division leaves r' = r / (gcd(r, a) gcd(r, b)), a' = a / gcd(r, a) and
    b' = b / gcd(r, b).  Returns (r', a', b') with a', b' in [0, r');
    r' = 1 means the quotient is smooth.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a %= r
    b %= r
    if math.gcd(r, math.gcd(a, b)) != 1 and r > 1:
        raise ValueError(f"non-faithful cyclic data 1/{r}({a},{b})")
    ga, gb = math.gcd(r, a), math.gcd(r, b)
    r //= ga * gb
    if r == 1:
        return (1, 0, 0)
    return (r, a // ga % r, b // gb % r)


def cyclic_germ(r: int, a: int, b: int):
    """The germ C^2 / (1/r(a, b)): SMOOTH, A(r' - 1), or NonGorensteinCyclic."""
    r, a, b = hj_normalize(r, a, b)
    if r == 1:
        return SMOOTH
    if (a + b) % r == 0:
        return A(r - 1)
    return NonGorensteinCyclic(r, a, b)


def hj_chain(r: int, q: int):
    """The Hirzebruch-Jung continued fraction r/q = [b_1, ..., b_l], for
    0 < q < r coprime: the exceptional curves of 1/r(1, q) form a chain
    with self-intersections -b_1, ..., -b_l."""
    chain = []
    while q:
        b = -(-r // q)
        chain.append(b)
        r, q = q, b * q - r
    return chain


def local_noether_terms(germ):
    """(l, c) for a germ: l exceptional curves in its minimal resolution,
    and c = -(sum a_i E_i)^2 for its discrepancies a_i, so that a
    rational surface of Picard rank 1 has K^2 = 9 - sum l + sum c.

    A du Val point has c = 0.  For 1/r(a, b) = 1/r(1, q), with the chain
    r/q = [b_1, ..., b_l] and q q' = 1 mod r, the closed form is
    c = (q + q' + 2)/r - 2 + sum_i (b_i - 2).
    """
    if germ == SMOOTH:
        return (0, 0)
    if isinstance(germ, DynkinType):
        return (germ.rank, 0)
    r = germ.r
    q = germ.b * pow(germ.a, -1, r) % r
    chain = hj_chain(r, q)
    c = Fraction(q + pow(q, -1, r) + 2, r) - 2 + sum(b - 2 for b in chain)
    return (len(chain), c)


# ---------------------------------------------------------------------------
# singularity configurations (multisets of Dynkin types)
# ---------------------------------------------------------------------------

def config_sorted(config):
    return tuple(sorted(config, key=lambda t: (t.letter, t.rank)))


def config_rank(config) -> int:
    return sum(t.rank for t in config)


def config_str(config) -> str:
    if not config:
        return "smooth"
    parts = []
    for t in config_sorted(config):
        if parts and parts[-1][0] == t:
            parts[-1][1] += 1
        else:
            parts.append([t, 1])
    return "+".join(str(t) if k == 1 else f"{k}{t}" for t, k in parts)


def parse_config(text: str):
    """Parse 'A3+2A1' or 'D4+3A1' style configuration strings."""
    text = text.strip()
    if not text or text.lower() == "smooth":
        return ()
    out = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        mult = 1
        i = 0
        while i < len(chunk) and chunk[i].isdigit():
            i += 1
        if i:
            mult = int(chunk[:i])
            chunk = chunk[i:]
        out.extend([DynkinType.parse(chunk)] * mult)
    return config_sorted(out)


# ---------------------------------------------------------------------------
# curve configurations and blow-down calculus
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class CurveConfig:
    def __init__(self, labels: list, matrix: list, multiplicities: list | None = None):
        if not isinstance(labels, list):
            raise ValueError("labels must be a list")
        n = len(labels)
        if not (isinstance(matrix, list)
                and all(isinstance(row, list) for row in matrix)):
            raise ValueError("the intersection matrix must be a list of rows")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("intersection matrix shape must match labels")
        if not all(_is_int(x) for row in matrix for x in row):
            raise ValueError("intersection numbers must be integers")
        if multiplicities is not None and not (
                isinstance(multiplicities, list) and len(multiplicities) == n
                and all(_is_int(m) for m in multiplicities)):
            raise ValueError("multiplicities must be a list of integers, one per curve")
        for i in range(n):
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
                if i != j and matrix[i][j] < 0:
                    raise ValueError("off-diagonal intersections must be >= 0")
        self.labels = labels
        self.matrix = matrix              # symmetric integer intersection matrix
        self.multiplicities = multiplicities

    @classmethod
    def from_json(cls, data: dict) -> "CurveConfig":
        return cls(data["labels"], data["matrix"], data.get("multiplicities"))

    def to_json(self) -> dict:
        out = {"labels": self.labels, "matrix": self.matrix}
        if self.multiplicities is not None:
            out["multiplicities"] = self.multiplicities
        return out

    def index_of(self, label) -> int:
        return self.labels.index(label)


def blow_down(c: CurveConfig, i: int) -> CurveConfig:
    """Contract curve i; requires self-intersection -1.

    New C.D = C.D + (C.E)(D.E) for the surviving curves, E the contracted one.
    """
    if c.matrix[i][i] != -1:
        raise ValueError(
            f"cannot contract curve {c.labels[i]!r}: self-intersection "
            f"{c.matrix[i][i]} != -1")
    keep = [k for k in range(len(c.labels)) if k != i]
    new_matrix = [[c.matrix[a][b] + c.matrix[a][i] * c.matrix[b][i] for b in keep]
                  for a in keep]
    return CurveConfig([c.labels[k] for k in keep], new_matrix,
                       [c.multiplicities[k] for k in keep] if c.multiplicities else None)


def recognize_dynkin(c: CurveConfig):
    """Recognize a configuration of (-2)-curves as an ADE dual graph.

    Returns the DynkinType, or NotADE with the reason (wrong
    self-intersection, disconnected, cycle, branching too high, or a
    diagram shape outside the ADE list).
    """
    n = len(c.labels)
    if n == 0:
        return NotADE("empty configuration")
    for i in range(n):
        if c.matrix[i][i] != -2:
            return NotADE(
                f"curve {c.labels[i]!r} has self-intersection {c.matrix[i][i]}, not -2")
    adj = {i: [] for i in range(n)}
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if c.matrix[i][j] > 1:
                return NotADE(f"multiple edge between {c.labels[i]!r} and {c.labels[j]!r}")
            if c.matrix[i][j] == 1:
                adj[i].append(j)
                adj[j].append(i)
                edge_count += 1
    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) < n:
        return NotADE("disconnected")
    if edge_count != n - 1:
        return NotADE("contains a cycle")
    degrees = [len(adj[i]) for i in range(n)]
    if max(degrees) > 3:
        return NotADE("branch vertex of degree > 3")
    branches = [i for i in range(n) if degrees[i] == 3]
    if len(branches) > 1:
        return NotADE("more than one branch vertex")
    if not branches:
        return A(n)
    # arm lengths from the unique branch vertex
    b = branches[0]
    arms = []
    for start in adj[b]:
        length = 1
        prev, cur = b, start
        while degrees[cur] == 2:
            nxt = [x for x in adj[cur] if x != prev][0]
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    a1, a2, a3 = arms
    if a1 == 1 and a2 == 1:
        return D(a3 + 3)
    if a1 == 1 and a2 == 2 and a3 in (2, 3, 4):
        return E(a3 + 4)
    return NotADE(f"branch arms {arms} are not an ADE shape")
