"""Seeded argv streams for the three workloads.

A workload is a sequence of blocks.  Every block has the same
composition (so many ops of each family), and only the operands are drawn
from the seed; a run that stops after k blocks therefore always runs the
same mix, whatever the seed.  Each Op carries the expectation that
``bench.oracle`` checks its output against.

Everything here is independent of the delpezzo package: group orders,
abelianizations, singular-point counts and blow-down results come from
closed forms or from the small exact helpers in this file.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("plane-quotients", "algebra", "cli-sessions")


@dataclass(frozen=True)
class Op:
    argv: tuple            # delpezzo argv, without the program name
    family: str            # generator family, e.g. "quotient.diag"
    expect: dict = field(default_factory=dict)
    malformed: bool = False


def make(workload: str, seed: int):
    """The block stream of one workload for one seed."""
    cls = {"plane-quotients": PlaneQuotients, "algebra": Algebra,
           "cli-sessions": CliSessions}[workload]
    return cls(seed)


class Stream:
    """Blocks are generated on demand; argv uniqueness is enforced here
    for the workloads that promise it."""

    unique = True

    def __init__(self, seed: int):
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.seen = set()
        self.index = 0

    def fresh(self, draw):
        """Call draw() until it yields an Op that hits no known defect and,
        in a workload that promises it, whose argv is new in this run.
        None when 500 draws found none: the family has run out of new
        argvs, which only a run of several times the usual number of
        blocks reaches, and the block goes without it.  Inputs that hit a
        known defect run apart, in known_defects()."""
        for _ in range(500):
            op = draw()
            if op.expect.get("defect"):
                continue
            if not self.unique or op.argv not in self.seen:
                self.seen.add(op.argv)
                return op
        return None

    def next_block(self):
        block = [op for op in self.block(self.index) if op is not None]
        self.index += 1
        self.rng.shuffle(block)
        return block


# ---------------------------------------------------------------------------
# exact helpers: roots of unity as Fractions mod 1, monomial groups
# ---------------------------------------------------------------------------

def root_str(e: Fraction) -> str:
    """A root-of-unity literal as the CLI reads it: '0' or 'k/m'."""
    e %= 1
    return "0" if e == 0 else f"{e.numerator}/{e.denominator}"


PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def _mono_mul(g, h):
    # entry exps[j] sits at (perm[j], j); (g*h) x = g(h x)
    perm = tuple(g[0][h[0][j]] for j in range(3))
    exps = tuple((h[1][j] + g[1][h[0][j]]) % 1 for j in range(3))
    return perm, exps


def _mono_canon(g):
    e0 = g[1][0]
    return g[0], tuple((e - e0) % 1 for e in g[1])


def mono_group_order(gens, cap: int = 1000) -> int:
    """Order in PGL(3) of the group generated by monomial matrices."""
    gens = [_mono_canon(g) for g in gens]
    ident = ((0, 1, 2), (Fraction(0),) * 3)
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _mono_canon(_mono_mul(g, x))
            if y not in seen:
                seen.add(y)
                if len(seen) > cap:
                    return len(seen)
                frontier.append(y)
    return len(seen)


def action_json(gens) -> str:
    return json.dumps([{"perm": list(p), "scalars": [root_str(e) for e in s]}
                       for p, s in gens])


# ---------------------------------------------------------------------------
# plane-quotients
# ---------------------------------------------------------------------------

# (group order, K^2, configuration) of the six built-ins
BUILTINS = {
    "z2_cone": (2, 8, ["A1"]),
    "z6": (6, 6, ["A1", "A2"]),
    "z3": (3, 3, ["A2", "A2", "A2"]),
    "z3xz3": (9, 1, ["A2", "A2", "A2", "A2"]),
    "z4": (4, 4, ["A1", "A1", "A3"]),
    "quaternion8": (8, 2, ["A1", "A1", "A1", "D4"]),
}

DIAG_ORDERS = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def diag_generators(n):
    """(a, b) with diag(1, z_n^a, z_n^b) of projective order exactly n."""
    return [(a, b) for a in range(n) for b in range(n)
            if math.lcm(n // math.gcd(a, n), n // math.gcd(b, n)) == n]


def diag_k2(n, a, b) -> Fraction:
    """K^2 of P^2 / <diag(1, z^a, z^b)>.  The only pointwise-fixed lines are
    the coordinate lines; x_0 = 0 is fixed by the gcd(n, a-b) powers that
    make the last two eigenvalues equal, and likewise x_1 = 0 by gcd(n, b)
    and x_2 = 0 by gcd(n, a).  With K_{P^2} = f^* K + sum (e-1) L,
    K^2 = (3 + sum (e-1))^2 / n."""
    total = 3 + sum(math.gcd(n, x) - 1 for x in (a - b, b, a))
    return Fraction(total * total, n)


DIAG_INTEGRAL_SHARE = {
    n: sum(diag_k2(n, a, b).denominator == 1 for a, b in diag_generators(n))
    / len(diag_generators(n)) for n in DIAG_ORDERS}
# Cores of like-cost ops at the median and at the 90th percentile of the
# mix: (order n, kind of generator, ops per block).  The costs of cyclic
# groups of one order and kind lie within about 10% of each other, so a
# quantile that falls inside a core is not set by which of two unlike
# families an op's timing noise moves it into.  Order 8 with an integral
# K^2 sits at the median; order 11 with three distinct eigenvalues, which
# fixes no line pointwise, is the heavy core at the 90th percentile.
CORES = ((8, "integral", 10), (11, "distinct", 5))


def diag_kind(n, a, b, kind) -> bool:
    if kind == "distinct":
        return len({0, a, b}) == 3
    return (diag_k2(n, a, b).denominator == 1) == (kind == "integral")

# one 1-2 generator monomial group per order band and block
MONO_BANDS = ((2, 6), (7, 18), (19, 48), (49, 96))
GBAR_M = (2, 3, 4)


class PlaneQuotients(Stream):
    """quotient --builtin/--action on finite monomial groups.

    The groups come from one fixed stream, the same for every seed, so
    every run measures the same mix of costs; the seed conjugates each
    group by a coordinate permutation, multiplies each generator by a
    global scalar and shuffles the generators, which changes the argv and
    the order of the library's internal scans but not the quotient."""

    in_process = True
    warmup = ("quotient", "--builtin", "z2_cone")

    def __init__(self, seed):
        super().__init__(seed)
        self.base = random.Random("plane-quotients groups")
        self.builtins = sorted(BUILTINS)
        self.rng.shuffle(self.builtins)
        self.diag = {}                 # (n, kind) -> unused generators
        self.mono_seen = set()

    def block(self, k):
        ops = []
        if k < len(self.builtins):
            name = self.builtins[k]
            ops.append(self.fresh(lambda: Op(
                ("quotient", "--builtin", name), "quotient.builtin",
                {"order": BUILTINS[name][0], "golden": BUILTINS[name][1:]})))
        for n in DIAG_ORDERS:
            # two ops of order n per block, the i-th of which has an
            # integral K^2 in the same share as the generators of order n;
            # with many more cheap ops than heavy ones, the 90th percentile
            # falls among ops of steady cost
            share = DIAG_INTEGRAL_SHARE[n]
            for i in (2 * k, 2 * k + 1):
                integral = math.floor((i + 1) * share + 0.5) > math.floor(i * share + 0.5)
                kind = "integral" if integral else "fractional"
                ops.append(self._relabeled(*self._diag(n, kind)))
        for n, kind, count in CORES:
            ops += [self._relabeled(*self._diag(n, kind)) for _ in range(count)]
        for band in MONO_BANDS:
            ops.append(self._relabeled(*self._mono(band)))
        ops.append(self._relabeled(*self._gbar(GBAR_M[k % len(GBAR_M)])))
        return ops

    def _relabeled(self, gens, family, expect):
        def draw():
            sigma = self.rng.choice(PERMS)
            out = []
            for perm, exps in gens:
                c = Fraction(self.rng.randrange(60), 60)
                new_perm, new_exps = [0] * 3, [0] * 3
                for j in range(3):
                    new_perm[sigma[j]] = sigma[perm[j]]
                    new_exps[sigma[j]] = exps[j] + c
                out.append((tuple(new_perm), tuple(new_exps)))
            self.rng.shuffle(out)
            return Op(("quotient", "--action", action_json(out)), family, expect)
        return self.fresh(draw)

    def _diag(self, n, kind):
        """diag(1, z_n^a, z_n^b) of projective order exactly n and of the
        given kind (diag_kind); generators come back in a new order once
        all of them have been used."""
        queue = self.diag.setdefault((n, kind), [])
        if not queue:
            queue.extend(g for g in diag_generators(n) if diag_kind(n, *g, kind))
            self.base.shuffle(queue)
        a, b = queue.pop()
        gens = [((0, 1, 2), (Fraction(0), Fraction(a, n), Fraction(b, n)))]
        return gens, "quotient.diag", {"order": n, "k2": diag_k2(n, a, b)}

    def _mono(self, band):
        """A new 1-2 generator group with scalars in mu_m, m = 2..4, whose
        order lies in the band."""
        rng = self.base
        while True:
            m = rng.choice((2, 3, 4))
            gens = [(rng.choice(PERMS),
                     (Fraction(0), Fraction(rng.randrange(m), m), Fraction(rng.randrange(m), m)))
                    for _ in range(rng.choice((1, 2)))]
            order = mono_group_order(gens)
            key = tuple(gens)
            if band[0] <= order <= band[1] and key not in self.mono_seen:
                self.mono_seen.add(key)
                return gens, "quotient.mono", {"order": order}

    def _gbar(self, m):
        """A generating set of the monomial group G(m,1,3) mod scalars,
        of order 6 m^2; P^2 / G(m,1,3) is P(1,2,3)."""
        rng = self.base
        k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
        exps = [Fraction(0)] * 3
        exps[rng.randrange(3)] = Fraction(k, m)
        zero = (Fraction(0),) * 3
        transpositions = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
        if rng.random() < 0.5:
            perms = [rng.choice(transpositions), rng.choice([(1, 2, 0), (2, 0, 1)])]
        else:
            perms = rng.sample(transpositions, 2)
        gens = [((0, 1, 2), tuple(exps))] + [(p, zero) for p in perms]
        return gens, "quotient.gbar", {"order": 6 * m * m, "golden": (6, ["A1", "A2"])}


# ---------------------------------------------------------------------------
# presentations with closed-form orders and abelianizations
# ---------------------------------------------------------------------------

def _coxeter(edges, n):
    m = {(i, j): k for i, j, k in edges}
    rels = [(i, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append((i, j) * m.get((i, j), 2))
    return n, rels


def _chain(n, last=3):
    return [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, last)]


# name -> (ngens, relators, order, abelianization torsion)
COXETER = {
    "A4": (*_coxeter(_chain(4), 4), 120, [2]),
    "A5": (*_coxeter(_chain(5), 5), 720, [2]),
    "A6": (*_coxeter(_chain(6), 6), 5040, [2]),
    "B4": (*_coxeter(_chain(4, 4), 4), 384, [2, 2]),
    "B5": (*_coxeter(_chain(5, 4), 5), 3840, [2, 2]),
    "D4": (*_coxeter(_chain(3) + [(2, 4, 3)], 4), 192, [2]),
    "D5": (*_coxeter(_chain(4) + [(3, 5, 3)], 5), 1920, [2]),
    "D6": (*_coxeter(_chain(5) + [(4, 6, 3)], 6), 23040, [2]),
}
COXETER_CYCLE = ("A4", "D4", "A5", "B4", "D5", "B5", "A6", "D6")


def mumford(i):
    """<e2, e3 | (e2 e3)^2 = e2^3 = e3^(i-3)>: the binary polyhedral group
    of the E_{i} boundary, of order 5, 12, 24, 48, 120 for i = 4..8, with
    abelianization Z/(9-i)."""
    rels = [(1, 2, 1, 2, -1, -1, -1), (1, 1, 1) + (-2,) * (i - 3)]
    order = {4: 5, 5: 12, 6: 24, 7: 48, 8: 120}[i]
    return 2, rels, order, ([9 - i] if i < 8 else [])


def von_dyck(l, m, n):
    """<a, b | a^l, b^m, (ab)^n> for the finite spherical triangles used here."""
    rels = [(1,) * l, (2,) * m, (1, 2) * n]
    if (l, m) == (2, 2):           # dihedral of order 2n
        return 2, rels, 2 * n, ([2] if n % 2 else [2, 2])
    order, torsion = {2: (6, [2]), 3: (12, [3]), 4: (24, [2]), 5: (60, [])}[n]
    return 2, rels, order, torsion


def _relabel(rng, ngens, rels):
    """Permute generators, rotate and maybe invert each relator, reorder."""
    perm = list(range(1, ngens + 1))
    rng.shuffle(perm)
    out = []
    for rel in rels:
        word = [perm[abs(g) - 1] * (1 if g > 0 else -1) for g in rel]
        k = rng.randrange(len(word))
        word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = [-g for g in reversed(word)]
        out.append(tuple(word))
    rng.shuffle(out)
    return out


def _run_length(word):
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(str(word[i]) if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return " * ".join(parts)


def _render_word(rng, word):
    """Either run-length factors or, for a proper power, '(w)^k'."""
    n = len(word)
    for p in range(1, n):
        if n % p == 0 and word == word[:p] * (n // p) and rng.random() < 0.5:
            return f"({' '.join(map(str, word[:p]))})^{n // p}"
    return _run_length(word)


def presentation_text(rng, ngens, rels):
    return "; ".join([f"gens={ngens}"] + [f"rel={_render_word(rng, w)}" for w in rels])


def group_op(rng, family, spec, tight=False, abelianization=True):
    ngens, rels, order, torsion = spec
    rels = _relabel(rng, ngens, rels)
    bound = max(1, order // 2) if tight else max(200, order * rng.choice((20, 25, 32, 40)))
    argv = ["group", "--presentation", presentation_text(rng, ngens, rels),
            "--bound", str(bound)]
    if abelianization:
        argv.append("--abelianization")
    return Op(tuple(argv), family,
              {"order": order, "torsion": torsion if abelianization else None,
               "ngens": ngens, "words": [list(w) for w in rels]})


# ---------------------------------------------------------------------------
# polynomials: plane curves, Z_a and germs
# ---------------------------------------------------------------------------

def poly_text(names, weights, terms):
    """'vars ...' header plus the expression, with exact coefficients,
    written the way poly_str prints polynomials: 'a - b + c'."""
    header = "vars " + " ".join(f"{n}:{w}" for n, w in zip(names, weights))
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return header + "\n" + (" ".join(parts) if parts else "0")


_TOKEN = re.compile(r"[+-]|[^+\-\s]+")      # the tokenizer of surfaces.parse_poly

SIGN_DEFECT = ("parse_poly negates the previous term's sign at a '-' instead "
               "of setting it, so 'X - Y - Z' reads as X - Y + Z")


def sign_misparse(text: str) -> bool:
    """True when the text has a '-' right after a negative term, which the
    parse_poly sign defect (SIGN_DEFECT) reads with the wrong sign."""
    expr = text.partition("\n")[2]
    read, meant = [], []
    sign, pending, want = 1, True, 1
    for tok in _TOKEN.findall(expr):
        if tok == "+":
            sign, pending = 1, True
        elif tok == "-":
            sign, pending = (-1 if pending else -sign), True
            want = -want
        else:
            read.append(sign)
            meant.append(want)
            pending, want = False, 1
    return read != meant


def poly_op(argv, family, expect):
    """An op on a polynomial; inputs that hit the sign defect say so."""
    text = argv[argv.index("--poly") + 1]
    if sign_misparse(text):
        expect = dict(expect, defect=SIGN_DEFECT)
    return Op(tuple(argv), family, expect)


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _compose(terms, subs, nvars):
    """terms(subs[0], subs[1], ...) for polynomial substitutions."""
    out = {}
    for e, c in terms.items():
        term = {(0,) * nvars: Fraction(c)}
        for s, k in zip(subs, e):
            for _ in range(k):
                term = _poly_mul(term, s)
        out = _poly_add(out, term)
    return out


def _monomials(spec):
    """'X^3*Y' style monomials with integer coefficients over X, Y, Z."""
    terms = {}
    for coeff, mono in spec:
        e = [0, 0, 0]
        for factor in mono.split("*"):
            base, _, power = factor.partition("^")
            e["XYZ".index(base)] += int(power or 1)
        terms[tuple(e)] = Fraction(coeff)
    return terms


# (name, monomials, singular point count, scalable): "scalable" forms keep
# rational singular points under X -> aX, Y -> bY, Z -> cZ; the others have
# root-of-unity singular points (or none) and are only permuted,
# sign-flipped and multiplied by a constant.
CUBICS = [
    ("triangle", [(1, "X*Y*Z")], 3, True),
    ("nodal", [(1, "Y^2*Z"), (-1, "X^3"), (-1, "X^2*Z")], 1, True),
    ("cuspidal", [(1, "Y^2*Z"), (-1, "X^3")], 1, True),
    ("conic+line", [(1, "X^3"), (1, "X*Y*Z")], 2, True),
    ("concurrent", [(1, "X^3"), (1, "Y^3")], 1, False),
    ("line+pair", [(1, "Y*X^2"), (-1, "Y*Z^2")], 3, True),
    ("line+phi3", [(1, "Y*X^2"), (1, "Y*X*Z"), (1, "Y*Z^2")], 3, False),
    ("fermat3", [(1, "X^3"), (1, "Y^3"), (1, "Z^3")], 0, False),
]
QUARTICS = [
    ("three-conics", [(1, "X^2*Y^2"), (1, "Y^2*Z^2"), (1, "X^2*Z^2")], 3, True),
    ("four-lines", [(1, "X^2*Y*Z"), (1, "X*Y^2*Z"), (1, "X*Y*Z^2")], 6, True),
    ("tacnodes", [(1, "X^4"), (1, "Y^4"), (1, "Z^4"), (-2, "X^2*Y^2")], 2, True),
    ("double-cusp", [(1, "Y^2*Z^2"), (-1, "X^4")], 2, True),
    ("line+mu3", [(1, "Y*X^3"), (-1, "Y*Z^3")], 4, False),
    ("line+mu6", [(1, "Y*X^3"), (1, "Y*Z^3")], 4, False),
    ("fermat4", [(1, "X^4"), (1, "Y^4"), (1, "Z^4")], 0, False),
    ("klein", [(1, "X^3*Y"), (1, "Y^3*Z"), (1, "Z^3*X")], 0, False),
]


# Coefficients stay small: the resultant solver's rational-root search
# walks every divisor of the constant and leading coefficients, so large
# coefficients cost seconds to minutes per op.
SMALL = [Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2")]
SCALES = [Fraction(x) for x in ("1", "2", "1/2")]      # raised to the degree
# overall constants of the forms with coefficients +-1, which would
# otherwise have too few distinct texts for a run without repeats
CONSTANTS = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})


def _small_rational(rng):
    q = rng.choice(SMALL)
    return -q if rng.random() < 0.5 else q


def plane_curve_op(rng, curve):
    """wps --singular on a plane curve of known singular-point count."""
    name, spec, count, scalable = curve
    perm = rng.choice(PERMS)
    if scalable:
        scale = [rng.choice((1, -1)) * rng.choice(SCALES) for _ in range(3)]
        const = _small_rational(rng)
    else:
        scale = [Fraction(rng.choice((1, -1))) for _ in range(3)]
        const = rng.choice((1, -1)) * rng.choice(CONSTANTS)
    terms = {}
    for e, c in _monomials(spec).items():
        new = [0, 0, 0]
        coeff = c * const
        for i, k in enumerate(e):
            new[perm[i]] += k
            coeff *= scale[i] ** k
        terms[tuple(new)] = coeff
    text = poly_text(("X", "Y", "Z"), (1, 1, 1), terms)
    return poly_op(["wps", "--poly", text, "--singular"], f"wps.{name}",
                   {"terms": terms, "count": count})


def za_op(rng):
    """c1 W^2 + c2 Z^3 + c3 X^5 Y + a X^4 Z on P(1,1,2,3): for nonzero c_i
    the only singular point of the cone is [0:1:0:0]."""
    c = [_small_rational(rng) for _ in range(3)]
    a = _small_rational(rng) if rng.random() < 0.8 else Fraction(0)
    terms = {(0, 0, 0, 2): c[0], (0, 0, 3, 0): c[1], (5, 1, 0, 0): c[2]}
    text = poly_text(("X", "Y", "Z", "W"), (1, 1, 2, 3), terms) + " + a*X^4*Z"
    if a:
        terms[(4, 0, 1, 0)] = a
    return poly_op(["wps", "--poly", text, "--param", f"a={a}", "--singular"], "wps.za",
                   {"terms": terms, "count": 1, "points": [["0", "1", "0", "0"]]})


# local forms in (u, v) at the origin: (i, j, coefficient) for c u^i v^j
GERMS = {
    "Smooth": [(1, 0, 1), (2, 0, "a"), (3, 0, "b")],       # v + a u^2 + b u^3
    "Node": [(1, 1, 1), (3, 0, "a"), (0, 3, "b")],         # u v + a u^3 + b v^3
    "Cusp": [(0, 2, 1), (3, 0, "a"), (2, 1, "b")],         # v^2 + a u^3 + b u^2 v
    "Other": [(0, 2, 1), (4, 0, "a")],                     # v^2 + a u^4 (tacnode)
}
GERM_KINDS = sorted(GERMS)


def germ_op(rng, kind):
    params = {"a": _small_rational(rng), "b": _small_rational(rng)}
    local = {(i, j): Fraction(1) if c == 1 else params[c] for i, j, c in GERMS[kind]}
    p, q = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
    lam = Fraction(rng.randint(-2, 2))
    # u = x - p, v = (y - q) + lam (x - p): an affine change of coordinates
    u = {(1, 0): Fraction(1), (0, 0): -p}
    v = _poly_add({(0, 1): Fraction(1), (0, 0): -q}, {(1, 0): lam, (0, 0): -lam * p})
    scale = _small_rational(rng)
    terms = {e: c * scale for e, c in _compose(local, [u, v], 2).items()}
    text = poly_text(("x", "y"), (1, 1), terms)
    # one token: argparse would take a leading '-' of a separate value for a flag
    return poly_op(["germ", "--poly", text, f"--at={p},{q}"], f"germ.{kind.lower()}",
                   {"germ": kind, "at": [str(p), str(q)]})


# ---------------------------------------------------------------------------
# curve configurations
# ---------------------------------------------------------------------------

ADE = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
       + [("E", n) for n in (6, 7, 8)])


def dynkin_edges(letter, n):
    if letter == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]


def ade_invariants(letter, n):
    """(Cartan determinant, order of the local fundamental group)."""
    if letter == "A":
        return n + 1, n + 1
    if letter == "D":
        return 4, 4 * (n - 2)
    return {6: (3, 24), 7: (2, 48), 8: (1, 120)}[n]


def _config(rng, n, edges, diag):
    labels = [f"C{k}" for k in rng.sample(range(1, 100), n)]
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = diag[i]
    for i, j in edges:
        matrix[i][j] += 1
        matrix[j][i] += 1
    order = list(range(n))
    rng.shuffle(order)
    return ([labels[i] for i in order],
            [[matrix[i][j] for j in order] for i in order])


def recognize_op(rng, ade: bool):
    if ade:
        letter, n = rng.choice(ADE)
        labels, matrix = _config(rng, n, dynkin_edges(letter, n), [-2] * n)
        det, pi1 = ade_invariants(letter, n)
        expect = {"type": f"{letter}{n}", "cartan_determinant": det,
                  "local_pi1_order": pi1}
    else:
        shape = rng.choice(("cycle", "star", "minus3"))
        if shape == "cycle":                 # affine A_n: a cycle of (-2)-curves
            n = rng.randint(3, 7)
            edges, diag = [(i, (i + 1) % n) for i in range(n)], [-2] * n
        elif shape == "star":                # affine D_4: four arms
            n, edges, diag = 5, [(0, k) for k in range(1, 5)], [-2] * 5
        else:                                # a chain with one (-3)-curve
            n = rng.randint(2, 6)
            edges, diag = dynkin_edges("A", n), [-2] * n
            diag[rng.randrange(n)] = -3
        labels, matrix = _config(rng, n, edges, diag)
        expect = {"type": None}
    cfg = json.dumps({"labels": labels, "matrix": matrix})
    return Op(("recognize", "--config", cfg), "recognize.ade" if ade else "recognize.other",
              expect)


def blowdown_op(rng):
    """An ADE chain plus a (-1)-curve E meeting one or two of its curves;
    contracting E adds (C.E)(D.E) to every C.D."""
    letter, n = rng.choice(ADE)
    hits = rng.sample(range(n), min(n, rng.choice((1, 2))))
    edges = dynkin_edges(letter, n) + [(n, h) for h in hits]
    labels, matrix = _config(rng, n + 1, edges, [-2] * n + [-1])
    e = next(i for i, row in enumerate(matrix) if row[i] == -1)
    keep = [i for i in range(n + 1) if i != e]
    expected = {"labels": [labels[i] for i in keep],
                "matrix": [[matrix[a][b] + matrix[a][e] * matrix[b][e] for b in keep]
                           for a in keep]}
    cfg = json.dumps({"labels": labels, "matrix": matrix})
    return Op(("blowdown", "--config", cfg, "--curve", labels[e]), "blowdown",
              {"contracted": labels[e], "config": expected})


# ---------------------------------------------------------------------------
# the degree table
# ---------------------------------------------------------------------------

TOP_D = {"P2": 9, "Q": 8, "A1": 8, "A1+A2": 6, "V3": 6, "A4": 5, "D5": 4,
         "E6": 3, "E7": 2, "E8": 1}
SURVIVORS = {9: [[3, "3A2"], [9, "4A2"]], 8: [[2, "2A1+A3"], [4, "3A1+D4"]]}


def classify_op(top, prefix="", pretty=False):
    argv = (("--pretty",) if pretty else ()) + ("classify", "--top", prefix + top)
    return Op(argv, "classify", {"top_d": TOP_D[top], "survivors": SURVIVORS.get(TOP_D[top])})


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

class Algebra(Stream):
    """group, wps, germ, recognize, blowdown and classify ops.  Families
    rotate in a fixed order; the seed draws the operands."""

    in_process = True
    warmup = ("mumford", "--i", "4")

    def __init__(self, seed):
        super().__init__(seed)
        self.classify = [classify_op(top, prefix, pretty) for top in TOP_D
                         for prefix in ("", "lemma1:") for pretty in (False, True)]
        self.rng.shuffle(self.classify)

    def block(self, k):
        rng = self.rng
        ops = [self.fresh(lambda: group_op(rng, "group.mumford", mumford(i)))
               for i in range(4, 9)]
        for j in range(2):
            n = 2 + (2 * k + j) % 23
            r = 2 + (2 * k + j) % 4
            ops.append(self.fresh(lambda: group_op(rng, "group.dihedral", von_dyck(2, 2, n))))
            ops.append(self.fresh(lambda: group_op(rng, "group.triangle", von_dyck(2, 3, r))))
        name = COXETER_CYCLE[k % len(COXETER_CYCLE)]
        ops.append(self.fresh(lambda: group_op(rng, "group.coxeter", COXETER[name])))
        tight = [mumford(8), von_dyck(2, 3, 5), COXETER["A4"]][k % 3]
        ops.append(self.fresh(lambda: group_op(rng, "group.tight", tight, tight=True)))
        ops.append(self.fresh(lambda: za_op(rng)))
        for j in range(2):
            curve = CUBICS[(2 * k + j) % len(CUBICS)]
            ops.append(self.fresh(lambda: plane_curve_op(rng, curve)))
        ops.append(self.fresh(lambda: plane_curve_op(rng, QUARTICS[k % len(QUARTICS)])))
        for j in range(2):
            kind = GERM_KINDS[(2 * k + j) % len(GERM_KINDS)]
            ops.append(self.fresh(lambda: germ_op(rng, kind)))
            ade = (2 * k + j) % 4 != 3
            ops.append(self.fresh(lambda: recognize_op(rng, ade)))
            ops.append(self.fresh(lambda: blowdown_op(rng)))
        if k % 3 == 0 and self.classify:
            ops.append(self.classify.pop())
        return ops


# ---------------------------------------------------------------------------
# cli-sessions
# ---------------------------------------------------------------------------

LEMMA1 = [["smooth", 9], ["A1", 8], ["A1+A2", 6], ["A4", 5], ["D5", 4],
          ["E6", 3], ["E7", 2], ["E8", 1]]
FIBERS = [["II*", "I1", "I1"], ["II*", "II"]]

# malformed inputs: exit 2 is the right answer.  "defect" marks the ones
# that hit a known defect today and fail instead; they run in
# known_defects(), not in the measured stream.
MALFORMED = [
    Op(("quotient", "--action", "{bad json"), "malformed", {}, True),
    Op(("quotient", "--builtin", "z5"), "malformed", {}, True),
    Op(("group", "--presentation", "gens=2; rel=1 x"), "malformed", {}, True),
    Op(("group", "--presentation", "{bad json"), "malformed",
       {"defect": "bad presentation JSON raises JSONDecodeError"}, True),
    Op(("wps", "--poly", "vars X:1 Y:1\nX +* Y"), "malformed", {}, True),
    Op(("wps", "--poly", "vars X:1 Y:1\nX^-1*Y + X"), "malformed",
       {"defect": "the '-' in X^-1 splits the term; exit 0 with 2*X - Y"}, True),
    Op(("recognize", "--config", "{bad"), "malformed", {}, True),
    Op(("blowdown", "--config", "[1]", "--curve", "C"), "malformed",
       {"defect": "a non-object configuration raises TypeError"}, True),
    Op(("germ", "--poly", "vars x:1 y:1\ny^2 + x^3", "--at", "1,1"), "malformed", {}, True),
]
CLEAN_MALFORMED = [op for op in MALFORMED if not op.expect.get("defect")]


def _first_misparsed(draw):
    """The first op draw() makes that hits the parse_poly sign defect."""
    while True:
        op = draw()
        if op.expect.get("defect") == SIGN_DEFECT:
            return op


def known_defects():
    """Inputs that hit a known defect of the program, one per defect.  A
    measured workload holds none of them, so that no measured op fails;
    the runner runs these apart after the timed window and reports which
    still fail."""
    rng = random.Random("known defects")
    # -Y (X^2 + Z^2), read as -Y (X^2 - Z^2): the reported points move
    line_pair = poly_op(["wps", "--poly", "vars X:1 Y:1 Z:1\n-X^2*Y - Y*Z^2", "--singular"],
                        "wps.line+pair",
                        {"terms": {(2, 1, 0): Fraction(-1), (0, 1, 2): Fraction(-1)}, "count": 3})
    return ([op for op in MALFORMED if op.expect.get("defect")]
            + [line_pair, _first_misparsed(lambda: germ_op(rng, "Node"))])


CLI_GROUPS = [lambda rng: mumford(rng.randint(4, 8)),
              lambda rng: von_dyck(2, 3, rng.randint(2, 5)),
              lambda rng: von_dyck(2, 2, rng.randint(2, 12))]


CLI_CORE = "quaternion8"


class CliSessions(Stream):
    """Fresh `python -m delpezzo.cli` processes.  Commands repeat as they
    do for real users; families rotate in a fixed order, the seed draws
    operands and the order within each block."""

    in_process = False
    unique = False
    warmup = ("lemma1",)

    def block(self, k):
        rng = self.rng
        builtins = sorted(BUILTINS)
        ops = [Op(("report",), "report"), Op(("report",), "report"),
               Op(("lemma1",), "lemma1"), Op(("fibers",), "fibers"),
               classify_op("P2"), classify_op("Q")]
        # two built-ins in turn, and a core of the costliest one: the 90th
        # percentile falls inside that core instead of between unlike ops
        for name in [builtins[(2 * k + j) % len(builtins)] for j in range(2)] + [CLI_CORE] * 3:
            ops.append(Op(("quotient", "--builtin", name), "quotient.builtin",
                          {"order": BUILTINS[name][0], "golden": BUILTINS[name][1:]}))
        for j in range(2):
            i = 4 + (2 * k + j) % 5
            ops.append(Op(("mumford", "--i", str(i)), "mumford",
                          {"i": i, "words": [list(w) for w in mumford(i)[1]]}))
            spec = CLI_GROUPS[(2 * k + j) % len(CLI_GROUPS)](rng)
            ops.append(group_op(rng, "group", spec, abelianization=j == 0))
            ops.append(CLEAN_MALFORMED[(2 * k + j) % len(CLEAN_MALFORMED)])
        curves = CUBICS + QUARTICS
        ops.append(self.fresh(lambda: plane_curve_op(rng, curves[k % len(curves)])
                              if k % 5 else za_op(rng)))
        ops += [recognize_op(rng, k % 4 != 3), blowdown_op(rng),
                self.fresh(lambda: germ_op(rng, GERM_KINDS[k % len(GERM_KINDS)]))]
        return ops
