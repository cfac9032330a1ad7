"""Finite monomial group actions on the projective plane.

Group elements are monomial matrices (permutation times diagonal, with
root-of-unity entries) considered up to a global scalar, i.e. as elements
of PGL(3).  Each is stored in its projective normal form, with the first
column's scalar divided out, so elements equal in PGL(3) compare and hash
equal.  Everything downstream is exact: eigenvalues come cycle-wise as
roots of unity, and every fixed point and pointwise-fixed line of a
monomial element has coordinates in {0} and the roots of unity.  A root
of unity zeta^e = exp(2*pi*i*e) is stored everywhere as its exponent e,
a Fraction in [0, 1), so matrix scalars, eigenvalues and points are
multiplied, compared, sorted and hashed without field arithmetic.
Stabilizers are classified through lattice's cyclic germs or the binary
polyhedral dictionary, and the quotient's K^2 and singularity
configuration are assembled with integer arithmetic throughout.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction

from .lattice import (DynkinType, cartan_determinant, config_sorted, cyclic_germ,
                      local_noether_terms, types_with_order)

GROUP_CAP = 720


class ActionError(ValueError):
    pass


class GroupCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"group closure exceeded cap {cap}")
        self.cap = cap


# ---------------------------------------------------------------------------
# monomial matrices modulo global scalar
# ---------------------------------------------------------------------------

class MonomialMatrix(namedtuple("MonomialMatrix", "perm scalars")):
    """Matrix with entry zeta^scalars[j] at position (perm[j], j), zero
    elsewhere, up to a global scalar.  The scalars are exponents of roots
    of unity (zeta^e = exp(2*pi*i*e)); construction divides out the first
    and reduces each into [0, 1), so scalars[0] is always 0.  Instances
    sort by (perm, scalars)."""

    __slots__ = ()

    def __new__(cls, perm: tuple, scalars: tuple):     # three Fraction exponents
        if sorted(perm) != [0, 1, 2]:
            raise ActionError(f"perm {perm} is not a permutation of 0,1,2")
        if len(scalars) != 3:
            raise ActionError("exactly three scalars required")
        s0 = scalars[0]
        scalars = tuple(s - s0 for s in scalars) if s0 else scalars
        return super().__new__(cls, perm, tuple(s % 1 for s in scalars))

    @classmethod
    def identity(cls) -> "MonomialMatrix":
        return cls((0, 1, 2), (Fraction(0),) * 3)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # (self*other) x = self(other x)
        perm = tuple(self.perm[other.perm[j]] for j in range(3))
        scalars = tuple(other.scalars[j] + self.scalars[other.perm[j]]
                        for j in range(3))
        return MonomialMatrix(perm, scalars)

    def inverse(self) -> "MonomialMatrix":
        inv_perm = tuple(self.perm.index(i) for i in range(3))
        scalars = tuple(-self.scalars[inv_perm[i]] for i in range(3))
        return MonomialMatrix(inv_perm, scalars)

    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and self.scalars == (0, 0, 0)

    def order(self) -> int:
        """Projective order (order in PGL(3)).

        A finite-order matrix is diagonalizable, so g^k is scalar exactly
        when its eigenvalues lambda_i^k agree: the order is the lcm of the
        denominators of lambda_i - lambda_0."""
        lams = [lam for lam, _ in eigen_data(self)]
        return math.lcm(*(((lam - lams[0]) % 1).denominator for lam in lams[1:]))

    def normal_action(self) -> "MonomialMatrix":
        """The induced action on line normals (inverse transpose)."""
        return MonomialMatrix(self.perm, tuple(-s for s in self.scalars))


def parse_action(text: str):
    """Parse action JSON into a list of generator matrices.

    Accepts either {"name":..., "generators":[...]} or a bare list of
    generator objects {"perm":[...], "scalars":["k/m",...]}.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:     # RecursionError: deep nesting
        raise ActionError(f"invalid JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("generators")
        if data is None:
            raise ActionError('action object is missing the "generators" key')
    if not isinstance(data, list):
        raise ActionError("generators must be a list")
    gens = []
    for i, g in enumerate(data):
        where = f"generator {i}"
        if not isinstance(g, dict) or "perm" not in g or "scalars" not in g:
            raise ActionError(f'{where}: expected {{"perm":..., "scalars":...}}')
        perm = g["perm"]
        if not (isinstance(perm, list) and all(type(k) is int for k in perm)
                and sorted(perm) == [0, 1, 2]):
            raise ActionError(f"{where}: perm {perm!r} is not a permutation of 0,1,2")
        scalars = g["scalars"]
        if not (isinstance(scalars, list) and len(scalars) == 3):
            raise ActionError(f"{where}: exactly three scalars required")
        parsed = []
        for k, s in enumerate(scalars):
            try:
                parsed.append(parse_exponent(str(s)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ActionError(f"{where}, scalar {k}: {exc}") from None
        gens.append(MonomialMatrix(tuple(perm), tuple(parsed)))
    return gens


def parse_exponent(text: str) -> Fraction:
    """The exponent e in [0, 1) of a root of unity written 'k/m' (for
    zeta^(k/m)) or '0' (for 1)."""
    text = text.strip()
    if text == "0":
        return Fraction(0)
    if "/" not in text:
        raise ValueError(f"bad root-of-unity literal {text!r} (expected 'k/m' or '0')")
    k, m = text.split("/", 1)
    return Fraction(int(k), int(m)) % 1


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------

class FiniteActionGroup(namedtuple("FiniteActionGroup", "elements")):
    """elements: the group's MonomialMatrix elements, sorted."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def non_identity(self):
        return [g for g in self.elements if not g.is_identity()]


def _closure(gens, cap: int) -> set:
    """The set of elements of the subgroup generated by gens: every product
    of generators, found by search from the identity."""
    seen = {MonomialMatrix.identity()}
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = g * current
            if nxt not in seen:
                if len(seen) >= cap:
                    raise GroupCapExceeded(cap)
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def close_group(gens, cap: int = GROUP_CAP) -> FiniteActionGroup:
    return FiniteActionGroup(tuple(sorted(_closure(gens, cap))))


# ---------------------------------------------------------------------------
# projective points and lines
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
THIRDS = {Fraction(1, 3), Fraction(2, 3)}


def _root_str(e) -> str:
    if e is None:
        return "0"
    if e == 0:
        return "1"
    if e == HALF:
        return "-1"
    return f"zeta({e.numerator}/{e.denominator})"


class ProjectivePoint:
    """Point of P^2 whose coordinates are 0 or roots of unity -- always the
    case for the fixed points and line normals of monomial elements --
    stored as the triple ``exps`` of exponents: a Fraction in [0, 1) for
    zeta^e, None for 0.  Construction rescales so that the first nonzero
    coordinate is 1, so equal points have identical triples."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        if len(exps) != 3:
            raise ActionError("a projective point needs three coordinates")
        lead = next((e for e in exps if e is not None), None)
        if lead is None:
            raise ActionError("all coordinates are zero")
        self.exps = tuple(None if e is None else (e - lead) % 1 for e in exps)

    def key(self):
        """Total order on points: exponent order, a zero coordinate first."""
        return tuple(-1 if e is None else e for e in self.exps)

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def transformed(self, m: MonomialMatrix) -> "ProjectivePoint":
        out = [None, None, None]
        for j, e in enumerate(self.exps):
            if e is not None:
                out[m.perm[j]] = e + m.scalars[j]
        return ProjectivePoint(out)

    def __str__(self):
        return "[" + ", ".join(_root_str(e) for e in self.exps) + "]"

    def __repr__(self):
        return f"ProjectivePoint({self})"


class Line:
    """Line in P^2 stored by its normal vector, a ProjectivePoint."""

    __slots__ = ("normal",)

    def __init__(self, normal: ProjectivePoint):
        self.normal = normal

    def contains(self, p: ProjectivePoint) -> bool:
        """Whether normal . p, a sum of at most three roots of unity, is 0:
        two cancel only as z - z, three only as a rotation of 1 + w + w^2
        with w a primitive cube root of unity."""
        terms = [a + b for a, b in zip(self.normal.exps, p.exps)
                 if a is not None and b is not None]
        if len(terms) < 2:
            return not terms
        offsets = {(t - terms[0]) % 1 for t in terms[1:]}
        return offsets == ({HALF} if len(terms) == 2 else THIRDS)

    def transformed(self, m: MonomialMatrix) -> "Line":
        return Line(self.normal.transformed(m.normal_action()))

    def __eq__(self, other):
        return isinstance(other, Line) and self.normal == other.normal

    def __hash__(self):
        return hash(self.normal)

    def __str__(self):
        return f"{{{self.normal} . x = 0}}"


# ---------------------------------------------------------------------------
# eigen data and fixed loci
# ---------------------------------------------------------------------------

def eigen_data(m: MonomialMatrix):
    """Three (eigenvalue exponent, eigenvector) pairs, computed cycle by cycle.

    A permutation cycle of length c whose scalars multiply to rho
    contributes the c c-th roots of rho; the eigenvector for each is
    supported on the cycle and solved exactly.
    """
    pairs = []
    seen = set()
    for start in range(3):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = m.perm[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = m.perm[j]
        c = len(cycle)
        rho = sum(m.scalars[j] for j in cycle) % 1
        for t in range(c):
            lam = ((rho + t) / c) % 1
            exps = [None, None, None]
            exps[start] = value = Fraction(0)
            j = start
            for _ in range(c - 1):
                # v[perm(j)] = scalars[j] * v[j] / lambda
                value = value + m.scalars[j] - lam
                j = m.perm[j]
                exps[j] = value
            pairs.append((lam, ProjectivePoint(exps)))
    return pairs


class FixedLocus:
    def __init__(self, points: list, line):
        self.points = points        # isolated fixed points
        self.line = line            # pointwise-fixed Line or None


def fixed_locus(g: MonomialMatrix) -> FixedLocus:
    """Isolated fixed points and the pointwise-fixed line (if any) of a
    non-identity projective transformation.  g is unitary and not scalar,
    so a double eigenspace is v^perp for the one isolated eigenvector v, and
    the line's normal is conj(v): the exponents of v negated."""
    if g.is_identity():
        raise ActionError("fixed_locus of the identity is everything")
    pairs = eigen_data(g)
    values = [lam for lam, _ in pairs]
    isolated = [v for lam, v in pairs if values.count(lam) == 1]
    line = None if len(isolated) == 3 else Line(ProjectivePoint(
        [None if e is None else -e for e in isolated[0].exps]))
    return FixedLocus(isolated, line)


def tangent_eigenvalues(g: MonomialMatrix, p: ProjectivePoint):
    """Eigenvalue exponents, in [0, 1), of the induced action on the tangent
    plane at a fixed point: the two other matrix eigenvalues divided by the
    one at p."""
    if p.transformed(g) != p:
        raise ActionError(f"point {p} is not fixed by the element")
    # the coordinate of p that is 1 comes from column j, times scalars[j]
    j = g.perm.index(p.exps.index(0))
    lam = (p.exps[j] + g.scalars[j]) % 1
    values = [v for v, _ in eigen_data(g)]
    values.remove(lam)       # one copy only: multiplicity matters
    return ((values[0] - lam) % 1, (values[1] - lam) % 1)


# ---------------------------------------------------------------------------
# stabilizer classification
# ---------------------------------------------------------------------------

class Unsupported(namedtuple("Unsupported", "reason")):
    __slots__ = ()

    def __str__(self):
        return f"Unsupported({self.reason})"


def _generators(elements):
    """A generating set of the group whose elements are given: in their
    order, each element outside the subgroup the earlier picks generate."""
    gens, span = [], {MonomialMatrix.identity()}
    for g in elements:
        if g not in span:
            gens.append(g)
            span = _closure(gens, len(elements))
    return gens


def _abelianization_order(elements, gens):
    """|H / [H,H]| for a finite group H given as a list of its elements
    and a generating set gens; [H,H] is generated by the conjugates of the
    generators' commutators."""
    commutators = [x * y * x.inverse() * y.inverse()
                   for x, y in itertools.combinations(gens, 2)]
    conjugates = {h * c * h.inverse() for h in elements for c in commutators}
    return len(elements) // len(_closure(conjugates, len(elements)))


def classify_stabilizer(stab, p: ProjectivePoint):
    """Local classification of the quotient singularity at the image of p
    from the list stab of its stabilizer's elements: lattice.SMOOTH, a
    DynkinType, lattice.NonGorensteinCyclic, or Unsupported.

    stab must be sorted, as _orbits yields it: a cyclic stabilizer is read
    off its least element of order n, and another generator would give
    another label 1/r(a, b) for the same germ."""
    if len(stab) == 1:
        raise ActionError(f"point {p} has trivial stabilizer")
    n = len(stab)
    generator = next((g for g in stab if not g.is_identity() and g.order() == n), None)
    if generator is not None:
        # cyclic stabilizer: read 1/n(a,b) off the generator's tangent action
        t1, t2 = tangent_eigenvalues(generator, p)
        return cyclic_germ(n, int(t1 * n), int(t2 * n))
    gens = _generators(stab)
    if all(x * y == y * x for x, y in itertools.combinations(gens, 2)):
        # finite abelian subgroups of SL(2) are cyclic, so this is neither
        # cyclic nor small: a reflection-laden abelian group
        return Unsupported(f"non-cyclic abelian stabilizer of order {n} at {p}")
    # non-abelian: the tangent determinant is a character, so the tangent
    # representation lies in SL(2) exactly when the generators' do
    if any(sum(tangent_eigenvalues(g, p)) % 1 for g in gens):
        return Unsupported(f"non-abelian stabilizer with reflections at {p}")
    # a binary polyhedral group is fixed by |H| and |H^ab| = det(Cartan)
    ab = _abelianization_order(stab, gens)
    for t in types_with_order(n):
        if cartan_determinant(t) == ab:
            return t
    return Unsupported(f"unrecognized SL(2) stabilizer: order {n}, ab {ab} at {p}")


# ---------------------------------------------------------------------------
# quotient profile
# ---------------------------------------------------------------------------

class OrbitData:
    def __init__(self, representative: ProjectivePoint, size: int,
                 stabilizer_order: int, classification):
        self.representative = representative
        self.size = size
        self.stabilizer_order = stabilizer_order
        self.classification = classification

    def to_json(self):
        return {"representative": str(self.representative),
                "size": self.size,
                "stabilizer_order": self.stabilizer_order,
                "classification": str(self.classification)}


class BranchLineData:
    def __init__(self, line: Line, e: int, orbit_size: int):
        self.line = line
        self.e = e                  # ramification index: order of the pointwise stabilizer
        self.orbit_size = orbit_size

    def to_json(self):
        return {"line": str(self.line), "e": self.e, "orbit_size": self.orbit_size}


class QuotientProfile:
    def __init__(self, group_order: int, k2: int, config: tuple, orbits: list,
                 branch_lines: list, euler_check: dict):
        self.group_order = group_order
        self.k2 = k2
        self.config = config
        self.orbits = orbits                # OrbitData, all special orbits incl. smooth images
        self.branch_lines = branch_lines    # BranchLineData
        self.euler_check = euler_check

    def to_json(self):
        return {"group_order": self.group_order,
                "k2": self.k2,
                "config": [str(t) for t in self.config],
                "orbits": [o.to_json() for o in self.orbits],
                "branch_lines": [b.to_json() for b in self.branch_lines],
                "euler_check": self.euler_check}


def _orbits(group: FiniteActionGroup, items, image):
    """The orbits of a G-stable list of items, each met first at its
    earliest member: yields (first, orbit, stabilizer), the orbit's
    members in the order the group elements produce them and the
    stabilizer of first, both read off one list of images."""
    unassigned = dict.fromkeys(items)
    for first in items:
        if first not in unassigned:
            continue
        images = [image(first, g) for g in group.elements]
        orbit = list(dict.fromkeys(images))
        for x in orbit:
            if x not in unassigned:
                raise RuntimeError(f"the image {x} of {first} is not among the "
                                   "items: they are not G-stable")
            del unassigned[x]
        yield first, orbit, [g for g, x in zip(group.elements, images) if x == first]


def quotient_profile(group: FiniteActionGroup) -> QuotientProfile:
    """Singularity configuration and K^2 of P^2 / G.

    Candidate points are the isolated fixed points of all non-identity
    elements.  They include the meet p of any two distinct fixed lines, of
    g1 and g2: at p these act on the tangent plane as unitary reflections
    with distinct mirrors, so g1*g2 != 1 fixes no tangent vector there and
    p is an isolated fixed point of g1*g2.  Conjugate elements have
    conjugate fixed loci, so both the candidates and the lines are
    G-stable: sorted by key, each orbit is met first at its key-least
    member, its representative.  Special orbits are classified by their
    stabilizers; branch lines get their ramification index from the order
    of their pointwise stabilizer.  K^2 from the branch lines is checked
    against the local Noether terms of the special orbits.
    """
    n = group.order
    loci = [fixed_locus(g) for g in group.non_identity()]

    # pointwise-fixed lines with their pointwise stabilizer orders
    line_e = {}
    for loc in loci:
        if loc.line is not None:
            line_e[loc.line] = line_e.get(loc.line, 1) + 1
    lines = sorted(line_e, key=lambda l: l.normal.key())
    candidates = sorted({p for loc in loci for p in loc.points}, key=ProjectivePoint.key)

    orbits = []
    special = []             # every point of a special orbit
    for rep, orbit, stab in _orbits(group, candidates, ProjectivePoint.transformed):
        if len(orbit) * len(stab) != n:
            raise ActionError(f"orbit of {rep} has size {len(orbit)} but its "
                              f"stabilizer has order {len(stab)} in a group of order {n}")
        if len(stab) == 1:
            continue        # free orbit: never a singular image
        cls = classify_stabilizer(stab, rep)
        if isinstance(cls, Unsupported):
            raise ActionError(str(cls))
        orbits.append(OrbitData(rep, len(orbit), len(stab), cls))
        special += orbit
    branch = [BranchLineData(rep, line_e[rep], len(orbit))
              for rep, orbit, _ in _orbits(group, lines, Line.transformed)]

    # K^2 bookkeeping: K_{P^2} = f^* K_V + sum (e-1) Gamma over branch lines;
    # the minimal resolution of V, of Picard rank 1 + sum l, gives 9 - sum l + sum c
    total = 3 + sum((b.e - 1) * b.orbit_size for b in branch)
    terms = [local_noether_terms(o.classification) for o in orbits]
    local = 9 - sum(l for l, _ in terms) + sum(c for _, c in terms)
    if Fraction(total * total, n) != local:
        raise RuntimeError(f"K^2 = {total}^2/{n} from the branch lines but {local} "
                           "from the local Noether terms")
    if (total * total) % n != 0:
        raise ActionError(f"K^2 = {total}^2/{n} is not an integer")
    k2 = total * total // n

    config = config_sorted([o.classification for o in orbits
                            if isinstance(o.classification, DynkinType)])
    euler = _euler_stratification(n, special, len(orbits), line_e)
    return QuotientProfile(n, k2, config, orbits, branch, euler)


def _euler_stratification(n, special, special_orbits, line_e):
    """Euler-number multiplicativity, stratum by stratum.

    P^2 splits into the free locus, the pointwise-fixed lines minus
    special points, and the special point orbits.  Each stratum covers
    its image with constant degree (|G|, |G|/e, |G|/|stab|), so
    chi(P^2) = 3 upstairs must reassemble to chi(quotient) = 3.

    With no branch lines this is exactly
    3 - #special points = |G| * (3 - #special orbits).
    """
    chi_line_strata = 0      # upstairs
    chi_line_images = Fraction(0)
    for line, e in line_e.items():
        chi = 2 - sum(1 for p in special if line.contains(p))
        chi_line_strata += chi
        chi_line_images += Fraction(chi * e, n)
    chi_free = 3 - chi_line_strata - len(special)
    ok = chi_free % n == 0 and chi_line_images.denominator == 1
    chi_quotient = Fraction(chi_free, n) + chi_line_images + special_orbits
    ok = ok and chi_quotient == 3
    return {"chi_free": chi_free,
            "chi_line_strata": chi_line_strata,
            "special_points": len(special),
            "special_orbits": special_orbits,
            "chi_quotient": int(chi_quotient) if chi_quotient.denominator == 1
            else str(chi_quotient),
            "pass": bool(ok)}


# ---------------------------------------------------------------------------
# built-in actions
# ---------------------------------------------------------------------------

def builtin_actions():
    """The six named actions used throughout: generator lists keyed by name."""
    def mono(perm, scalars):
        return MonomialMatrix(tuple(perm), tuple(parse_exponent(s) for s in scalars))

    return {
        # [-x, -y, z]: quotient is the quadric cone (A1, K^2 = 8)
        "z2_cone": [mono((0, 1, 2), ("1/2", "1/2", "0"))],
        # [x0, w*x1, -x2]: order 6, quotient has A1 + A2, K^2 = 6
        "z6": [mono((0, 1, 2), ("0", "1/3", "1/2"))],
        # diag(1, w, w^2): three A2 points, K^2 = 3
        "z3": [mono((0, 1, 2), ("0", "1/3", "2/3"))],
        # diag(1, w, w^2) and the coordinate 3-cycle: four A2 points, K^2 = 1
        "z3xz3": [mono((0, 1, 2), ("0", "1/3", "2/3")),
                  mono((1, 2, 0), ("0", "0", "0"))],
        # diag(1, i, -i): A3 + 2A1, K^2 = 4
        "z4": [mono((0, 1, 2), ("0", "1/4", "3/4"))],
        # adds [X, iZ, iY]: projective order 8, D4 + 3A1, K^2 = 2
        "quaternion8": [mono((0, 1, 2), ("0", "1/4", "3/4")),
                        mono((0, 2, 1), ("0", "1/4", "1/4"))],
    }
