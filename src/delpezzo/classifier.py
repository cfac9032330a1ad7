"""Classification search: the degree table, arithmetic cover filters,
quotient enumeration, the ramification inequality, and the final report.

The geometry that cannot be reduced to arithmetic (simply-connectedness
of smooth loci, existence of quasi-universal covers) enters only as
cited assumptions in report text; everything that is checked here is
checked by exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (DynkinType, all_types, config_rank, config_sorted,
                      config_str, local_pi1_order, parse_config, types_with_order)

# ---------------------------------------------------------------------------
# surface profiles and the degree table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceProfile:
    name: str
    d: int                      # K^2
    config: tuple               # singularity configuration (DynkinTypes)
    chi: int = 3
    smooth_locus_simply_connected: bool = True
    surfaces: tuple = ()        # names of the surfaces realizing this row

    def to_json(self):
        return {"name": self.name, "d": self.d,
                "config": [str(t) for t in config_sorted(self.config)],
                "chi": self.chi,
                "smooth_locus_simply_connected": self.smooth_locus_simply_connected,
                "surfaces": list(self.surfaces)}


D7_NOTE = "the case K^2 = 7 does not occur"


def lemma1_table():
    """Rank-1 Gorenstein log del Pezzo surfaces with simply-connected
    smooth locus: the seven singular rows plus the smooth plane.  The
    d = 1 row is realized by two non-isomorphic surfaces."""
    def row(name, d, cfg, surfaces):
        return SurfaceProfile(name, d, parse_config(cfg), 3, True, surfaces)

    return [
        row("P2", 9, "smooth", ("P2",)),
        row("A1", 8, "A1", ("Q",)),
        row("A1+A2", 6, "A1+A2", ("V3",)),
        row("A4", 5, "A4", ("V4",)),
        row("D5", 4, "D5", ("V5",)),
        row("E6", 3, "E6", ("V6",)),
        row("E7", 2, "E7", ("V7",)),
        row("E8", 1, "E8", ("V8", "V8'")),
    ]


def consistency(p: SurfaceProfile) -> dict:
    rank = config_rank(p.config)
    checks = {
        "degree_in_range": 1 <= p.d <= 9,
        "rank_matches": rank == 9 - p.d,
        "chi_is_3": 12 - p.d - rank == 3 and p.chi == 3,
    }
    return {"name": p.name, "d": p.d, "config": config_str(p.config),
            **checks, "pass": all(checks.values())}


# ---------------------------------------------------------------------------
# cover hypotheses and filters
# ---------------------------------------------------------------------------

K2_NOT_INTEGER = "K2NotInteger"
RANK_MISMATCH = "RankMismatch"
LOCAL_ORDER_UNREALIZABLE = "LocalOrderUnrealizable"
EULER_MISMATCH = "EulerMismatch"


@dataclass(frozen=True)
class CoverHypothesis:
    """An unramified-over-the-smooth-locus cover top -> bottom of degree n.

    assignment[i] is the multiset (sorted tuple) of local orders m_j of the
    preimage points of the i-th bottom singular point; m_j = 1 means a
    smooth preimage point of local covering degree T (= the bottom local
    order), m_j > 1 consumes a singular point of the top of that order.
    """
    top: SurfaceProfile
    degree: int
    bottom_config: tuple
    assignment: tuple


@dataclass(frozen=True)
class FilterVerdict:
    ok: bool
    reason: str = ""
    detail: str = ""

    def __str__(self):
        return "Ok" if self.ok else f"Contradiction({self.reason}: {self.detail})"


def cover_filter(h: CoverHypothesis) -> FilterVerdict:
    """Arithmetic filters F1-F4, applied in order; first failure wins."""
    n = h.degree
    # F1: K^2 multiplies along an unramified cover
    if n < 2 or h.top.d % n != 0:
        return FilterVerdict(False, K2_NOT_INTEGER,
                             f"K^2 = {h.top.d}/{n} is not a positive integer")
    d_bot = h.top.d // n
    # F2: exceptional rank of the bottom resolution
    rank = config_rank(h.bottom_config)
    if rank != 9 - d_bot:
        return FilterVerdict(False, RANK_MISMATCH,
                             f"rank {rank} != 9 - {d_bot}")
    # F3: local orders over each bottom point
    config = config_sorted(h.bottom_config)
    if len(h.assignment) != len(config):
        return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                             "one preimage multiset required per bottom point")
    used = []
    total_parts = 0
    for t, parts in zip(config, h.assignment):
        T = local_pi1_order(t)
        total = 0
        for m in parts:
            if T % m != 0:
                return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                                     f"local order {m} does not divide {T} at {t}")
            total += T // m
            if m > 1:
                used.append(m)
        if total != n:
            return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                                 f"covering degrees over {t} sum to {total}, not {n}")
        total_parts += len(parts)
    top_orders = sorted(local_pi1_order(t) for t in h.top.config)
    if sorted(used) != top_orders:
        return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                             f"top local orders {top_orders} not matched by {sorted(used)}")
    # F4: Euler multiplicativity over the smooth locus
    lhs = h.top.chi - total_parts
    rhs = n * (3 - len(config))
    if lhs != rhs:
        return FilterVerdict(False, EULER_MISMATCH,
                             f"chi: {h.top.chi} - {total_parts} = {lhs} != {n}*(3-{len(config)}) = {rhs}")
    return FilterVerdict(True)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def admissible_degrees(top: SurfaceProfile):
    return [n for n in range(2, top.d + 1) if top.d % n == 0]


def configs_of_rank(rank: int):
    """All ADE multisets with the given total rank (canonically sorted)."""
    types = all_types(rank)
    results = []

    def go(remaining, start, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for i in range(start, len(types)):
            t = types[i]
            if t.rank <= remaining:
                go(remaining - t.rank, i, acc + [t])

    go(rank, 0, [])
    return sorted((config_sorted(c) for c in results),
                  key=lambda c: (len(c), [(t.letter, t.rank) for t in c]))


def _point_options(t: DynkinType, n: int, top_orders):
    """Possible preimage multisets over one bottom point of type t.

    Each option is a sorted tuple of local orders m_j with the covering
    degrees T/m_j summing to n: a sub-multiset of the top orders m > 1
    dividing T, padded with smooth preimages (m = 1, degree T)."""
    T = local_pi1_order(t)
    usable = sorted(m for m in top_orders if m > 1 and T % m == 0)
    options = set()
    for k in range(len(usable) + 1):
        for combo in itertools.combinations(usable, k):
            left = n - sum(T // m for m in combo)
            if left >= 0 and left % T == 0:
                options.add((1,) * (left // T) + combo)
    return sorted(options)


def _assignments(bottom_config, n, top_orders):
    """All global assignments: one option per bottom point, together using
    every top singular point exactly once."""
    per_point = [_point_options(t, n, top_orders) for t in config_sorted(bottom_config)]
    tops = sorted(top_orders)
    return [a for a in itertools.product(*per_point)
            if sorted(m for opt in a for m in opt if m > 1) == tops]


PAPER_CASE_TAGS = {
    ("P2", 9, "A8"): "1.2",
    ("Q", 4, "A7"): "2.2",
    ("Q", 8, "2A1+D6"): "2.3",
}

SURVIVOR_ACTIONS = {
    ("P2", 3, "3A2"): "z3",
    ("P2", 9, "4A2"): "z3xz3",
    ("Q", 2, "2A1+A3"): "z4",
    ("Q", 4, "3A1+D4"): "quaternion8",
}


def top_profile(name: str) -> SurfaceProfile:
    table = {row.name: row for row in lemma1_table()}
    alias = {"P2": "P2", "Q": "A1", "A1": "A1", "A1+A2": "A1+A2", "V3": "A1+A2"}
    key = alias.get(name, name)
    if key not in table:
        raise ValueError(f"unknown top surface {name!r}")
    row = table[key]
    display = "Q" if key == "A1" else ("P2" if key == "P2" else row.name)
    return SurfaceProfile(display, row.d, row.config, row.chi,
                          row.smooth_locus_simply_connected, row.surfaces)


def enumerate_quotients(top_name: str) -> dict:
    """All covers top -> bottom passing the filters, plus named exclusions.

    For each admissible degree, every bottom configuration of the correct
    exceptional rank is tried with every preimage assignment; a config
    survives if some assignment passes all filters, otherwise the
    strongest applicable reason is reported."""
    top = top_profile(top_name)
    top_orders = sorted(local_pi1_order(t) for t in top.config)
    survivors = []
    exclusions = []
    for n in admissible_degrees(top):
        d_bot = top.d // n
        for config in configs_of_rank(9 - d_bot):
            assignments = _assignments(config, n, top_orders)
            verdict = None
            for assignment in assignments:
                h = CoverHypothesis(top, n, config, assignment)
                verdict = cover_filter(h)
                if verdict.ok:
                    break
            if verdict is not None and verdict.ok:
                survivors.append({"degree": n, "config": config_str(config),
                                  "d_bottom": d_bot})
                continue
            if not assignments:
                reason, detail = LOCAL_ORDER_UNREALIZABLE, \
                    "no preimage assignment matches the top's local orders"
            else:
                reason, detail = verdict.reason, verdict.detail
            entry = {"degree": n, "config": config_str(config), "reason": reason,
                     "detail": detail}
            tag = PAPER_CASE_TAGS.get((top.name, n, config_str(config)))
            if tag:
                entry["paper_case"] = tag
            exclusions.append(entry)
    for s in survivors:
        action = SURVIVOR_ACTIONS.get((top.name, s["degree"], s["config"]))
        if action:
            s["action"] = action
    return {"top": top.name, "top_d": top.d,
            "degrees": admissible_degrees(top),
            "survivors": survivors, "exclusions": exclusions}


# ---------------------------------------------------------------------------
# forced-type analysis (tops whose singular points overconstrain the bottom)
# ---------------------------------------------------------------------------

def forced_point_orders(orders, n: int):
    """Possible bottom local orders T at a point whose preimage contains
    top points of the given local orders (plus k smooth points).

    Each top point of order m covers with local degree T/m, each smooth
    point with degree T, and the degrees must sum to n."""
    lcm = math.lcm(*orders)
    out = []
    T = lcm
    while T // max(orders) <= n:
        fixed = sum(T // m for m in orders)
        if fixed <= n and (n - fixed) % T == 0:
            out.append(T)
        T += lcm
    return out


def min_rank_for_order(T: int) -> int:
    """Smallest rank of any ADE type with local fundamental group order T."""
    if T < 2:
        raise ValueError("local order must be >= 2")
    return min(t.rank for t in types_with_order(T))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def forced_exclusions(top: SurfaceProfile):
    """Degrees at which the bottom types forced over the top's singular
    points already exceed the bottom's total exceptional rank.

    Every grouping of top points over shared bottom points is considered;
    a degree is excluded when the cheapest forced ranks overflow for all
    of them."""
    out = []
    points = [local_pi1_order(t) for t in config_sorted(top.config)]
    for n in admissible_degrees(top):
        d_bot = top.d // n
        budget = 9 - d_bot
        best_total = None
        witness = None
        for grouping in _set_partitions(points):
            total = 0
            forced = []
            for group in grouping:
                orders = forced_point_orders(group, n)
                if not orders:
                    total = None
                    break
                cheapest = min(orders, key=min_rank_for_order)
                total += min_rank_for_order(cheapest)
                forced.append((group, orders, cheapest))
            if total is None:
                continue
            if best_total is None or total < best_total:
                best_total = total
                witness = forced
        if best_total is not None and best_total > budget:
            detail_parts = []
            for group, orders, cheapest in witness:
                detail_parts.append(
                    f"points of orders {group} force bottom local order in {orders} "
                    f"(cheapest rank {min_rank_for_order(cheapest)} at order {cheapest})")
            out.append({
                "degree": n, "d_bottom": d_bot,
                "forced_rank": best_total,
                "reason": RANK_MISMATCH,
                "detail": "; ".join(detail_parts)
                          + f"; total forced rank {best_total} > budget {budget}",
            })
        elif best_total is None:
            out.append({
                "degree": n, "d_bottom": d_bot,
                "forced_rank": None,
                "reason": LOCAL_ORDER_UNREALIZABLE,
                "detail": "no bottom local order is compatible with the top's "
                          "singular points at this degree",
            })
    return out


# ---------------------------------------------------------------------------
# ramification inequality
# ---------------------------------------------------------------------------

RAMIFICATION_E_MAX = 9
RAMIFICATION_DELTA_MAX = 4


def ramification_constraints(d: int) -> dict:
    """Branch data {(e_i, delta_i)} feasible under sum((e-1)/e)*delta < 1.

    Searching all multisets within the bounds, only the empty set and the
    singletons (e, 1) survive -- so any branch curve is irreducible."""
    if d < 1:
        raise ValueError("d must be >= 1")
    pairs = [(e, delta) for e in range(2, RAMIFICATION_E_MAX + 1)
             for delta in range(1, RAMIFICATION_DELTA_MAX + 1)]
    feasible = [[]]
    for size in (1, 2):
        for combo in itertools.combinations_with_replacement(pairs, size):
            total = sum(Fraction(e - 1, e) * delta for e, delta in combo)
            if total < 1:
                feasible.append(list(combo))
    singletons_only = all(len(c) <= 1 and (not c or c[0][1] == 1)
                          for c in feasible)
    return {"d": d,
            "feasible": [[list(p) for p in c] for c in feasible],
            "singletons_only": singletons_only,
            "conclusion": "any branch curve is irreducible and lies in |-K_V| "
                          "(delta = 1, single branch component)"}


# ---------------------------------------------------------------------------
# the aggregate report
# ---------------------------------------------------------------------------

FORCED_CASE_TAGS = {2: "§4(2) Case 1", 3: "§4(2) Case 2",
                    6: "§4(2) Case 3"}

CITED_ASSUMPTIONS = [
    "existence and uniqueness of the quasi-universal cover (geometric input, not computed)",
    "the complement of the branch divisor on V8' is simply-connected (geometric input, not computed)",
]


def theorem1_report() -> dict:
    """Which table rows are dominated by the plane, and how.

    Combines the quotient enumerations for the plane and the quadric cone,
    the forced-type contradictions for the A1+A2 top, the impossibility of
    degree >= 2 covers of the d = 1 surfaces, and the ramification
    inequality used against V8'."""
    p2 = enumerate_quotients("P2")
    q = enumerate_quotients("Q")
    v3_top = top_profile("A1+A2")
    v3_cases = forced_exclusions(v3_top)
    for case in v3_cases:
        tag = FORCED_CASE_TAGS.get(case["degree"])
        if tag:
            case["paper_case"] = tag
    other_tops = {}
    for row in lemma1_table():
        if row.name in ("P2", "A1", "A1+A2"):
            continue
        if row.d == 1:
            other_tops[row.name] = {
                "admissible_degrees": [],
                "note": "n * K^2_bottom = 1 has no solution with n >= 2, "
                        "so a degree >= 2 cover is impossible; any dominating "
                        "map from these surfaces is an isomorphism",
            }
        else:
            enum = enumerate_quotients(row.name)
            other_tops[row.name] = {
                "admissible_degrees": enum["degrees"],
                "survivors": enum["survivors"],
                "forced": forced_exclusions(row),
            }
    statuses = {
        "P2": "quotient realized: trivial group",
        "Q": "quotient realized: z2_cone",
        "V3": "quotient realized: z6",
        "3A2 surface": "quotient realized: z3",
        "4A2 surface": "quotient realized: z3xz3",
        "A3+2A1 surface": "quotient realized: z4",
        "D4+3A1 surface": "quotient realized: quaternion8",
        "V8": "not dominated",
        "V8'": "not a quotient; domination open",
    }
    return {
        "quasi_universal_cover_candidates": ["P2", "Q", "V3", "V8", "V8'"],
        "cover_analysis": {
            "P2": p2,
            "Q": q,
            "V3": {"top": "A1+A2", "top_d": 6,
                   "degrees": admissible_degrees(v3_top),
                   "survivors": [], "exclusions": v3_cases},
            "other_tops": other_tops,
        },
        "ramification": ramification_constraints(1),
        "statuses": statuses,
        "assumptions": CITED_ASSUMPTIONS,
    }


# ---------------------------------------------------------------------------
# cross-module agreement with the built-in actions
# ---------------------------------------------------------------------------

def cross_module_check() -> dict:
    """Match every built-in quotient profile against the classification.

    Quotients without branch lines are unramified over the smooth locus,
    so they must appear as enumerate_quotients survivors (degree = |G|).
    Ramified quotients have smaller quasi-universal covers: their
    (K^2, config) must match either a surviving bottom or a table row."""
    from .plane_action import builtin_actions, close_group, quotient_profile

    survivors = {}
    for top in ("P2", "Q"):
        res = enumerate_quotients(top)
        for s in res["survivors"]:
            survivors[(s["d_bottom"], s["config"])] = (top, s["degree"])
    rows = {(row.d, config_str(row.config)): row.name for row in lemma1_table()}

    results = {}
    for name, gens in builtin_actions().items():
        prof = quotient_profile(close_group(gens))
        key = (prof.k2, config_str(prof.config))
        if key in survivors:
            top, degree = survivors[key]
            results[name] = {"k2": prof.k2, "config": key[1], "matched": True,
                             "via": f"survivor of top {top} at degree {degree}"}
        elif key in rows:
            results[name] = {"k2": prof.k2, "config": key[1], "matched": True,
                             "via": f"table row {rows[key]}"}
        else:
            results[name] = {"k2": prof.k2, "config": key[1], "matched": False,
                             "via": ""}
    return {"builtins": results,
            "pass": all(r["matched"] for r in results.values())}
