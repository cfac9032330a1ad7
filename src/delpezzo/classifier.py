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
from collections import namedtuple
from fractions import Fraction

from .lattice import (DynkinType, all_types, config_rank, config_sorted,
                      config_str, local_pi1_order, parse_config, types_with_order)

# ---------------------------------------------------------------------------
# surface profiles and the degree table
# ---------------------------------------------------------------------------

class SurfaceProfile(namedtuple(
        "SurfaceProfile", "name d config chi smooth_locus_simply_connected surfaces",
        defaults=(3, True, ()))):
    """d is K^2, config the singularity configuration (DynkinTypes) and
    surfaces the names of the surfaces realizing this row."""

    __slots__ = ()

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


class CoverHypothesis(namedtuple("CoverHypothesis", "top degree bottom_config assignment")):
    """An unramified-over-the-smooth-locus cover top -> bottom of degree n.

    assignment[i] is the multiset (sorted tuple) of local orders m_j of the
    preimage points of the i-th bottom singular point; m_j = 1 means a
    smooth preimage point of local covering degree T (= the bottom local
    order), m_j > 1 consumes a singular point of the top of that order.
    """

    __slots__ = ()


class FilterVerdict(namedtuple("FilterVerdict", "ok reason detail", defaults=("", ""))):
    __slots__ = ()


def _smooth_preimages(T: int, orders, n: int):
    """The local covering equation over a bottom point of local order T.

    Preimages of local orders m | T cover it with local degrees T/m, a
    smooth preimage with degree T, and the degrees sum to n: the number k
    of smooth preimages with sum(T/m) + k*T = n, or None when no k >= 0
    solves it."""
    if any(T % m for m in orders):
        return None
    k, rest = divmod(n - sum(T // m for m in orders), T)
    return k if k >= 0 and rest == 0 else None


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
    # F3: one preimage multiset per bottom point, using every top singular
    # point once, and the local covering equation over each point
    config = config_sorted(h.bottom_config)
    used = sorted(m for parts in h.assignment for m in parts if m > 1)
    top_orders = sorted(local_pi1_order(t) for t in h.top.config)
    if len(h.assignment) != len(config) or used != top_orders:
        return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                             f"preimages {list(h.assignment)} do not use {top_orders} once")
    for t, parts in zip(config, h.assignment):
        k = _smooth_preimages(local_pi1_order(t), [m for m in parts if m > 1], n)
        if k != parts.count(1):
            return FilterVerdict(False, LOCAL_ORDER_UNREALIZABLE,
                                 f"local degrees of {list(parts)} over {t} do not sum to {n}")
    # F4: Euler multiplicativity over the smooth locus
    total_parts = sum(map(len, h.assignment))
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
        for i, t in enumerate(types[start:], start):
            if t.rank <= remaining:
                go(remaining - t.rank, i, acc + [t])

    go(rank, 0, [])
    return sorted(results, key=lambda c: (len(c), [(t.letter, t.rank) for t in c]))


def _point_options(t: DynkinType, n: int, top_orders):
    """Possible preimage multisets over one bottom point of type t: a
    sub-multiset of the top orders m > 1, padded with the smooth preimages
    (m = 1) that the local covering equation asks for."""
    T = local_pi1_order(t)
    usable = sorted(m for m in top_orders if m > 1)
    options = set()
    for r in range(len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            k = _smooth_preimages(T, combo, n)
            if k is not None:
                options.add((1,) * k + combo)
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
    key = {"Q": "A1", "V3": "A1+A2"}.get(name, name)
    if key not in table:
        raise ValueError(f"unknown top surface {name!r}")
    return table[key]._replace(name="Q") if key == "A1" else table[key]


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
            verdict = FilterVerdict(
                False, LOCAL_ORDER_UNREALIZABLE,
                "no preimage assignment matches the top's local orders")
            for assignment in _assignments(config, n, top_orders):
                verdict = cover_filter(CoverHypothesis(top, n, config, assignment))
                if verdict.ok:
                    break
            key = (top.name, n, config_str(config))
            if verdict.ok:
                survivors.append({"degree": n, "config": key[2],
                                  "d_bottom": d_bot})
                if key in SURVIVOR_ACTIONS:
                    survivors[-1]["action"] = SURVIVOR_ACTIONS[key]
                continue
            exclusions.append({"degree": n, "config": key[2],
                               "reason": verdict.reason, "detail": verdict.detail})
            if key in PAPER_CASE_TAGS:
                exclusions[-1]["paper_case"] = PAPER_CASE_TAGS[key]
    return {"top": top.name, "top_d": top.d,
            "degrees": admissible_degrees(top),
            "survivors": survivors, "exclusions": exclusions}


# ---------------------------------------------------------------------------
# forced-type analysis (tops whose singular points overconstrain the bottom)
# ---------------------------------------------------------------------------

def forced_point_orders(orders, n: int):
    """Possible bottom local orders T at a point whose preimage contains
    top points of the given local orders (plus smooth points): the
    multiples of their lcm that solve the local covering equation.  Each
    top point covers with degree at least T/max(orders), so T < (n+1)*max."""
    lcm = math.lcm(*orders)
    return [T for T in range(lcm, (n + 1) * max(orders), lcm)
            if _smooth_preimages(T, orders, n) is not None]


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
        feasible = []
        for grouping in _set_partitions(points):
            forced = [(group, forced_point_orders(group, n)) for group in grouping]
            if all(orders for _, orders in forced):
                witness = [(group, orders, min(orders, key=min_rank_for_order))
                           for group, orders in forced]
                feasible.append((sum(min_rank_for_order(c) for *_, c in witness),
                                 witness))
        if not feasible:
            out.append({
                "degree": n, "d_bottom": d_bot,
                "forced_rank": None,
                "reason": LOCAL_ORDER_UNREALIZABLE,
                "detail": "no bottom local order is compatible with the top's "
                          "singular points at this degree",
            })
            continue
        best_total, witness = min(feasible, key=lambda f: f[0])
        if best_total > budget:
            out.append({
                "degree": n, "d_bottom": d_bot,
                "forced_rank": best_total,
                "reason": RANK_MISMATCH,
                "detail": "; ".join(
                    f"points of orders {group} force bottom local order in {orders} "
                    f"(cheapest rank {min_rank_for_order(cheapest)} at order {cheapest})"
                    for group, orders, cheapest in witness)
                          + f"; total forced rank {best_total} > budget {budget}",
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
            "V3": {"top": v3_top.name, "top_d": v3_top.d,
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
        for s in enumerate_quotients(top)["survivors"]:
            survivors[(s["d_bottom"], s["config"])] = (top, s["degree"])
    rows = {(row.d, config_str(row.config)): row.name for row in lemma1_table()}

    results = {}
    for name, gens in builtin_actions().items():
        prof = quotient_profile(close_group(gens))
        key = (prof.k2, config_str(prof.config))
        via = ""
        if key in survivors:
            via = "survivor of top {} at degree {}".format(*survivors[key])
        elif key in rows:
            via = f"table row {rows[key]}"
        results[name] = {"k2": prof.k2, "config": key[1], "matched": bool(via),
                         "via": via}
    return {"builtins": results,
            "pass": all(r["matched"] for r in results.values())}
