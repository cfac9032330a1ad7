import itertools
import random

import pytest

from delpezzo import classifier as C
from delpezzo.lattice import local_pi1_order, parse_config


def test_lemma1_table_pairs():
    rows = C.lemma1_table()
    pairs = [(r.name, r.d) for r in rows]
    assert pairs == [("P2", 9), ("A1", 8), ("A1+A2", 6), ("A4", 5),
                     ("D5", 4), ("E6", 3), ("E7", 2), ("E8", 1)]
    assert 7 not in {r.d for r in rows}
    assert "7" in C.D7_NOTE


def test_lemma1_consistency():
    for row in C.lemma1_table():
        out = C.consistency(row)
        assert out["pass"], (row.name, out)


def test_lemma1_e8_has_two_surfaces():
    e8 = [r for r in C.lemma1_table() if r.d == 1][0]
    assert set(e8.surfaces) == {"V8", "V8'"}


class TestCoverFilter:
    def test_k2_not_integer(self):
        h = C.CoverHypothesis(C.top_profile("P2"), 2, parse_config("A1"), None)
        v = C.cover_filter(h)
        assert not v.ok and v.reason == C.K2_NOT_INTEGER

    def test_rank_mismatch(self):
        h = C.CoverHypothesis(C.top_profile("P2"), 3, parse_config("A2"), None)
        v = C.cover_filter(h)
        assert not v.ok and v.reason == C.RANK_MISMATCH

    def test_survivor(self):
        cfg = parse_config("3A2")
        assignments = C._assignments(cfg, 3, [])
        assert any(C.cover_filter(C.CoverHypothesis(C.top_profile("P2"), 3, cfg, a)).ok
                   for a in assignments)

    def test_euler_mismatch_a8(self):
        cfg = parse_config("A8")
        # the only assignment: one smooth preimage point of local degree 9
        h = C.CoverHypothesis(C.top_profile("P2"), 9, cfg, ((1,),))
        v = C.cover_filter(h)
        assert not v.ok and v.reason == C.EULER_MISMATCH


def test_admissible_degrees():
    assert C.admissible_degrees(C.top_profile("P2")) == [3, 9]
    assert C.admissible_degrees(C.top_profile("Q")) == [2, 4, 8]
    assert C.admissible_degrees(C.top_profile("E8")) == []


def test_configs_of_rank():
    names = {str(t) for cfg in C.configs_of_rank(2) for t in [cfg]}
    cfgs = {"+".join(str(t) for t in cfg) for cfg in C.configs_of_rank(2)}
    assert cfgs == {"A1+A1", "A2"}
    assert names  # silence the unused helper warning


def _preimage_multisets(T, n):
    """Every multiset of divisors m | T with the degrees T/m summing to n."""
    divisors = [m for m in range(1, T + 1) if T % m == 0 and T // m <= n]
    return sorted(ms for k in range(1, n + 1)
                  for ms in itertools.combinations_with_replacement(divisors, k)
                  if sum(T // m for m in ms) == n)


def _orders_code(orders):
    # the multiset of orders m > 1 as one integer (no count reaches 128),
    # so the code of a whole assignment is the sum of its points' codes
    return sum(128 ** m for m in orders if m > 1)


def test_assignments_match_brute_force():
    tops_list = [sorted(local_pi1_order(t) for t in row.config)
                 for row in C.lemma1_table()] + [[2, 2], [2, 3]]
    codes = {_orders_code(tops) for tops in tops_list}
    for r in range(9):
        for cfg in C.configs_of_rank(r):
            for n in range(1, 10):
                per_point = [_preimage_multisets(local_pi1_order(t), n) for t in cfg]
                point_codes = [[_orders_code(ms) for ms in opts] for opts in per_point]
                found = {code: [] for code in codes}
                for a, code in zip(itertools.product(*per_point),
                                   map(sum, itertools.product(*point_codes))):
                    if code in found:
                        found[code].append(a)
                for tops in tops_list:
                    assert C._assignments(cfg, n, tops) == found[_orders_code(tops)], \
                        (cfg, n, tops)


def test_smooth_preimages_match_brute_force():
    # the local covering equation against every multiset of divisors whose
    # degrees T/m sum to n, and every pair of orders m > 1, divisors or not
    for T in range(1, 31):
        for n in range(1, 10):
            brute = set(_preimage_multisets(T, n))
            for ms in brute:
                assert C._smooth_preimages(T, [m for m in ms if m > 1], n) == ms.count(1)
            for r in range(3):
                for orders in itertools.combinations_with_replacement(range(2, T + 1), r):
                    k = C._smooth_preimages(T, orders, n)
                    if k is None:
                        assert not any(ms[ms.count(1):] == orders for ms in brute)
                    else:
                        assert (1,) * k + orders in brute, (T, n, orders)


def _f3_passed(verdict):
    # F1 and F2 hold by construction below, and F4 is the only filter after F3
    return verdict.ok or verdict.reason == C.EULER_MISMATCH


def test_f3_accepts_exactly_the_built_assignments():
    rng = random.Random(17)
    tops = [C.top_profile(name) for name in ("P2", "Q", "V3", "A4", "D5", "E6", "E7")]
    for _ in range(3000):
        top = rng.choice(tops)
        n = rng.choice(C.admissible_degrees(top))
        config = rng.choice(C.configs_of_rank(9 - top.d // n))
        top_orders = sorted(local_pi1_order(t) for t in top.config)
        built = set(C._assignments(config, n, top_orders))
        assignment = []
        for t in config:
            T = local_pi1_order(t)
            options = C._point_options(t, n, top_orders) or _preimage_multisets(T, n) or [(1,)]
            parts = list(rng.choice(options))
            if rng.random() < 0.2:
                parts[rng.randrange(len(parts))] = rng.choice([1, 2, 3, 4, 5, 6, T])
            if rng.random() < 0.1:
                parts.append(rng.choice([1, 2, 3, T]))
            assignment.append(tuple(sorted(parts)))
        assignment = tuple(assignment)
        verdict = C.cover_filter(C.CoverHypothesis(top, n, config, assignment))
        assert verdict.reason != C.K2_NOT_INTEGER and verdict.reason != C.RANK_MISMATCH
        assert _f3_passed(verdict) == (assignment in built), (top.name, n, config, assignment)


def test_enumeration_builds_only_hypotheses_that_pass_f1_to_f3(monkeypatch):
    verdicts = []
    cover_filter = C.cover_filter

    def recording(h):
        verdicts.append(cover_filter(h))
        return verdicts[-1]

    monkeypatch.setattr(C, "cover_filter", recording)
    for row in C.lemma1_table():
        C.enumerate_quotients(row.name)
    assert verdicts and all(map(_f3_passed, verdicts))


def test_enumerate_p2():
    out = C.enumerate_quotients("P2")
    survivors = {(s["degree"], s["config"]) for s in out["survivors"]}
    assert survivors == {(3, "3A2"), (9, "4A2")}
    actions = {s["config"]: s.get("action") for s in out["survivors"]}
    assert actions == {"3A2": "z3", "4A2": "z3xz3"}
    tagged = {e["config"]: e["paper_case"]
              for e in out["exclusions"] if e.get("paper_case")}
    assert tagged == {"A8": "1.2"}


def test_enumerate_q():
    out = C.enumerate_quotients("Q")
    survivors = {(s["degree"], s["config"]) for s in out["survivors"]}
    assert survivors == {(2, "2A1+A3"), (4, "3A1+D4")}
    # every degree-8 candidate is excluded; the D6 case by the Euler count
    deg8 = [e for e in out["exclusions"] if e["degree"] == 8]
    assert deg8 and all(e["reason"] in (C.EULER_MISMATCH, C.RANK_MISMATCH,
                                        C.LOCAL_ORDER_UNREALIZABLE,
                                        C.K2_NOT_INTEGER) for e in deg8)
    d6 = [e for e in deg8 if e["config"] == "2A1+D6"]
    assert d6[0]["reason"] == C.EULER_MISMATCH
    assert d6[0]["paper_case"] == "2.3"


def test_other_tops_have_no_survivors():
    for name in ("A4", "D5", "E6", "E7"):
        assert C.enumerate_quotients(name)["survivors"] == []


def test_forced_exclusions_v3():
    out = C.forced_exclusions(C.top_profile("A1+A2"))
    by_degree = {e["degree"]: e for e in out}
    assert set(by_degree) == {2, 3, 6}
    for e in out:
        assert e["reason"] == C.RANK_MISMATCH
    # joint rank overflow at degree 2: A3 + A5 style forcing
    assert by_degree[2]["forced_rank"] > 9 - 3


def test_min_rank_for_order():
    assert C.min_rank_for_order(2) == 1       # A1
    assert C.min_rank_for_order(8) == 4       # D4 beats A7
    assert C.min_rank_for_order(24) == 6      # E6
    assert C.min_rank_for_order(120) == 8     # E8


def test_forced_point_orders():
    # degree 2 over a point of local order 6: total order must be 12
    options = C.forced_point_orders([6], 2)
    assert options and all(t % 6 == 0 for t in options)
    assert 12 in options
    # every T < 200 that the local covering equation admits, by brute force
    for orders in ([2], [3], [6], [2, 3], [2, 2], [2, 4], [3, 3, 6]):
        for n in range(1, 10):
            expected = [T for T in range(1, 200)
                        if all(T % m == 0 for m in orders)
                        and sum(T // m for m in orders) <= n
                        and (n - sum(T // m for m in orders)) % T == 0]
            assert C.forced_point_orders(orders, n) == expected, (orders, n)


def test_a_lone_point_of_order_m_admits_order_n_times_m():
    # so forced_exclusions always has the grouping of singletons to rank
    for m in range(1, 121):
        for n in range(1, 13):
            assert n * m in C.forced_point_orders([m], n), (m, n)


def test_every_survivor_of_every_top_names_a_builtin_action():
    from delpezzo.plane_action import builtin_actions

    names = set(builtin_actions())
    for top in ("P2", "Q", "V3", "A4", "D5", "E6", "E7", "E8"):
        for s in C.enumerate_quotients(top)["survivors"]:
            assert s["action"] in names, (top, s)


def test_ramification_constraints():
    out = C.ramification_constraints(1)
    assert out["singletons_only"]
    assert [] in out["feasible"]
    assert all(len(m) <= 1 and (not m or m[0][1] == 1) for m in out["feasible"])


def test_report_statuses():
    r = C.theorem1_report()
    assert r["statuses"]["V8"] == "not dominated"
    assert r["statuses"]["V8'"] == "not a quotient; domination open"
    assert r["statuses"]["P2"].startswith("quotient realized")
    assert set(r["cover_analysis"]) >= {"P2", "Q", "V3", "other_tops"}
    v3_tags = [e.get("paper_case") for e in r["cover_analysis"]["V3"]["exclusions"]]
    assert v3_tags == [C.FORCED_CASE_TAGS[2], C.FORCED_CASE_TAGS[3],
                       C.FORCED_CASE_TAGS[6]]
    assert r["assumptions"]


def test_cross_module_check():
    out = C.cross_module_check()
    assert out["pass"]
    assert set(out["builtins"]) == {"z2_cone", "z6", "z3", "z3xz3",
                                    "z4", "quaternion8"}
    for name, entry in out["builtins"].items():
        assert entry["matched"], (name, entry)


def test_unknown_top_rejected():
    with pytest.raises(ValueError):
        C.top_profile("nonsense")
