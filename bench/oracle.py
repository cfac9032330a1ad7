"""Output checks: every op ends as ok, refused or failed.

ok       an exact answer that passes the checks below, or exit 2 for an
         input the generator made malformed on purpose
refused  a typed refusal: exit 1 with a JSON object on stdout, for a
         well-formed input
failed   anything else: a traceback, an exit code outside 0/1/2, a usage
         error on a well-formed input, or exit 0 with a wrong answer

The checks use closed-form goldens where a family has one and otherwise
invariants of the answer (orbit-stabilizer, Euler stratification,
K^2 + rank = 9 for Gorenstein quotients, f = df = 0 at every reported
singular point).  The singular-point check evaluates exactly in a
cyclotomic field with the small arithmetic below (independent of the
library's) and runs after the timed window, through ``verify_points``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import gen

OK, REFUSED, FAILED = "ok", "refused", "failed"


@dataclass
class Result:
    rc: int | None          # exit code; None when the op raised in-process
    stdout: str
    stderr: str
    error: str | None       # exception type of a traceback, if any


def traceback_error(stderr: str):
    """Exception type named by the last line of a traceback on stderr."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    last = stderr.strip().splitlines()[-1]
    return last.split(":", 1)[0].rsplit(".", 1)[-1] or "Exception"


def judge(op: gen.Op, res: Result):
    """(outcome, detail) of one op."""
    if res.error:
        return FAILED, f"traceback: {res.error}"
    if res.rc not in (0, 1, 2):
        return FAILED, f"exit code {res.rc}"
    if op.malformed:
        if res.rc == 2:
            return OK, ""
        return FAILED, f"malformed input accepted with exit {res.rc}"
    if res.rc == 2:
        return FAILED, f"usage error on a well-formed input: {res.stderr.strip()}"
    try:
        body = json.loads(res.stdout)
    except ValueError:
        body = None
    if not isinstance(body, dict):
        return FAILED, f"exit {res.rc} without a JSON object"
    if res.rc == 1:
        return REFUSED, str(body.get("error") or body.get("indeterminate"))
    try:
        problem = CHECKS[op.family.split(".")[0]](op.expect, body)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"malformed answer ({type(exc).__name__}: {exc})"
    if problem:
        return FAILED, f"wrong answer: {problem}"
    return OK, ""


# ---------------------------------------------------------------------------
# per-family answer checks: each returns a problem string or None
# ---------------------------------------------------------------------------

ADE_RE = re.compile(r"^[ADE]\d+$")


def config_rank(types) -> int:
    return sum(int(t[1:]) for t in types)


def config_str_rank(text: str) -> int:
    """Rank of a configuration string such as '2A1+A3' or 'smooth'."""
    if text == "smooth":
        return 0
    total = 0
    for part in text.split("+"):
        m = re.fullmatch(r"(\d*)([ADE])(\d+)", part)
        total += int(m.group(1) or 1) * int(m.group(3))
    return total


def check_quotient(expect, body):
    n = body["group_order"]
    if n != expect["order"]:
        return f"group order {n}, expected {expect['order']}"
    for orbit in body["orbits"]:
        if orbit["size"] * orbit["stabilizer_order"] != n:
            return f"orbit-stabilizer fails at {orbit['representative']}"
    if body["euler_check"]["pass"] is not True:
        return "euler_check does not pass"
    k2, config = Fraction(str(body["k2"])), body["config"]
    if "k2" in expect and k2 != expect["k2"]:
        return f"K^2 = {k2}, expected {expect['k2']}"
    if k2 <= 0:
        return f"K^2 = {k2}"
    gorenstein = all(o["classification"] == "Smooth" or ADE_RE.match(o["classification"])
                     for o in body["orbits"])
    if gorenstein and k2 + config_rank(config) != 9:
        return f"K^2 + rank = {k2} + {config_rank(config)} != 9"
    golden = expect.get("golden")
    if golden and (k2, sorted(config)) != (golden[0], sorted(golden[1])):
        return f"(K^2, config) = ({k2}, {config}), expected {golden}"
    return None


def parse_presentation(text):
    """(ngens, words) of 'gens=n; rel=f * f ...' with factors g, g^e, (w)^e."""
    ngens, words = None, []
    for part in text.split(";"):
        key, _, value = part.strip().partition("=")
        if key == "gens":
            ngens = int(value)
            continue
        word = []
        for factor in value.split("*"):
            base, _, exp = factor.strip().partition("^")
            letters = [int(x) for x in base.strip("()").split()]
            e = int(exp or 1)
            if e < 0:
                letters, e = [-g for g in reversed(letters)], -e
            word += letters * e
        words.append(word)
    return ngens, words


def check_group(expect, body):
    if body["order"] != expect["order"]:
        return f"order {body['order']}, expected {expect['order']}"
    if expect["torsion"] is not None:
        got = body["abelianization"]
        if got != {"torsion": expect["torsion"], "free_rank": 0}:
            return f"abelianization {got}, expected torsion {expect['torsion']}"
    if parse_presentation(body["presentation"]) != (expect["ngens"], expect["words"]):
        return "echoed presentation differs from the input"
    return None


def check_mumford(expect, body):
    if body["i"] != expect["i"] or parse_presentation(body["presentation"]) != (2, expect["words"]):
        return "presentation differs from the closed form"
    return None


def check_wps(expect, body):
    points = body["singular_points"]
    if len(points) != expect["count"]:
        return f"{len(points)} singular points, expected {expect['count']}"
    if "points" in expect and points != expect["points"]:
        return f"singular points {points}, expected {expect['points']}"
    return None


def check_germ(expect, body):
    if body["germ"] != expect["germ"] or body["at"] != expect["at"]:
        return f"germ {body['germ']} at {body['at']}, expected {expect['germ']}"
    return None


def check_recognize(expect, body):
    got = {k: body.get(k) for k in expect}
    return None if got == expect else f"{got}, expected {expect}"


def check_blowdown(expect, body):
    return None if body == expect else "contracted configuration differs"


def check_classify(expect, body):
    d = expect["top_d"]
    if body["top_d"] != d:
        return f"top_d {body['top_d']}, expected {d}"
    degrees = [n for n in range(2, d + 1) if d % n == 0]
    if body["degrees"] != degrees:
        return f"degrees {body['degrees']}, expected {degrees}"
    for s in body["survivors"]:
        if s["degree"] * s["d_bottom"] != d or \
                config_str_rank(s["config"]) != 9 - s["d_bottom"]:
            return f"survivor {s} breaks K^2 or rank bookkeeping"
    for e in body["exclusions"]:
        if e["degree"] not in degrees or not e["reason"]:
            return f"exclusion {e} has no reason"
    if expect["survivors"] is not None:
        got = sorted([s["degree"], s["config"]] for s in body["survivors"])
        if got != sorted(expect["survivors"]):
            return f"survivors {got}, expected {expect['survivors']}"
    return None


REPORT_STATUSES = {"P2", "Q", "V3", "3A2 surface", "4A2 surface", "A3+2A1 surface",
                   "D4+3A1 surface", "V8", "V8'"}


def check_report(expect, body):
    if set(body["statuses"]) != REPORT_STATUSES:
        return f"statuses {sorted(body['statuses'])}"
    cover = body["cover_analysis"]
    for top, d in (("P2", 9), ("Q", 8)):
        problem = check_classify({"top_d": d, "survivors": gen.SURVIVORS[d]}, cover[top])
        if problem:
            return f"{top}: {problem}"
    if cover["V3"]["survivors"]:
        return "V3 has survivors"
    return None


def check_lemma1(expect, body):
    rows = [[r["consistency"]["config"], r["d"]] for r in body["rows"]]
    if rows != gen.LEMMA1:
        return f"rows {rows}"
    if not all(r["consistency"]["pass"] for r in body["rows"]):
        return "a row fails its consistency check"
    return None


def check_fibers(expect, body):
    if sorted(body["configs"]) != sorted(gen.FIBERS):
        return f"configs {body['configs']}"
    if body["euler"] != {"II*": 10, "II": 2, "I1": 1}:
        return f"euler {body['euler']}"
    return None


CHECKS = {
    "quotient": check_quotient, "group": check_group, "mumford": check_mumford,
    "wps": check_wps, "germ": check_germ, "recognize": check_recognize,
    "blowdown": check_blowdown, "classify": check_classify, "report": check_report,
    "lemma1": check_lemma1, "fibers": check_fibers,
}


# ---------------------------------------------------------------------------
# exact evaluation of reported singular points (after the timed window)
# ---------------------------------------------------------------------------

def _cyclotomic_value(text: str):
    """(conductor m, {k: coeff}) for 'q', 'zeta(k/m)' or
    'c0 + c1*z + ... @ Q(zeta_m)': the value sum coeff * zeta_m^k."""
    text = text.strip()
    m = re.fullmatch(r"zeta\((\d+)/(\d+)\)", text)
    if m:
        return int(m.group(2)), {int(m.group(1)): Fraction(1)}
    if "@" not in text:
        return 1, {0: Fraction(text)}
    body, _, field = text.partition("@")
    conductor = int(re.fullmatch(r"\s*Q\(zeta_(\d+)\)\s*", field).group(1))
    coeffs = {}
    for term in body.split(" + "):           # 'c', 'c*z' or 'c*z^k'
        c, star, power = term.strip().partition("*z")
        k = int(power[1:]) if power else (1 if star else 0)
        coeffs[k] = coeffs.get(k, 0) + Fraction(c)
    return conductor, coeffs


def _phi(m):
    """Integer coefficients of the m-th cyclotomic polynomial, low first:
    x^m - 1 divided by every Phi_d with d a proper divisor of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _divide_monic(num, _phi(d))[0]
    return num


def _divide_monic(a, b):
    """Quotient and remainder of a by the monic polynomial b."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, a[:len(b) - 1]


def _mul_mod(a, b, phi):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divide_monic(out, phi)[1] if len(out) >= len(phi) else out


def verify_points(expect, body):
    """Problem string unless f and every partial derivative vanish exactly
    at every reported singular point, evaluated in Q(zeta_M)."""
    terms = expect["terms"]
    nvars = len(next(iter(terms)))
    system = [terms]
    for i in range(nvars):
        system.append({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                       for e, c in terms.items() if e[i]})
    for point in body["singular_points"]:
        values = [_cyclotomic_value(s) for s in point]
        big = math.lcm(*(m for m, _ in values))
        phi = _phi(big)
        xs = []
        for m, coeffs in values:
            x = [Fraction(0)] * (big + 1)
            for k, c in coeffs.items():
                x[k * big // m] += c
            xs.append(_divide_monic(x, phi)[1])
        for eq in system:
            total = [Fraction(0)] * (len(phi) - 1)
            for e, c in eq.items():
                term = [Fraction(c)]
                for x, k in zip(xs, e):
                    for _ in range(k):
                        term = _mul_mod(term, x, phi)
                for i, t in enumerate(term):
                    total[i] += t
            if any(total):
                return f"point {point} does not satisfy f = df = 0"
    return None
