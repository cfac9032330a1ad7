"""Replay a fixed corpus of delpezzo argvs in process, and compare two
replays argv by argv.

    python tests/replay.py --src path/to/src OUT.json
    python tests/replay.py --compare A.json B.json
    python tests/replay.py --digest OUT.json

The corpus, with repeats dropped:
- every argv of tests/*_golden.json
- the three bench.gen workloads at seeds 1-5, 6 blocks each
- gen.known_defects()
- report, --pretty report, lemma1 and fibers
- seeded weighted forms for `wps --singular`: g^2 + c*h^2 and g^2 + h^4,
  each in all 6 orders of its 3 variables, and random 3- and 4-variable
  forms
- seeded monomial actions of 1-3 generators for `quotient --action`
- PARSER_ARGVS, which argparse answers or refuses itself (none reads stdin)
- ERROR_ARGVS, one for each refusal or verdict of cli that no argv above
  reaches
- SIGN_ARGVS, polynomials with a run of signs between two terms or before
  the first

Each argv runs through the cli.main of the package under --src by the
benchmark's in-process runner, with stdout and stderr captured, under
CPU_LIMIT_S seconds of CPU: past it the argv is recorded as over the
limit, with no output.  COLUMNS is 80 while it runs, so that argparse
wraps help and usage alike on every terminal.  --src is written as <src>
in stderr, so that tracebacks of two trees compare.  --compare counts the argvs over the
limit on one side only and prints each with the CPU of the side that
finished it, so that a fix reads apart from a run that ends near the
limit; it sums the CPU of the argvs that finish on both, and prints the
first SHOW differing argvs.

The digest, tests/replay_digest.json, is the committed outcome of every
argv: {argv key: outcome key}, each a 12-hex-digit SHA-256 prefix, of the
argv's JSON and of its (exit code, stdout, stderr, runner error), or
"over the limit".  --digest writes it from a replay; --compare reads a
digest in place of either replay, and then compares outcome keys and
sums no CPU for that side.  A change that alters an output regenerates
the digest.  Not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import gen  # noqa: E402

FORM_WEIGHTS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (1, 2, 2))
RANDOM_WEIGHTS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1), (1, 1, 2, 3), (1, 1, 1, 2))
MODULI = (2, 3, 4, 5, 6, 8, 12)
CPU_LIMIT_S = 4.0
SHOW = 10
DIGEST = ROOT / "tests" / "replay_digest.json"
OVER = "over the limit"
GERM = "vars X:1 Y:1\nX^2 - 4*Y^2"
PARSER_ARGVS = (
    ("-h",), (), ("nosuch",), ("-",), ("-5", "report"), ("--", "report"),
    ("--nosuch", "report"), ("report", "--nosuch"), ("--pretty=1", "report"),
    *((name, "-h") for name in ("quotient", "classify", "lemma1", "group", "mumford",
                                "recognize", "blowdown", "wps", "germ", "fibers", "report")),
    ("classify",), ("mumford",), ("recognize",), ("blowdown",), ("blowdown", "--config", "{}"),
    ("wps",), ("germ",), ("germ", "--poly", GERM),
    ("mumford", "--i", "x"), ("group", "--presentation", "gens=1; rel=1^2", "--bound", "x"),
    ("group", "--presentation", "gens=1; rel=1^2", "--hom", "x"),
    ("fibers", "--total-euler", "x"),
    ("group", "--pres", "gens=1; rel=1^2"),
    ("germ", "--poly", GERM, "--at", "-2,1"), ("germ", "--poly", GERM, "--at=-2,1"),
)
CYCLIC6 = ("group", "--presentation", "gens=1; rel=1^6")
CURVES = '{"labels": ["E", "C"], "matrix": [[-1, 1], [1, -2]]}'
NOT_QH = "vars X:1 Y:1 Z:1\nX^2 + Y^3 + Z^3"
ERROR_ARGVS = (
    (*CYCLIC6, "--hom", "4"), (*CYCLIC6, "--hom", "0"),
    (*CYCLIC6, "--bound", "0"), (*CYCLIC6, "--bound", "-5"),
    ("group", "--presentation", '{"presentation": "gens=1; rel=1^6"}'),
    ("group", "--presentation", '["gens=1; rel=1^6"]'),
    ("quotient",), ("quotient", "--builtin", "z3xz3", "--action", "[]"),
    ("classify", "--top", "nosuch"), ("mumford", "--i", "3"),
    ("blowdown", "--config", CURVES, "--curve", "D"),
    ("blowdown", "--config", CURVES, "--curve", "C"),
    ("wps", "--poly", NOT_QH), ("wps", "--poly", NOT_QH, "--singular"),
    ("wps", "--poly", "vars A:1 B:1 C:1 D:1 E:1\nA^2 + B^2 + C^2 + D^2 + E^2", "--singular"),
    ("wps", "--poly", "vars X:1 Y:1\nX^2 - a*Y^2", "--param", "a"),
    ("wps", "--poly", "vars X:1 Y:1\nX^2 - a*Y^2", "--param", "a=1/0"),
    ("germ", "--poly", "vars X:1 Y:1 Z:1\nX^2 - Y*Z", "--at", "0,0"),
    ("germ", "--poly", GERM, "--at", "1,1"), ("germ", "--poly", GERM, "--at=0,0,0"),
    ("germ", "--poly", GERM, "--at=a,b"),
    ("germ", "--poly", "vars X:1 Y:1\nX^3 - Y^3", "--at", "0,0"),
    ("fibers", "--must-contain", "V"), ("fibers", "--total-euler", "1201"),
)
# each run once between linear terms, and once between X^2*Z and Y^2*Z, whose
# singular points are rational for X^2*Z - Y^2*Z
SIGN_RUNS = ("X - +Y", "X -+ Y", "X + -Y", "X - -Y", "- +X + Y")
SIGN_ARGVS = (
    *(("wps", "--poly", f"vars X:1 Y:1\n{text}") for text in SIGN_RUNS),
    *(("wps", "--poly", "vars X:1 Y:1 Z:1\n" + text.replace("X", "X^2*Z").replace("Y", "Y^2*Z"),
       "--singular") for text in SIGN_RUNS),
    ("germ", "--poly", "vars x:1 y:1\nx^2 - +y^2 - 2*x*y", "--at", "0,0"),
)


def _random_form(rng, weights, d, size):
    monomials = [e for e in itertools.product(*(range(d // w + 1) for w in weights))
                 if sum(w * x for w, x in zip(weights, e)) == d]
    return {e: Fraction(rng.choice([-2, -1, 1, 2, 3]))
            for e in rng.sample(monomials, min(size, len(monomials)))}


def _two_form_argvs(rng, count):
    """g^2 + c*h^2 or g^2 + h^4, singular where g and h vanish, in every
    order of the variables."""
    for _ in range(count):
        weights = rng.choice(FORM_WEIGHTS)
        d = max(weights) * rng.choice((1, 2))
        g = _random_form(rng, weights, d, 2)
        if rng.random() < 0.5:
            h = _random_form(rng, weights, d, 2)
            h2 = {e: c * rng.choice([1, -1, 2]) for e, c in gen._poly_mul(h, h).items()}
        else:
            h = _random_form(rng, weights, d // 2, 1) if d % 2 == 0 else {}
            h2 = gen._poly_mul(gen._poly_mul(h, h), gen._poly_mul(h, h))
        f = gen._poly_add(gen._poly_mul(g, g), h2)
        for order in itertools.permutations(range(3)):
            terms = {tuple(e[i] for i in order): c for e, c in f.items()}
            text = gen.poly_text(["XYZ"[i] for i in order], [weights[i] for i in order], terms)
            yield ("wps", "--poly", text, "--singular")


def _random_form_argvs(rng, count):
    for _ in range(count):
        weights = rng.choice(RANDOM_WEIGHTS)
        d = rng.choice((2, 3, 4, 6)) * max(weights)
        names = "XYZW"[:len(weights)]
        f = _random_form(rng, weights, d, rng.randint(2, 5))
        yield ("wps", "--poly", gen.poly_text(names, weights, f), "--singular")


def _action_argvs(rng, count):
    perms = list(itertools.permutations(range(3)))
    for _ in range(count):
        m = rng.choice(MODULI)
        gens = [(rng.choice(perms), tuple(Fraction(rng.randrange(m), m) for _ in range(3)))
                for _ in range(rng.randint(1, 3))]
        yield ("quotient", "--action", gen.action_json(gens))


def corpus():
    argvs = [tuple(case["argv"]) for path in sorted((ROOT / "tests").glob("*_golden.json"))
             for case in json.loads(path.read_text())]
    for workload in gen.WORKLOADS:
        for seed in range(1, 6):
            stream = gen.make(workload, seed)
            for _ in range(6):
                argvs += [op.argv for op in stream.next_block()]
    argvs += [op.argv for op in gen.known_defects()]
    argvs += [("report",), ("--pretty", "report"), ("lemma1",), ("fibers",)]
    rng = random.Random("replay corpus")
    argvs += _two_form_argvs(rng, 200)
    argvs += _random_form_argvs(rng, 600)
    argvs += _action_argvs(rng, 800)
    argvs += PARSER_ARGVS
    argvs += ERROR_ARGVS
    argvs += SIGN_ARGVS
    return list(dict.fromkeys(argvs))


class CpuLimit(BaseException):
    """Raised from the profiling timer: a BaseException, so that neither
    cli.main's catch-all nor the runner's reports it as an error."""


def _on_limit(signum, frame):
    raise CpuLimit


def replay(src, argvs=None):
    """The records of argvs (default: the corpus) run through the cli.main
    of the package under src."""
    src = str(Path(src).resolve())
    sys.path.insert(0, src)
    from bench.run import InProcess

    runner = InProcess()
    previous = signal.signal(signal.SIGPROF, _on_limit)
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    results = []
    try:
        for argv in corpus() if argvs is None else argvs:
            start = time.process_time()
            signal.setitimer(signal.ITIMER_PROF, CPU_LIMIT_S)
            try:
                res = runner.run(argv)[0]
                record = {"rc": res.rc, "stdout": res.stdout,
                          "stderr": res.stderr.replace(src, "<src>"), "error": res.error}
            except CpuLimit:
                record = {"cpu_limit": CPU_LIMIT_S}
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            record["cpu_s"] = round(time.process_time() - start, 4)
            results.append({"argv": list(argv), **record})
    finally:
        signal.signal(signal.SIGPROF, previous)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return results


def _outcome(record):
    return {k: v for k, v in record.items() if k not in ("argv", "cpu_s")}


def _short_hash(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


def argv_key(argv):
    return _short_hash(list(argv))


def outcome_key(record):
    """The record's digest entry: a hash of its outcome, or OVER."""
    if "key" in record:                     # a record read from a digest
        return record["key"]
    return OVER if "cpu_limit" in record else _short_hash(_outcome(record))


def digest(records):
    return {argv_key(r["argv"]): outcome_key(r) for r in records}


def _keyed(data):
    """{argv key: record} of a replay, or of a digest, whose records
    carry only their outcome key."""
    if isinstance(data, dict):
        return {k: {"key": v} for k, v in data.items()}
    return {argv_key(r["argv"]): r for r in data}


def compare(a, b):
    left, right = _keyed(a), _keyed(b)
    shared = [k for k in left if k in right]
    differ = [k for k in shared if outcome_key(left[k]) != outcome_key(right[k])]
    over = [{k for k in shared if outcome_key(side[k]) == OVER} for side in (left, right)]
    finished = [k for k in shared if k not in over[0] | over[1]]

    def shown(k):      # the argv, when a replay names it
        return json.dumps(left[k].get("argv") or right[k].get("argv") or k)

    def cpu(side, keys, spec):     # a digest records no CPU
        times = [side[k].get("cpu_s") for k in keys]
        return "-" if None in times else f"{sum(times):{spec}} s"

    print(f"argvs: {len(left)} and {len(right)}, {len(shared)} in both")
    print(f"identical: {len(shared) - len(differ)} ({len(over[0] & over[1])} of them over "
          f"the CPU limit on both)")
    print(f"differing: {len(differ)}")
    print(f"over the CPU limit on one side only: {len(over[0] - over[1])} and "
          f"{len(over[1] - over[0])}")
    for k in (k for k in shared if k in over[0] ^ over[1]):
        name, done = ("B", right) if k in over[0] else ("A", left)
        print(f"    {name} finishes in {cpu(done, [k], '.2f')}: {shown(k)}")
    print(f"CPU on the {len(finished)} argvs that finish on both: "
          f"{cpu(left, finished, '.1f')} and {cpu(right, finished, '.1f')}")
    for k in differ[:SHOW]:
        print(shown(k))
        for side in (left, right):
            print("   ", json.dumps(side[k].get("key") or _outcome(side[k]))[:400])
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--src", help="the src/ directory whose delpezzo package runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two replay files, or a replay file and the digest")
    parser.add_argument("--digest", metavar="REPLAY",
                        help=f"write the digest of a replay file to {DIGEST.relative_to(ROOT)}")
    parser.add_argument("out", nargs="?", help="where to write the replay")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)
    if args.digest:
        records = json.loads(Path(args.digest).read_text())
        DIGEST.write_text(json.dumps(digest(records), indent=0) + "\n")
        return 0
    if not (args.src and args.out):
        parser.error("give --src DIR OUT.json, --compare A.json B.json or --digest OUT.json")
    results = replay(args.src)
    Path(args.out).write_text(json.dumps(results, indent=0) + "\n")
    print(f"{len(results)} argvs, {sum('cpu_limit' in r for r in results)} over the CPU limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
