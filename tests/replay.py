"""Replay a fixed corpus of delpezzo argvs in process, and compare two
replays argv by argv.

    python tests/replay.py --src path/to/src OUT.json
    python tests/replay.py --compare A.json B.json

The corpus, with repeats dropped:
- every argv of tests/*_golden.json
- the three bench.gen workloads at seeds 1-5, 6 blocks each
- gen.known_defects()
- report, --pretty report, lemma1 and fibers
- seeded weighted forms for `wps --singular`: g^2 + c*h^2 and g^2 + h^4,
  each in all 6 orders of its 3 variables, and random 3- and 4-variable
  forms
- seeded monomial actions of 1-3 generators for `quotient --action`

Each argv runs through the cli.main of the package under --src by the
benchmark's in-process runner, with stdout and stderr captured, under
CPU_LIMIT_S seconds of CPU: past it the argv is recorded as over the
limit, with no output.  --src is written as <src> in stderr, so that
tracebacks of two trees compare.  --compare prints the first SHOW
differing argvs.  Not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import itertools
import json
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
    return list(dict.fromkeys(argvs))


class CpuLimit(BaseException):
    """Raised from the profiling timer: a BaseException, so that neither
    cli.main's catch-all nor the runner's reports it as an error."""


def _on_limit(signum, frame):
    raise CpuLimit


def replay(src):
    src = str(Path(src).resolve())
    sys.path.insert(0, src)
    from bench.run import InProcess

    runner = InProcess()
    signal.signal(signal.SIGPROF, _on_limit)
    results = []
    for argv in corpus():
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
    return results


def _outcome(record):
    return {k: v for k, v in record.items() if k not in ("argv", "cpu_s")}


def compare(a, b):
    left = {tuple(r["argv"]): r for r in a}
    right = {tuple(r["argv"]): r for r in b}
    shared = [argv for argv in left if argv in right]
    differ = [argv for argv in shared if _outcome(left[argv]) != _outcome(right[argv])]
    both_limit = [argv for argv in shared
                  if "cpu_limit" in left[argv] and "cpu_limit" in right[argv]]
    print(f"argvs: {len(left)} and {len(right)}, {len(shared)} in both")
    print(f"identical: {len(shared) - len(differ)} ({len(both_limit)} of them over the "
          f"CPU limit on both)")
    print(f"differing: {len(differ)}")
    print(f"CPU on argvs under the limit on both: "
          f"{sum(left[v]['cpu_s'] for v in shared if v not in both_limit):.1f} s and "
          f"{sum(right[v]['cpu_s'] for v in shared if v not in both_limit):.1f} s")
    for argv in differ[:SHOW]:
        print(json.dumps(list(argv)))
        for side in (left, right):
            print("   ", json.dumps(_outcome(side[argv]))[:400])
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--src", help="the src/ directory whose delpezzo package runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two replay files")
    parser.add_argument("out", nargs="?", help="where to write the replay")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)
    if not (args.src and args.out):
        parser.error("give --src DIR OUT.json, or --compare A.json B.json")
    results = replay(args.src)
    Path(args.out).write_text(json.dumps(results, indent=0) + "\n")
    print(f"{len(results)} argvs, {sum('cpu_limit' in r for r in results)} over the CPU limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
