#!/usr/bin/env python3
"""The delpezzo benchmark: three seeded workloads with checked outputs.

    python3 bench/run.py --workload plane-quotients --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the directory above this file.
With --trace 0 it measures the end-to-end metrics, with --trace 1 it makes
a traced run and reports the per-layer metrics.  Each metric is printed
on its own line with its unit; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --workload all runs the
three workloads in turn; --smoke runs the benchmark's self-check.

Workloads (see gen.py and README.md): every op is one delpezzo argv.
plane-quotients and algebra call delpezzo.cli.main in this process with
stdout captured; cli-sessions starts a fresh `python -m delpezzo.cli`
process per op.  One client, closed loop: the next op starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]
    # byte-compile up front, so that no measured process compiles sources
    for _tree in (SRC, ROOT / "bench"):
        compileall.compile_dir(_tree, quiet=2)

from bench import gen, oracle, startup, tracing  # noqa: E402

SETUP_PROBES = 9
# blocks of a traced run: a fixed op list, so its counters repeat exactly
TRACE_BLOCKS = {"plane-quotients": 2, "algebra": 8, "cli-sessions": 1}
E2E_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "throughput_ops_s": "ops/s", "answered_ratio": "fraction",
             "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# runners: how one op is executed and timed
# ---------------------------------------------------------------------------

class InProcess:
    """Ops as delpezzo.cli.main(argv) calls, stdout and stderr captured.
    Argparse and the JSON emit are timed; interpreter start is not."""

    def __init__(self):
        from delpezzo import cli
        self.cli = cli
        self.tracer = None

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except Exception as exc:     # the op's traceback is its outcome
            error = type(exc).__name__
        dt = perf_counter() - t0
        return oracle.Result(rc, out.getvalue(), err.getvalue(), error), dt

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced(self, tracer):
        tracing.instrument(tracer)
        self.tracer = tracer
        return self

    def untrace(self):
        self.tracer.uninstall()


class Children:
    """Ops as fresh processes with src on PYTHONPATH; the peak RSS is the
    largest any op process reached."""

    def __init__(self):
        self.env = startup.child_env(SRC)
        self.command = [sys.executable, "-m", "delpezzo.cli"]
        self.peak_kb = 0
        self.tracer = None

    def spawn(self, argv):
        t0 = perf_counter()
        proc = subprocess.Popen(self.command + list(argv), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        dt = perf_counter() - t0
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out, err, dt

    def run(self, argv):
        rc, out, err, dt = self.spawn(argv)
        if self.tracer is None:
            return oracle.Result(rc, out, err, oracle.traceback_error(err)), dt
        if rc != 0:
            raise RuntimeError(f"traced child failed ({rc}): {err[-2000:]}")
        env = json.loads(out)
        self.tracer.merge(env["trace"], self.tracer.current_op)
        return oracle.Result(env["rc"], env["stdout"], env["stderr"], env["error"]), dt

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def traced(self, tracer):
        self.command = [sys.executable, str(ROOT / "bench" / "child.py")]
        self.tracer = tracer
        return self

    def untrace(self):
        self.command = [sys.executable, "-m", "delpezzo.cli"]
        self.tracer = None


def _drain(proc):
    """Read stdout and stderr to EOF without waiting for the process (its
    resource usage is collected by the caller's wait4)."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return (b"".join(chunks[proc.stdout]).decode(errors="replace"),
            b"".join(chunks[proc.stderr]).decode(errors="replace"))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed):
    """Imports, the first block of inputs and one warm-up op: everything
    before the first measured op can be sent."""
    stream = gen.make(workload, seed)
    runner = InProcess() if stream.in_process else Children()
    block = stream.next_block()
    runner.run(stream.warmup)
    return stream, runner, block


def measure_setup(workload, seed):
    """Median over fresh processes of launch -> ready (set-up done)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=startup.child_env(SRC))
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Outcomes:
    """Per-op outcomes; wps answers get their exact point check later."""

    def __init__(self):
        self.ops, self.rows, self.deferred = [], [], []

    def add(self, op, res):
        row = oracle.judge(op, res)
        if row[0] == oracle.OK and op.family.startswith("wps."):
            self.deferred.append((len(self.rows), op, json.loads(res.stdout)))
        self.ops.append(op)
        self.rows.append(row)

    def verify_deferred(self):
        for i, op, body in self.deferred:
            problem = oracle.verify_points(op.expect, body)
            if problem:
                self.rows[i] = (oracle.FAILED, f"wrong answer: {problem}")
        self.deferred.clear()

    def count(self, outcome):
        return sum(1 for row in self.rows if row[0] == outcome)

    def failures(self):
        return [(op, row) for op, row in zip(self.ops, self.rows) if row[0] == oracle.FAILED]


def timed_run(workload, seed, seconds):
    setup_s = measure_setup(workload, seed)
    stream, runner, block = setup(workload, seed)
    outcomes = Outcomes()
    latencies = []
    busy = 0.0
    while True:
        for op in block:
            res, dt = runner.run(op.argv)
            latencies.append(dt)
            busy += dt
            outcomes.add(op, res)
        if busy >= seconds:
            break
        block = stream.next_block()
    rss = runner.peak_rss_mb()
    outcomes.verify_deferred()
    defects = Outcomes()
    for op in gen.known_defects():
        defects.add(op, runner.run(op.argv)[0])
    defects.verify_deferred()
    n = len(latencies)
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] if n > 1
                           else latencies[0]) * 1e3,
        "throughput_ops_s": n / busy,
        "answered_ratio": outcomes.count(oracle.OK) / n,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return outcomes, metrics, E2E_UNITS, defects


def traced_run(workload, seed, blocks):
    layer = startup.startup_metrics(SRC, ROOT)
    stream, runner, block = setup(workload, seed)
    ops = list(block)
    for _ in range(blocks - 1):
        ops += stream.next_block()
    plain = sum(runner.run(op.argv)[1] for op in ops)
    tracer = tracing.Tracer()
    outcomes = Outcomes()
    traced = 0.0
    runner.traced(tracer)
    try:
        for i, op in enumerate(ops):
            tracer.current_op = i
            res, dt = runner.run(op.argv)
            traced += dt
            outcomes.add(op, res)
    finally:
        runner.untrace()
    outcomes.verify_deferred()
    layer.update(tracer.layer_metrics())
    layer["trace.overhead_ratio"] = traced / plain
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                 {"workload": workload, "seed": seed, "ops": [list(op.argv) for op in ops],
                  "metrics": layer})
    return outcomes, layer, tracing.metric_units(), None


def report(workload, seed, facts, outcomes, metrics, units, defects=None):
    n = len(outcomes.rows)
    failed = outcomes.count(oracle.FAILED)
    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {workload}, seed {seed}: {n} ops, "
          f"{outcomes.count(oracle.OK)} ok, {outcomes.count(oracle.REFUSED)} refused, "
          f"{failed} failed")
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    if "answered_ratio" in metrics:
        print(f"{'failed_ratio':<44} {failed / n:>14.6g} fraction")
    if defects is not None:
        # inputs that hit a known defect, run apart from the measured ops
        for op, row in zip(defects.ops, defects.rows):
            state = "still fails" if row[0] == oracle.FAILED else f"now {row[0]}"
            print(f"# known defect, {state}: {op.expect['defect']} | argv {list(op.argv)}")
    failures = outcomes.failures()
    for op, row in failures[:10]:
        print(f"# failure: {row[1]} | argv {list(op.argv)}", file=sys.stderr)
    return {"correct": not failures, "attempted": n, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


# ---------------------------------------------------------------------------
# one command for all workloads, and the smoke self-check
# ---------------------------------------------------------------------------

def _invoke(args):
    """Run this script in a fresh process; relay its report lines and
    return its final JSON object."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, cwd=ROOT, env=startup.child_env(SRC))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run {args} exited {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(seed, seconds, trace):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        result = _invoke(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return merged


def smoke():
    """Each workload at a tiny size: one timed run (one block) and two
    traced runs (one block each).  Checks the output schema, that no op
    fails, and that the two traced runs report the same counters.  Does
    not look at timings.  Returns the problems."""
    problems = []
    layer_units = tracing.metric_units()
    for workload in gen.WORKLOADS:
        timed = _invoke(["--workload", workload, "--seed", "7", "--seconds", "0"])
        traced = [_invoke(["--workload", workload, "--seed", "7", "--trace", "1",
                           "--blocks", "1"]) for _ in range(2)]
        for result, units in [(timed, E2E_UNITS)] + [(t, layer_units) for t in traced]:
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload}: correct={result['correct']}, "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload}: metrics {sorted(set(got) ^ set(units))}")
        for name, unit in layer_units.items():
            if unit in ("count", "ratio") and name != "trace.overhead_ratio":
                values = [t["metrics"][name]["value"] for t in traced]
                if values[0] != values[1]:
                    problems.append(f"{workload}: {name} differs: {values}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30,
                        help="op time to measure; whole blocks run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int,
                        help="blocks of a traced run (default: per workload)")
    parser.add_argument("--smoke", action="store_true", help="run the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "delpezzo" / "cli.py").is_file():
        print(f"error: no delpezzo sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"smoke: {p}")
        print("smoke: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    facts = startup.machine_facts(ROOT, SRC)
    if args.trace:
        blocks = args.blocks or TRACE_BLOCKS[args.workload]
        result = traced_run(args.workload, args.seed, blocks)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, facts, *result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
