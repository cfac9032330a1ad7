"""Interpreter start-up and import attribution, plus the machine facts
recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from .tracing import STARTUP_MODULES

IMPORT_PROBE = ("import time; t = time.perf_counter(); import delpezzo.cli; "
                "print((time.perf_counter() - t) * 1e3)")


def child_env(src):
    """Environment of every Python process the benchmark starts: src on
    PYTHONPATH and the bytecode cache on, as for an installed package,
    whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _python(args, env, cwd):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return perf_counter() - t0, proc


def startup_metrics(src, cwd, runs: int = 5) -> dict:
    """startup.python_ms: wall time of `python -c pass`;
    startup.import_ms: time of `import delpezzo.cli` inside a fresh process;
    startup.import.<module>_ms: self time of each delpezzo module under
    -X importtime.  All medians over `runs` fresh processes."""
    env = child_env(src)
    python = [_python(["-c", "pass"], env, cwd)[0] * 1e3 for _ in range(runs)]
    imports = [float(_python(["-c", IMPORT_PROBE], env, cwd)[1].stdout) for _ in range(runs)]
    per_module = {m: [] for m in STARTUP_MODULES}
    for _ in range(runs):
        seen = dict.fromkeys(STARTUP_MODULES, 0.0)
        stderr = _python(["-X", "importtime", "-c", "import delpezzo.cli"], env, cwd)[1].stderr
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue                         # the header line
            if name == "delpezzo" or name.startswith("delpezzo."):
                short = name.rsplit(".", 1)[-1]
                if short in seen:
                    seen[short] = int(self_us) / 1e3
        for m, v in seen.items():
            per_module[m].append(v)
    out = {"startup.python_ms": statistics.median(python),
           "startup.import_ms": statistics.median(imports)}
    out.update({f"startup.import.{m}_ms": statistics.median(v) for m, v in per_module.items()})
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _commit(root, src):
    """The git commit when the tree is a checkout with history, else a
    digest of the library sources (the benchmark also runs on exports)."""
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
        except OSError:                      # no git on this machine
            proc = None
        if proc and proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def machine_facts(root, src) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "commit": _commit(root, src)}
