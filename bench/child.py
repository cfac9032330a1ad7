"""Run one delpezzo argv in a fresh process under the tracer.

    python3 bench/child.py <delpezzo argv...>

Prints one JSON envelope: exit code, captured stdout and stderr, the
exception type if the call raised, and the recorded spans and counters.
The traced cli-sessions run starts one of these per op.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.tracing import Tracer, instrument  # noqa: E402


def main(argv):
    tracer = Tracer()
    instrument(tracer)
    from delpezzo import cli

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:      # a traceback is an outcome to report, not a crash here
        error = type(exc).__name__
    finally:
        tracer.uninstall()
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "error": error, "trace": tracer.dump()}))


if __name__ == "__main__":
    main(sys.argv[1:])
