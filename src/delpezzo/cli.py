"""Command-line front end: every library operation behind a subcommand,
with canonical (sorted-key) JSON on stdout for golden-file testing.

Exit codes: 0 success, 1 operation-level contradiction / Indeterminate /
bound exceeded (still with a JSON body), 2 usage or parse error, 3
internal error: an unexpected exception, reported as the JSON body
{"error": "internal error", "exception": <type name>, "detail": <message>}
with its traceback on stderr.

Each subcommand imports the library modules it uses, so a process pays
only for the modules its subcommand needs.  No library module imports
dataclasses, typing or inspect, and `fractions` is imported where a
rational is parsed or computed, so `group`, `mumford`, `report`,
`lemma1`, `classify`, `recognize` and `blowdown` never load it.

A process enters at run(), which exits without tearing the interpreter
down; main(argv) is the in-process API.  Each call builds the top-level
parser and the arguments of the one subcommand its argv names, from the
SUBCOMMANDS table.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True))


def _read_maybe_file(value: str) -> str:
    if os.path.exists(value):
        try:
            with open(value, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:          # a directory, no permission
            raise SystemExit2(f"cannot read {value}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise SystemExit2(f"cannot read {value}: {exc}") from None
    return value


class OperationFailure(Exception):
    """Domain-level failure: reported as JSON with exit code 1."""

    def __init__(self, body: dict):
        super().__init__(body.get("error", "operation failed"))
        self.body = body


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_quotient(args) -> dict:
    from . import plane_action

    if bool(args.action) == bool(args.builtin):
        raise SystemExit2("exactly one of --action or --builtin is required")
    if args.builtin:
        actions = plane_action.builtin_actions()
        if args.builtin not in actions:
            raise SystemExit2(
                f"unknown builtin {args.builtin!r}; choose from {sorted(actions)}")
        gens = actions[args.builtin]
        name = args.builtin
    else:
        try:
            text = _read_maybe_file(args.action)
            gens = plane_action.parse_action(text)
        except plane_action.ActionError as exc:
            raise SystemExit2(str(exc)) from None
        name = args.action
    try:
        group = plane_action.close_group(gens)
        profile = plane_action.quotient_profile(group)
    except (plane_action.GroupCapExceeded, plane_action.ActionError) as exc:
        raise OperationFailure({"error": str(exc), "action": name}) from None
    out = profile.to_json()
    out["action"] = name
    return out


def cmd_classify(args) -> dict:
    from . import classifier

    top = args.top
    if top.startswith("lemma1:"):
        top = top[len("lemma1:"):]
    try:
        return classifier.enumerate_quotients(top)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


def cmd_lemma1(args) -> dict:
    from . import classifier

    rows = []
    for row in classifier.lemma1_table():
        entry = row.to_json()
        entry["consistency"] = classifier.consistency(row)
        rows.append(entry)
    return {"rows": rows, "impossible_d7": True, "note": classifier.D7_NOTE}


def _load_presentation(args) -> fpgroups.Presentation:
    from . import fpgroups

    text = args.presentation
    if text is None:
        text = sys.stdin.read()
    text = text.strip()
    if text.startswith(("{", "[")):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:     # RecursionError: deep nesting
            raise SystemExit2(f"bad presentation JSON: {exc}") from None
        text = data.get("presentation", "") if isinstance(data, dict) else None
        if not isinstance(text, str):
            raise SystemExit2('presentation JSON must be an object whose '
                              '"presentation" is a string')
    try:
        return fpgroups.parse_presentation(text)
    except ValueError as exc:
        raise SystemExit2(f"bad presentation: {exc}") from None


def cmd_group(args) -> dict:
    from . import fpgroups

    if args.hom is not None and args.hom < 1:
        raise SystemExit2(f"--hom must be at least 1, got {args.hom}")
    if args.bound is not None and args.bound < 1:
        raise SystemExit2(f"--bound must be at least 1, got {args.bound}")
    bound = fpgroups.DEFAULT_COSET_BOUND if args.bound is None else args.bound
    p = _load_presentation(args)
    out = {"presentation": fpgroups.format_presentation(p)}
    try:
        out["order"] = fpgroups.coset_enumerate(p, bound)
    except fpgroups.CosetBoundExceeded as exc:
        raise OperationFailure({"error": str(exc), "bound": exc.bound,
                                "presentation": out["presentation"]}) from None
    if args.abelianization:
        torsion, free_rank = fpgroups.abelianization(p)
        out["abelianization"] = {"torsion": torsion, "free_rank": free_rank}
    if args.hom is not None:
        out["hom_count"] = {"d": args.hom,
                            "count": fpgroups.hom_count_cyclic(p, args.hom)}
    return out


def cmd_mumford(args) -> dict:
    from . import fpgroups

    try:
        p = fpgroups.mumford_presentation(args.i)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    return {"i": args.i, "presentation": fpgroups.format_presentation(p)}


def _load_curve_config(path: str) -> lattice.CurveConfig:
    from . import lattice

    try:
        data = json.loads(_read_maybe_file(path))
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        return lattice.CurveConfig.from_json(data)
    except (json.JSONDecodeError, RecursionError, KeyError, ValueError) as exc:
        raise SystemExit2(f"bad curve configuration: {exc}") from None


def cmd_recognize(args) -> dict:
    from . import lattice

    c = _load_curve_config(args.config)
    result = lattice.recognize_dynkin(c)
    if isinstance(result, lattice.NotADE):
        return {"type": None, "not_ade": result.reason}
    return {"type": str(result),
            "cartan_determinant": lattice.cartan_determinant(result),
            "local_pi1_order": lattice.local_pi1_order(result)}


def cmd_blowdown(args) -> dict:
    from . import lattice

    c = _load_curve_config(args.config)
    try:
        i = c.index_of(args.curve)
    except ValueError:
        raise SystemExit2(f"no curve labelled {args.curve!r}") from None
    try:
        result = lattice.blow_down(c, i)
    except ValueError as exc:
        raise OperationFailure({"error": str(exc)}) from None
    return {"contracted": args.curve, "config": result.to_json()}


def _parse_params(pairs):
    from . import surfaces

    params = {}
    for pair in pairs or []:
        key, _, value = pair.partition("=")
        if not key or not value:
            raise SystemExit2(f"bad --param {pair!r}; expected name=rational")
        try:
            params[key] = surfaces.read_rational(value)
        except (ValueError, ZeroDivisionError):
            raise SystemExit2(f"bad rational {value!r} in --param") from None
        except OverflowError as exc:
            raise SystemExit2(f"bad --param {pair!r}: {exc}") from None
    return params


def _load_poly(args) -> surfaces.WeightedPoly:
    from . import surfaces

    text = _read_maybe_file(args.poly)
    try:
        return surfaces.parse_poly(text, _parse_params(args.param))
    except ValueError as exc:
        raise SystemExit2(f"bad polynomial: {exc}") from None


def cmd_wps(args) -> dict:
    from . import surfaces

    f = _load_poly(args)
    qh, degree = surfaces.is_quasi_homogeneous(f)
    out = {"poly": str(f),
           "variables": [{"name": n, "weight": w}
                         for n, w in zip(f.names, f.weights)],
           "quasi_homogeneous": qh,
           "degree": degree}
    if args.singular:
        if not qh:
            raise OperationFailure({**out, "error": "not quasi-homogeneous"})
        try:
            points = surfaces.cone_singular_points(f)
        except ValueError as exc:          # too many variables, conductor cap
            raise OperationFailure({**out, "error": str(exc)}) from None
        if isinstance(points, surfaces.Indeterminate):
            raise OperationFailure({**out, "indeterminate": points.factors})
        out["singular_points"] = [[str(c) for c in p] for p in points]
    return out


def cmd_germ(args) -> dict:
    from . import surfaces

    f = _load_poly(args)
    if len(f.names) != 2:
        raise SystemExit2("germ classification needs a 2-variable polynomial")
    try:
        point = tuple(surfaces.read_rational(x) for x in args.at.split(","))
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"bad point {args.at!r}; expected x,y rationals") from None
    except OverflowError as exc:
        raise SystemExit2(f"bad point {args.at!r}: {exc}") from None
    if len(point) != 2:
        raise SystemExit2("the point needs exactly two coordinates")
    try:
        germ = surfaces.germ_classify(f.terms, point)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    return {"poly": str(f), "at": [str(x) for x in point], "germ": germ}


def cmd_fibers(args) -> dict:
    from . import surfaces

    try:
        configs = surfaces.fiber_configurations(args.must_contain, args.total_euler)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    return {"configs": [list(c) for c in configs],
            "euler": {t: surfaces.kodaira_euler(t) for t in set().union(*configs)}}


def cmd_report(args) -> dict:
    from . import classifier

    return classifier.theorem1_report()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class SystemExit2(Exception):
    """Usage/parse error: message on stderr, exit code 2."""


# name: (help line, its arguments as (flag, add_argument keywords) pairs)
SUBCOMMANDS = {
    "quotient": ("singularity profile of P^2 / G", (
        ("--action", {"help": "action JSON (file or literal)"}),
        ("--builtin", {"help": "name of a built-in action"}))),
    "classify": ("enumerate covers of a top surface", (
        ("--top", {"required": True, "help": "P2, Q, or lemma1:<row>"}),)),
    "lemma1": ("the degree table with consistency checks", ()),
    "group": ("coset enumeration of a presentation", (
        ("--presentation", {"help": "presentation text (default: stdin)"}),
        ("--bound", {"type": int, "help": "coset table bound"}),
        ("--abelianization", {"action": "store_true"}),
        ("--hom", {"type": int, "metavar": "D",
                   "help": "also count homomorphisms to Z/D"}))),
    "mumford": ("boundary fundamental group presentation", (
        ("--i", {"type": int, "required": True}),)),
    "recognize": ("recognize an ADE dual graph", (
        ("--config", {"required": True, "help": "curve config JSON (file or literal)"}),)),
    "blowdown": ("contract a (-1)-curve", (
        ("--config", {"required": True, "help": "curve config JSON (file or literal)"}),
        ("--curve", {"required": True, "help": "label of the curve to contract"}))),
    "wps": ("weighted hypersurface checks", (
        ("--poly", {"required": True, "help": "polynomial text (file or literal)"}),
        ("--param", {"action": "append", "metavar": "NAME=Q"}),
        ("--singular", {"action": "store_true",
                        "help": "compute the cone singular locus"}))),
    "germ": ("classify a plane-curve germ", (
        ("--poly", {"required": True}),
        ("--param", {"action": "append", "metavar": "NAME=Q"}),
        ("--at", {"required": True, "help": "point as x,y rationals"}))),
    "fibers": ("elliptic fibre configurations", (
        ("--must-contain", {"default": "II*"}),
        ("--total-euler", {"type": int, "default": 12}))),
    "report": ("the aggregated classification report", ()),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of one argv.  The top level registers every subcommand
    with its help line, so its usage, help and errors do not depend on
    argv; only the subcommand argv names, its first item not starting
    with '-', gets -h and its arguments.  The top level has only flags,
    so a subparser argparse reaches is always that one."""
    named = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(prog="delpezzo")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line, add_help=name == named)
        if name == named:
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # looked up at call time, so a replaced cmd_* module attribute is the one run
        result = globals()[f"cmd_{args.command}"](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OperationFailure as exc:
        _emit(exc.body, args.pretty)
        return 1
    except Exception as exc:        # a bug, never a verdict on the input
        import traceback

        traceback.print_exc()
        _emit({"error": "internal error", "exception": type(exc).__name__,
               "detail": str(exc)}, args.pretty)
        return 3
    _emit(result, args.pretty)
    return 0


def run() -> None:
    """The process entry point: main() on sys.argv, then an exit that skips
    the interpreter's teardown (a fifth of a short process).  The exit
    handlers run and the output is flushed first, as at a normal exit; if
    a flush fails (a closed pipe or fd), sys.exit exits as it always did.
    A write that fails inside main() is taken as such a flush: exit 120."""
    try:
        rc = main()
    except OSError:         # the only OSError main() lets out is from a write
        sys.exit(120)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):      # None, broken or closed
        sys.exit(rc)
    os._exit(rc)


if __name__ == "__main__":
    run()
