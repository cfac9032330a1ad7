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
rational is parsed, so `group` and `mumford` never load it.
"""

from __future__ import annotations

import argparse
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
        with open(value, encoding="utf-8") as fh:
            return fh.read()
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


def _coset_bound(args) -> int:
    """The number of cosets the enumeration may define: --bound, else
    DELPEZZO_COSET_BOUND, else the library default."""
    from . import fpgroups

    if args.bound is not None:
        bound, source = args.bound, "--bound"
    else:
        env = os.environ.get("DELPEZZO_COSET_BOUND")
        if env is None:
            return fpgroups.DEFAULT_COSET_BOUND
        source = "DELPEZZO_COSET_BOUND"
        try:
            bound = int(env)
        except ValueError:
            raise SystemExit2(f"{source} must be an integer, got {env!r}") from None
    if bound < 1:
        raise SystemExit2(f"{source} must be at least 1, got {bound}")
    return bound


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
    bound = _coset_bound(args)
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
    from fractions import Fraction

    params = {}
    for pair in pairs or []:
        key, _, value = pair.partition("=")
        if not key or not value:
            raise SystemExit2(f"bad --param {pair!r}; expected name=rational")
        try:
            params[key] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SystemExit2(f"bad rational {value!r} in --param") from None
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
    from fractions import Fraction

    from . import surfaces

    f = _load_poly(args)
    if len(f.names) != 2:
        raise SystemExit2("germ classification needs a 2-variable polynomial")
    try:
        point = tuple(Fraction(x) for x in args.at.split(","))
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"bad point {args.at!r}; expected x,y rationals") from None
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="delpezzo")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quotient", help="singularity profile of P^2 / G")
    p.add_argument("--action", help="action JSON (file or literal)")
    p.add_argument("--builtin", help="name of a built-in action")

    p = sub.add_parser("classify", help="enumerate covers of a top surface")
    p.add_argument("--top", required=True, help="P2, Q, or lemma1:<row>")

    sub.add_parser("lemma1", help="the degree table with consistency checks")

    p = sub.add_parser("group", help="coset enumeration of a presentation")
    p.add_argument("--presentation", help="presentation text (default: stdin)")
    p.add_argument("--bound", type=int, help="coset table bound")
    p.add_argument("--abelianization", action="store_true")
    p.add_argument("--hom", type=int, metavar="D",
                   help="also count homomorphisms to Z/D")

    p = sub.add_parser("mumford", help="boundary fundamental group presentation")
    p.add_argument("--i", type=int, required=True)

    p = sub.add_parser("recognize", help="recognize an ADE dual graph")
    p.add_argument("--config", required=True, help="curve config JSON (file or literal)")

    p = sub.add_parser("blowdown", help="contract a (-1)-curve")
    p.add_argument("--config", required=True, help="curve config JSON (file or literal)")
    p.add_argument("--curve", required=True, help="label of the curve to contract")

    p = sub.add_parser("wps", help="weighted hypersurface checks")
    p.add_argument("--poly", required=True, help="polynomial text (file or literal)")
    p.add_argument("--param", action="append", metavar="NAME=Q")
    p.add_argument("--singular", action="store_true",
                   help="compute the cone singular locus")

    p = sub.add_parser("germ", help="classify a plane-curve germ")
    p.add_argument("--poly", required=True)
    p.add_argument("--param", action="append", metavar="NAME=Q")
    p.add_argument("--at", required=True, help="point as x,y rationals")

    p = sub.add_parser("fibers", help="elliptic fibre configurations")
    p.add_argument("--must-contain", default="II*")
    p.add_argument("--total-euler", type=int, default=12)

    sub.add_parser("report", help="the aggregated classification report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
