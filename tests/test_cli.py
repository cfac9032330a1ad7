import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from delpezzo.cli import main
from fixtures import ii_star_fiber, remove

GOLDEN = json.loads(Path(__file__).with_name("quotient_golden.json").read_text())
SURFACES_GOLDEN = json.loads(Path(__file__).with_name("surfaces_golden.json").read_text())
CLASSIFIER_GOLDEN = json.loads(Path(__file__).with_name("classifier_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith(("{", "[")) else out)


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args, stdout=subprocess.PIPE, **env):
    """A fresh interpreter with src/ on its path, its output captured; an
    environment variable given as None is unset."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env={k: v for k, v in env.items() if v is not None})


def test_quotient_builtin(capsys):
    code, out = run(capsys, "quotient", "--builtin", "z3xz3")
    assert code == 0
    assert out["k2"] == 1
    assert out["config"] == ["A2", "A2", "A2", "A2"]
    assert out["group_order"] == 9
    assert out["euler_check"]["pass"]


def test_quotient_action_literal(capsys):
    text = json.dumps([{"perm": [0, 1, 2], "scalars": ["0", "1/3", "2/3"]}])
    code, out = run(capsys, "quotient", "--action", text)
    assert code == 0
    assert out["config"] == ["A2", "A2", "A2"]
    assert out["k2"] == 3


def test_quotient_action_file(tmp_path, capsys):
    f = tmp_path / "action.json"
    f.write_text(json.dumps({"generators": [
        {"perm": [0, 1, 2], "scalars": ["1/2", "1/2", "0"]}]}))
    code, out = run(capsys, "quotient", "--action", str(f))
    assert code == 0
    assert (out["k2"], out["config"]) == (8, ["A1"])


def test_quotient_unsupported_exits_1(capsys):
    text = json.dumps([{"perm": [0, 1, 2], "scalars": ["0", "1/3", "1/3"]}])
    code, out = run(capsys, "quotient", "--action", text)
    assert code == 1
    assert "error" in out


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: c["argv"][2][:24])
def test_quotient_golden_stdout(capsys, case):
    # the whole answer byte for byte: representatives, orbit and line order
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_quotient_conductor_beyond_cap(capsys):
    # a 3-cycle cubing to the scalar zeta_361: the quotient of z3, with
    # fixed points in Q(zeta_1083)
    text = json.dumps([{"perm": [1, 2, 0], "scalars": ["0", "0", "1/361"]}])
    code, out = run(capsys, "quotient", "--action", text)
    assert code == 0
    assert (out["group_order"], out["k2"]) == (3, 3)
    assert out["config"] == ["A2", "A2", "A2"]
    assert out["euler_check"]["pass"]
    # diag(1, zeta_361, 1): K^2 = 363^2/361 is not an integer
    text = json.dumps([{"perm": [0, 1, 2], "scalars": ["0", "1/361", "0"]}])
    code, out = run(capsys, "quotient", "--action", text)
    assert code == 1
    assert "error" in out


def test_subcommands_import_only_their_modules():
    script = (
        "import sys\n"
        "import delpezzo.cli as cli\n"
        "unused = ['delpezzo.classifier', 'delpezzo.fpgroups', 'delpezzo.surfaces']\n"
        "assert not [m for m in unused if m in sys.modules], sorted(sys.modules)\n"
        "cli.main(['quotient', '--builtin', 'z3'])\n"
        "assert not [m for m in unused if m in sys.modules], sorted(sys.modules)\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_quotient_usage_errors(capsys):
    assert main(["quotient"]) == 2
    assert main(["quotient", "--builtin", "nope"]) == 2
    assert main(["quotient", "--action", "not json"]) == 2


def test_quotient_float_perm_entry_exits_2(capsys):
    text = '[{"perm":[0,1,2.0],"scalars":["1/2","0","0"]}]'
    assert main(["quotient", "--action", text]) == 2
    assert "is not a permutation of 0,1,2" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, prefix", [
    (["quotient", "--action", DEEP_JSON], "error: invalid JSON: "),
    (["group", "--presentation", DEEP_JSON], "error: bad presentation JSON: "),
    (["recognize", "--config", DEEP_JSON], "error: bad curve configuration: "),
    (["blowdown", "--config", DEEP_JSON, "--curve", "a"], "error: bad curve configuration: "),
], ids=["quotient", "group", "recognize", "blowdown"])
def test_deeply_nested_json_exits_2(capsys, argv, prefix):
    # json.loads raises RecursionError on deep nesting: malformed input,
    # not an internal error (exit 3)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(prefix)


def test_classify(capsys):
    code, out = run(capsys, "classify", "--top", "Q")
    assert code == 0
    assert {(s["degree"], s["config"]) for s in out["survivors"]} == {
        (2, "2A1+A3"), (4, "3A1+D4")}


def test_lemma1(capsys):
    code, out = run(capsys, "lemma1")
    assert code == 0
    assert out["impossible_d7"]
    assert [(r["name"], r["d"]) for r in out["rows"]][:2] == [("P2", 9), ("A1", 8)]
    assert all(r["consistency"]["pass"] for r in out["rows"])


def test_mumford_group_pipeline(capsys):
    code, out = run(capsys, "mumford", "--i", "8")
    assert code == 0
    code, out = run(capsys, "group", "--presentation", out["presentation"],
                    "--bound", "10000", "--abelianization")
    assert code == 0
    assert out["order"] == 120
    assert out["abelianization"] == {"torsion": [], "free_rank": 0}


def test_group_stdin_accepts_mumford_json(capsys, monkeypatch):
    import io
    code, out = run(capsys, "mumford", "--i", "6")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(out)))
    code, out = run(capsys, "group")
    assert code == 0 and out["order"] == 24


def test_group_bound_exceeded(capsys):
    code, out = run(capsys, "group", "--presentation",
                    "gens=2; rel=1 * 2 * 1 * 2 * 1^-3; rel=1^3 * 2^-5", "--bound", "5")
    assert code == 1
    assert out["bound"] == 5 and "error" in out


@pytest.mark.parametrize("text", [
    "{bad json",                        # not JSON
    "[1, 2]",                           # JSON, but not an object
    '{"presentation": 5}',              # "presentation" is not a string
    '{"presentation": ["gens=1"]}',
])
def test_group_bad_presentation_json_exits_2(capsys, text):
    assert main(["group", "--presentation", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_group_long_relator_is_refused_fast(capsys):
    start = time.perf_counter()
    assert main(["group", "--presentation", "gens=1; rel=1^3000000"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error: bad presentation: ")
    code, out = run(capsys, "group", "--presentation", "gens=1; rel=1^7")
    assert code == 0 and out["order"] == 7


@pytest.mark.parametrize("ngens", [101, 3_000_000, 100_000_000])
def test_group_too_many_generators_is_refused_fast(capsys, ngens):
    start = time.perf_counter()
    assert main(["group", "--presentation", f"gens={ngens}; rel=1^2"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: bad presentation: more than 100 generators\n"


def test_group_hom_below_1_exits_2(capsys):
    assert main(["group", "--presentation", "gens=1; rel=1^6", "--hom", "0"]) == 2
    assert "--hom" in capsys.readouterr().err


def test_group_bound_below_1_exits_2(capsys):
    assert main(["group", "--presentation", "gens=1; rel=1^6", "--bound", "0"]) == 2
    assert "--bound" in capsys.readouterr().err


def test_group_hom_count(capsys):
    code, out = run(capsys, "group", "--presentation", "gens=1; rel=1^6",
                    "--hom", "4")
    assert code == 0
    assert out["hom_count"] == {"d": 4, "count": 2}


def test_mumford_out_of_range(capsys):
    assert main(["mumford", "--i", "3"]) == 2


def test_recognize_and_blowdown(capsys):
    fib = ii_star_fiber()
    cfg = json.dumps(remove(fib, fib.index_of("C1")).to_json())
    code, out = run(capsys, "recognize", "--config", cfg)
    assert code == 0 and out["type"] == "E8"

    cfg = json.dumps({"labels": ["E", "C"], "matrix": [[-1, 1], [1, -2]]})
    code, out = run(capsys, "blowdown", "--config", cfg, "--curve", "E")
    assert code == 0 and out["config"]["matrix"] == [[-1]]

    cfg = json.dumps({"labels": ["C"], "matrix": [[-2]]})
    assert main(["blowdown", "--config", cfg, "--curve", "C"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("config, message", [
    ({"labels": ["a", "b"], "matrix": [[-1, 0.5], [0.5, -2]]}, "must be integers"),
    ({"labels": ["a", "b"], "matrix": [[-1, True], [True, -2]]}, "must be integers"),
    ({"labels": ["a"], "matrix": [[None]]}, "must be integers"),
    ({"labels": 5, "matrix": [[-1]]}, "labels must be a list"),
    ({"labels": ["a"], "matrix": [-1]}, "a list of rows"),
    ({"labels": ["a"], "matrix": [[-1]], "multiplicities": 3}, "multiplicities"),
    ({"labels": ["a", "b"], "matrix": [[-1, 0], [0, -2]], "multiplicities": [1]},
     "one per curve"),
])
def test_curve_config_entries_are_checked(capsys, config, message):
    # a float intersection number used to blow down to a self-intersection
    # of -1.75 with exit 0
    assert main(["blowdown", "--config", json.dumps(config), "--curve", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad curve configuration: ") and message in err
    assert main(["recognize", "--config", json.dumps(config)]) == 2


@pytest.mark.parametrize("text", ["[1]", "5", '"C"', "null"])
def test_curve_config_not_an_object_exits_2(capsys, text):
    assert main(["blowdown", "--config", text, "--curve", "C"]) == 2
    assert "expected a JSON object" in capsys.readouterr().err
    assert main(["recognize", "--config", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_wps_singular(capsys):
    code, out = run(capsys, "wps", "--poly",
                    "vars X:1 Y:1 Z:2 W:3\nW^2 + Z^3 + X^5*Y + a*X^4*Z",
                    "--param", "a=1", "--singular")
    assert code == 0
    assert out["quasi_homogeneous"] and out["degree"] == 6
    assert out["singular_points"] == [["0", "1", "0", "0"]]


def test_wps_bad_param(capsys):
    assert main(["wps", "--poly", "vars X:1\nX", "--param", "oops"]) == 2


@pytest.mark.parametrize("argv, err", [
    (["wps", "--poly", "vars X:1 Y:1\nX+a", "--param", "a=1/0"],
     "error: bad rational '1/0' in --param"),
    (["wps", "--poly", "vars X:1 Y:1\n1/0*X + Y"],
     "error: bad polynomial: zero denominator in '1/0'"),
    (["germ", "--poly", "vars x:1 y:1\nx^2+y^2", "--at", "1/0,0"],
     "error: bad point '1/0,0'; expected x,y rationals"),
], ids=["param", "coefficient", "point"])
def test_zero_denominator_exits_2(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr().err == err + "\n"


def test_wps_singular_too_many_variables_is_refused(capsys):
    code, out = run(capsys, "wps", "--poly", "vars A:1 B:1 C:1 D:1 E:1\nA^2+B^2+C^2+D^2+E^2",
                    "--singular")
    assert code == 1
    assert out["error"] == "at most 4 variables supported"
    assert out["quasi_homogeneous"] and out["degree"] == 2


@pytest.mark.parametrize("text", [
    "vars X:1 Y:1\nX^-1*Y + X",       # negative exponent
    "vars X:1 Y:1\nY^ + X",           # dangling '^'
    "vars X:1 X:2\nX",                # duplicate variable
    "vars X:1 Y:1\nX + Y -",          # no term after the last operator
])
def test_wps_bad_polynomial_exits_2(capsys, text):
    assert main(["wps", "--poly", text]) == 2
    assert capsys.readouterr().err.startswith("error: bad polynomial: ")


@pytest.mark.parametrize("argv, term", [
    (["wps", "--poly", "vars X:1 Y:1\n2^9999999999*X + Y"], "2^9999999999*X"),
    (["germ", "--poly", "vars x:1 y:1\nx + a^99999999*y", "--param", "a=3", "--at", "0,0"],
     "a^99999999*y"),
    (["wps", "--poly", "vars X:1 Y:1\nX^2 + 2^100000*Y^2"], "2^100000*Y^2"),
], ids=["huge-power", "huge-param-power", "over-str-limit"])
def test_coefficient_over_the_cap_exits_2_fast(capsys, argv, term):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (f"error: bad polynomial: the coefficient of "
                                       f"{term!r} passes 4096 bits\n")


@pytest.mark.parametrize("argv, err", [
    (["wps", "--poly", "vars X:1 Y:1\n1e10000000*X + Y"],
     "bad polynomial: the coefficient of '1e10000000*X' passes 4096 bits"),
    (["wps", "--poly", "vars X:1 Y:1\na*X + Y", "--param", "a=1e10000000"],
     "bad --param 'a=1e10000000': '1e10000000' passes 4096 bits"),
    (["germ", "--poly", "vars x:1 y:1\nx - y", "--at", "1e10000000,1e10000000"],
     "bad point '1e10000000,1e10000000': '1e10000000' passes 4096 bits"),
    (["germ", "--poly", "vars x:1 y:1\nx - y", "--at", "1e5000,1e5000"],
     "bad point '1e5000,1e5000': '1e5000' passes 4096 bits"),
], ids=["coefficient", "param", "point", "point-over-str-limit"])
def test_exponent_notation_over_the_cap_exits_2_fast(capsys, argv, err):
    # 10**(10**7) took 7-15 s to build; a 5,001-digit point could not be printed (exit 3)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["wps", "--poly"], ["quotient", "--action"], ["recognize", "--config"],
    ["blowdown", "--curve", "E", "--config"], ["germ", "--at", "0,0", "--poly"],
], ids=lambda argv: argv[0])
def test_unreadable_file_argument_exits_2(capsys, tmp_path, argv):
    # a directory raised IsADirectoryError, a binary file UnicodeDecodeError: both exit 3
    binary = tmp_path / "binary"
    binary.write_bytes(b"vars \xc0\xff")
    assert main(argv + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"
    assert main(argv + [str(binary)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {binary}: 'utf-8' codec can't decode byte 0xc0")


@pytest.mark.parametrize("argv, message", [
    (["wps", "--poly", "vars X:1 Y:1\nX*Y^100000000000", "--singular"],
     "the exponent of Y in 'X*Y^100000000000' passes 4096"),
    (["germ", "--poly", "vars x:1 y:1\nx^100000000000 + y", "--at", "2,0"],
     "the exponent of x in 'x^100000000000' passes 4096"),
], ids=["wps", "germ"])
def test_exponent_over_the_cap_exits_2_fast(capsys, argv, message):
    # both ran out of memory (exit 3) before the exponent cap
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == f"error: bad polynomial: {message}\n"


def test_wps_minus_after_negative_term(capsys):
    # -Y (X^2 + Z^2): the points off Y = 0 are X = 1, Z = +-i
    code, out = run(capsys, "wps", "--poly", "vars X:1 Y:1 Z:1\n-X^2*Y - Y*Z^2",
                    "--singular")
    assert code == 0
    assert out["poly"] == "-X^2*Y - Y*Z^2"
    assert out["singular_points"] == [["0", "1", "0"], ["1", "0", "zeta(1/4)"],
                                      ["1", "0", "zeta(3/4)"]]


def test_wps_one_free_variable_left_is_indeterminate(capsys):
    code, out = run(capsys, "wps", "--poly", "vars X:1 Y:1 Z:1 W:1\nW*X^3 + W*Y^3",
                    "--singular")
    assert code == 1
    assert "underdetermined system (positive-dimensional)" in out["indeterminate"]


@pytest.mark.parametrize("case", SURFACES_GOLDEN,
                         ids=lambda c: c["argv"][0] + ":" + c["argv"][2].partition("\n")[2][:24])
def test_surfaces_golden_stdout(capsys, case):
    # the whole answer byte for byte, singular points in the solver's order
    assert main(case["argv"]) == case["rc"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", CLASSIFIER_GOLDEN, ids=lambda c: ":".join(c["argv"]))
def test_classifier_golden_stdout(capsys, case):
    # report, lemma1 and every classify top, byte for byte: survivors,
    # exclusions and their details in enumeration order
    assert main(case["argv"]) == case["rc"]
    assert capsys.readouterr().out == case["stdout"]


def test_germ(capsys):
    code, out = run(capsys, "germ", "--poly", "vars x:1 y:1\ny^2 + x^3",
                    "--at", "0,0")
    assert code == 0 and out["germ"] == "Cusp"
    assert main(["germ", "--poly", "vars x:1 y:1\ny^2 + x^3", "--at", "1,1"]) == 2


def test_germ_of_a_high_degree_term_reads_only_the_3_jet(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "germ", "--poly", "vars x:1 y:1\nx^2000 - 1 + y^2",
                    "--at", "1,0")
    assert (code, out["germ"]) == (0, "Smooth")
    assert time.perf_counter() - start < 1


def test_fibers(capsys):
    code, out = run(capsys, "fibers")
    assert code == 0
    assert sorted(map(tuple, out["configs"])) == [("II*", "I1", "I1"), ("II*", "II")]


def test_fibers_many_fibres(capsys):
    # 1190 more Euler number in I1 and II fibres: one fibre per stack level
    # would overflow the interpreter's recursion limit
    code, out = run(capsys, "fibers", "--total-euler", "1200")
    assert code == 0
    assert len(out["configs"]) == 596               # a + 2b = 1190, b = 0..595
    assert out["euler"] == {"I1": 1, "II": 2, "II*": 10}
    assert all(sum(out["euler"][t] for t in c) == 1200 for c in out["configs"])
    assert out["configs"][0][:2] == ["II*", "I1"] and out["configs"][-1][-1] == "II"


def test_fibers_total_euler_above_the_cap_exits_2(capsys):
    # 1200 is accepted (test_fibers_many_fibres); the output grows as N^2
    assert main(["fibers", "--total-euler", "1201"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: total Euler number 1201 exceeds the cap 1200\n"


def test_fibers_unknown_type_exits_2(capsys):
    assert main(["fibers", "--must-contain", "I2x"]) == 2
    assert capsys.readouterr().err == "error: unknown Kodaira fibre type 'I2x'\n"


def test_report(capsys):
    code, out = run(capsys, "report")
    assert code == 0
    assert out["statuses"]["V8"] == "not dominated"


def test_pretty_flag(capsys):
    code = main(["--pretty", "fibers"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("{\n")


def test_sorted_keys(capsys):
    code = main(["quotient", "--builtin", "z3"])
    out = capsys.readouterr().out
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_internal_error_exits_3(capsys, monkeypatch):
    import delpezzo.cli as cli

    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_report", broken)
    code, out = run(capsys, "report")
    assert code == 3
    assert out == {"error": "internal error", "exception": "KeyError", "detail": "'lost'"}
    monkeypatch.setattr(cli, "cmd_lemma1", lambda args: 1 // 0)
    assert main(["lemma1"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["exception"] == "ZeroDivisionError"
    assert "Traceback (most recent call last)" in captured.err



PROCESS_ARGVS = {          # the exit code, the argv
    "exit 0": (0, ["quotient", "--builtin", "quaternion8"]),
    "exit 1": (1, ["group", "--presentation", "gens=2; rel=1^2", "--bound", "1"]),
    "exit 2 from argparse": (2, ["quotient", "--no-such-option"]),
    "exit 2 from a subcommand": (2, ["quotient"]),
    "help": (0, ["--help"]),
    "subcommand help": (0, ["wps", "--help"]),
    "exit 2 from a subcommand parser": (2, ["mumford", "--i", "x"]),
}


@pytest.mark.parametrize("code, argv", PROCESS_ARGVS.values(), ids=PROCESS_ARGVS.keys())
def test_process_path_equals_main(capsys, monkeypatch, code, argv):
    # a fixed width, so that argparse wraps the help text alike in both
    monkeypatch.setenv("COLUMNS", "80")
    proc = _python("-m", "delpezzo.cli", *argv, COLUMNS="80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert proc.stdout or proc.stderr


def test_process_delivers_the_whole_report_through_a_pipe(capsys):
    proc = _python("-m", "delpezzo.cli", "report")
    assert main(["report"]) == 0 == proc.returncode
    assert proc.stdout == capsys.readouterr().out
    assert len(proc.stdout) > 16_000 and proc.stdout.endswith("}\n")


def test_run_keeps_exit_handlers_and_their_output():
    script = ("import atexit, sys\n"
              "from delpezzo import cli\n"
              "atexit.register(print, 'handler ran')\n"
              "sys.argv = ['delpezzo', 'mumford', '--i', '4']\n"
              "cli.run()\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    first, handler = proc.stdout.splitlines()
    assert json.loads(first)["i"] == 4 and handler == "handler ran"


def test_run_exits_as_before_when_stdout_cannot_be_flushed():
    # run() falls back to sys.exit, so the failed flush is reported and
    # exits 120 as it does after sys.exit(main())
    script = ("import io, sys\n"
              "from delpezzo import cli\n"
              "class Closed(io.StringIO):\n"
              "    def flush(self):\n"
              "        raise BrokenPipeError(32, 'Broken pipe')\n"
              "sys.stdout = Closed()\n"
              "sys.argv = ['delpezzo', 'mumford', '--i', '4']\n")
    runs = [_python("-c", script + entry) for entry in ("cli.run()", "sys.exit(cli.main())")]
    outcomes = [(p.returncode, re.sub(r"0x[0-9a-f]+", "0x", p.stderr)) for p in runs]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 120 and "BrokenPipeError" in outcomes[0][1]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_process_exits_120_without_a_traceback_into_a_closed_pipe(unbuffered):
    # unbuffered, the write in main() fails; buffered, the final flush does
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "delpezzo.cli", "mumford", "--i", "4", stdout=write,
                       PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert "Traceback" not in proc.stderr
