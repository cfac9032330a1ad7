"""The module graph the README states, read from the import statements,
and the boundary of src/: what it defines, src/ or bench/ names."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo

PACKAGE = Path(delpezzo.__file__).parent


def _imports(module):
    """{imported delpezzo module: names taken from it} for every import
    statement of a module, lazy imports inside functions included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:          # from . import lattice
                for alias in node.names:
                    out.setdefault(alias.name, set())
            else:                            # from .lattice import A
                out.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            assert not any(n.split(".")[0] == "delpezzo" for n in names), module
    return out


def test_module_graph():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    graph = {m: _imports(m) for m in modules}
    assert "lattice" in modules and "plane_action" in modules
    assert graph["lattice"] == {}
    assert "lattice" not in graph["surfaces"]
    assert set(graph["plane_action"]) == {"lattice"}


ROOT = PACKAGE.parent.parent
# defined in src/ and named only by tests until the per-action proof check
# replaces it
TEST_ONLY = {"classifier.cross_module_check"}


def _definitions(tree):
    """(dotted name, node) for every function, class and method in a
    module, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                yield name, child
                yield from walk(child, name)
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def _mentions(tree):
    """(identifier, line) for every name, attribute and identifier-like
    string in a module: a string counts because bench/ patches by name.
    An f-string f"cmd_{...}" names cmd_ joined to every such string of its
    module, since cli dispatches to cmd_<subcommand> that way."""
    names, strings, prefixes = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            strings.append(node.value)
            names.append((node.value, node.lineno))
        elif isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
            prefixes.append((node.values[0].value, node.lineno))
    return names + [(prefix + s, line) for prefix, line in prefixes for s in strings]


def test_src_holds_only_what_src_or_bench_names():
    # a definition that only tests name belongs in tests/; dunder methods
    # are called by the language, not by name
    assert (ROOT / "bench" / "tracing.py").is_file(), "run from a source checkout"
    files = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
    mentions = {}
    for path in files:
        for name, line in _mentions(ast.parse(path.read_text(encoding="utf-8"))):
            mentions.setdefault(name, []).append((path, line))
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for dotted, node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in mentions.get(node.name, [])):
                unnamed.append(path.stem + dotted)
    assert sorted(unnamed) == sorted(TEST_ONLY)


# what a subcommand process must not pay for at start-up: dataclasses
# imports inspect, which imports ast, dis and tokenize
STARTUP_FREE = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_src_imports_no_startup_heavy_module():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & STARTUP_FREE, (path.name, node.lineno)


SUBCOMMAND_ARGVS = {
    "quotient": ["quotient", "--builtin", "quaternion8"],
    "classify": ["classify", "--top", "Q"],
    "lemma1": ["lemma1"],
    "group": ["group", "--presentation", "gens=2; rel=1^2; rel=2^3; rel=(1 2)^3",
              "--abelianization", "--hom", "2"],
    "mumford": ["mumford", "--i", "5"],
    "recognize": ["recognize", "--config", '{"labels": ["a", "b"], "matrix": [[-2, 1], [1, -2]]}'],
    "blowdown": ["blowdown", "--config", '{"labels": ["a", "b"], "matrix": [[-1, 1], [1, -2]]}',
                 "--curve", "a"],
    "wps": ["wps", "--poly", "vars X:1 Y:1 Z:1\nX^2 + Y^2 + Z^2", "--singular"],
    "germ": ["germ", "--poly", "vars x:1 y:1\nx^2 - y^3", "--at", "0,0"],
    "fibers": ["fibers"],
    "report": ["report"],
}


def test_every_subcommand_is_pinned():
    from delpezzo import cli

    assert sorted(SUBCOMMAND_ARGVS) == sorted(n[4:] for n in vars(cli) if n.startswith("cmd_"))


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGVS))
def test_subcommand_process_loads_no_startup_heavy_module(command):
    # -S: no site, since a .pth file in site-packages may import typing itself
    argv = SUBCOMMAND_ARGVS[command]
    script = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
              "from delpezzo import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(*sorted(sys.modules), file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert not loaded & STARTUP_FREE
    if command in ("mumford", "group"):
        assert "fractions" not in loaded
