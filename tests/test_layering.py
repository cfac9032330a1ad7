"""The module graph the README states, read from the import statements."""

import ast
from pathlib import Path

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
    assert graph["plane_action"]["cyclotomic"] == {"root_coordinates"}
