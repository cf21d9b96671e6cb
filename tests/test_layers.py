"""The numerical layers import nothing from the front end.

`lattice`, `operators`, `evolution`, `spectral`, `symmetry`, `continuum`
and `io` work on arrays.  A walk reaches them as a StepOperator2D, which
carries its angle tables theta_x and theta_y, so a gate such as the
momentum-block check reads a table, never a profile class.  None of them
imports from `profiles`, `config`, `presets` or `cli`, whether at the top
of the module, inside a function, or through a name the package root
re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtqw"
NUMERICAL = ("lattice", "operators", "evolution", "spectral", "symmetry",
             "continuum", "io")
FRONT_END = {"profiles", "config", "presets", "cli"}


def _root_exports():
    """name -> module for the names the package root imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name: n.module for n in tree.body
            if isinstance(n, ast.ImportFrom) and n.level and n.module
            for a in n.names}


def _imported_modules(path, exports):
    """(dtqw module, line) of every import in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("dtqw."):
                    yield a.name.split(".")[1], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == "dtqw" or (node.module or "").startswith(
                    "dtqw."):
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                yield module.split(".")[0], node.lineno
            else:                     # from the package root: by name
                for a in node.names:
                    yield exports.get(a.name, a.name), node.lineno


@pytest.mark.parametrize("module", NUMERICAL)
def test_numerical_layer_imports_no_front_end(module):
    path = PACKAGE / f"{module}.py"
    bad = [f"{m} (line {line})"
           for m, line in _imported_modules(path, _root_exports())
           if m in FRONT_END]
    assert not bad, f"dtqw.{module} imports from the front end: {bad}"
