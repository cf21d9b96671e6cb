"""scipy stays off the import path.

The package imports scipy only inside the functions that need it:
`spectral.walk_matrix_sparse` wraps its CSR arrays with `scipy.sparse`,
and `continuum.trotter_error` takes `expm_multiply` for its 1D
reference.  So importing the package, or running a preset that never
builds a sparse matrix, loads no scipy module.  Each run below starts a
fresh interpreter, since this test process has scipy loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
WALL = "wall:pi/3:-pi/3:3"


def _scipy_modules(code, cwd):
    """The scipy modules loaded once `code` has run in a fresh
    interpreter, sorted."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.startswith('scipy'))))")
    run = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def _preset(name, overrides):
    return (f"from dtqw.presets import run_preset\n"
            f"run_preset({name!r}, {overrides!r}, outdir={name!r})")


@pytest.mark.parametrize("code", [
    "import dtqw", "import dtqw.presets", "import dtqw.cli",
    _preset("fig2a", {"L": "11", "theta_x": WALL})],
    ids=["dtqw", "dtqw.presets", "dtqw.cli", "fig2a"])
def test_no_scipy_module_is_loaded(code, tmp_path):
    assert _scipy_modules(code, tmp_path) == []


def test_the_corner_path_loads_only_scipy_sparse(tmp_path):
    loaded = _scipy_modules(_preset("fig6", {"L": "11", "theta_x": WALL,
                                             "theta_y": WALL}), tmp_path)
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded


def _module_level_imports(tree):
    """Import statements that run when the module is imported: all but
    those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"module-level scipy imports: {found}"
