"""Every top-level function and class of the package has a caller.

A definition in src/dtqw that nothing in src/, demos/ or bench/ names
outside its own body is dead code: a test alone does not keep it alive.
A name counts as referenced when it appears as a variable, an attribute,
an imported name, or a whole dotted string such as the benchmark
tracer's "spectral.eigsh" targets.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "bench")
# the read-back halves of io's writers, which the tests use on outputs
ALLOWED = {"io.read_csv", "io.read_json"}
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _mentions(tree):
    """(name, line) for every identifier a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced_definitions():
    """Sorted "module.name" of top-level defs that have no caller."""
    mentions = {}                      # name -> [(path, line)]
    for d in CALLER_DIRS:
        for path in sorted(d.rglob("*.py")):
            for name, line in _mentions(ast.parse(path.read_text())):
                mentions.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside
                       for p, line in mentions.get(node.name, ())):
                dead.append(f"{path.stem}.{node.name}")
    return sorted(set(dead) - ALLOWED)


def test_every_definition_has_a_caller():
    dead = unreferenced_definitions()
    assert not dead, ("defined in src/dtqw but never referenced from "
                      f"src/, demos/ or bench/: {dead}")
