"""Every top-level function and class, and every method, has a caller.

A definition in src/dtqw that nothing in src/, demos/ or bench/ refers to
outside its own body is dead code: a test alone does not keep it alive.
A mention counts as a reference to the top-level name ``f`` of module
``m`` only when it is
  * a Name ``f`` inside module m;
  * an import of f from m or from the package root (``from .m import f``,
    ``from dtqw import f``), or a use of the name that import binds;
  * an attribute ``X.f`` where X is bound to module m
    (``lat.normalize`` after ``from . import lattice as lat``);
  * a whole dotted string "m.f", such as the benchmark tracer's targets.
So a local variable ``norm`` or ``np.linalg.norm`` would not keep a
``lattice.norm`` alive.  Non-dunder methods are checked by name: any
attribute ``x.f``, or a dotted string ending in ``.f``, refers to every
method f.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "bench")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _source_module(node):
    """The dtqw module an ImportFrom reads from: "m", "" for the package
    root, or None when it is not dtqw."""
    if node.level:                                 # relative: inside dtqw
        return node.module or ""
    if node.module == "dtqw":
        return ""
    if node.module and node.module.startswith("dtqw."):
        return node.module[len("dtqw."):]
    return None


def _root_exports():
    """name -> module for the names the package root imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name: n.module for n in tree.body
            if isinstance(n, ast.ImportFrom) and n.level and n.module
            for a in n.names}


class _Scope:
    """What the dtqw names of one file refer to, by the rules above."""

    def __init__(self, path, tree, exports):
        self.own = path.stem if path.parent == PACKAGE else None
        self.exports = exports
        self.names, self.modules = {}, {}   # local name -> "m.f" / module "m"
        self.imported = []                   # ("m.f", line) of each import
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "dtqw" or a.name.startswith("dtqw."):
                        self.modules[a.asname or "dtqw"] = (
                            a.name[len("dtqw."):] if a.asname else "")
            elif isinstance(node, ast.ImportFrom):
                src = _source_module(node)
                if src is None:
                    continue
                for a in node.names:
                    local = a.asname or a.name
                    if src == "" and a.name in MODULES:
                        self.modules[local] = a.name
                    else:
                        qual = f"{src or exports.get(a.name, '')}.{a.name}"
                        self.names[local] = qual
                        self.imported.append((qual, node.lineno))

    def module_of(self, expr):
        if isinstance(expr, ast.Name):
            return self.modules.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and self.module_of(expr.value) == ""
                and expr.attr in MODULES):
            return expr.attr
        return None

    def qualify(self, expr):
        """"m.f" for a Name or Attribute that refers to the top-level
        name f of module m, else None."""
        if isinstance(expr, ast.Name):
            if expr.id in self.names:
                return self.names[expr.id]
            return None if self.own is None else f"{self.own}.{expr.id}"
        if isinstance(expr, ast.Attribute):
            m = self.module_of(expr.value)
            if m == "":                            # dtqw.f, a re-export
                m = self.exports.get(expr.attr, "")
            return None if m is None else f"{m}.{expr.attr}"
        return None


def _references(path, tree, exports):
    """(qualified name, line) for every reference a file makes: "m.f" for
    top-level names, ".f" for methods by name."""
    scope = _Scope(path, tree, exports)
    yield from scope.imported
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            qual = scope.qualify(node)
            if qual is not None:
                yield qual, node.lineno
            if isinstance(node, ast.Attribute):
                yield f".{node.attr}", node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            yield node.value, node.lineno
            yield "." + node.value.rsplit(".", 1)[1], node.lineno


def _definitions():
    """(qualified name, label, path, own line range) of every definition:
    "m.f" for top-level ones, ".f" labelled "m.C.f" for non-dunder
    methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield (f"{path.stem}.{node.name}", f"{path.stem}.{node.name}",
                   path, range(node.lineno, node.end_lineno + 1))
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("__")):
                        yield (f".{fn.name}",
                               f"{path.stem}.{node.name}.{fn.name}", path,
                               range(fn.lineno, fn.end_lineno + 1))


def unreferenced_definitions():
    """Sorted labels of the definitions that have no caller."""
    exports = _root_exports()
    refs = {}                          # qualified name -> [(path, line)]
    for d in CALLER_DIRS:
        for path in sorted(d.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for qual, line in _references(path, tree, exports):
                refs.setdefault(qual, []).append((path, line))
    dead = [label for qual, label, path, inside in _definitions()
            if not any(p != path or line not in inside
                       for p, line in refs.get(qual, ()))]
    return sorted(set(dead))


def test_every_definition_has_a_caller():
    dead = unreferenced_definitions()
    assert not dead, ("defined in src/dtqw but never referenced from "
                      f"src/, demos/ or bench/: {dead}")
