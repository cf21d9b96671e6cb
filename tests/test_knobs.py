"""Every defaulted parameter of the package has a caller that sets it.

A parameter with a default that no call in src/, demos/ or bench/ sets
to another value is an option with one value in use; it should be a
constant.  A call sets a parameter by keyword, by position, or through a
``*`` or ``**`` argument; a literal equal to the default does not count.
Top-level functions and constructors are matched by module, with the
reference rules of test_dead_code, so a ``main(job)`` defined in bench/
is not a call of ``cli.main``.  Methods are matched by name (through any
``x.name(...)`` call), so ``super().__init__`` keeps nothing alive.  A
test alone keeps no parameter alive, apart from the allow-list below.
"""

import ast
from pathlib import Path

from test_dead_code import _root_exports, _Scope

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtqw"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "bench")
ALLOWED = {
    # input of an independent cross-check in the tests: a random start
    # state
    "trotter_error.psi0",
    # the CLI's test seam: the console script calls main() bare
    "main.argv",
}


def _signature(fn, skip):
    """[(name, default node or None)] of the parameters a call can fill
    by position, then the keyword-only ones; `skip` drops self."""
    a = fn.args
    pos = (a.posonlyargs + a.args)[skip:]
    pos_defaults = [None] * (len(pos) - len(a.defaults)) + a.defaults
    return ([(p.arg, d) for p, d in zip(pos, pos_defaults)],
            [(p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)])


def _definitions():
    """(label, callee, positional params, keyword-only params) for every
    top-level function, constructor and non-dunder method; the callee is
    "m.f" for top-level names and ".f" for methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield (node.name, f"{path.stem}.{node.name}",
                       *_signature(node, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    if fn.name == "__init__":
                        yield (node.name, f"{path.stem}.{node.name}",
                               *_signature(fn, 1))
                    elif not fn.name.startswith("__"):
                        yield (f"{node.name}.{fn.name}", f".{fn.name}",
                               *_signature(fn, 1))


def _is_default(value, default):
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(value) == ast.dump(default)


def _set_params(call, pos, kwonly):
    """Names of the parameters `call` sets to something other than their
    default."""
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            out.update(name for name, _ in pos[i:])
            break
        if i < len(pos) and not (pos[i][1] is not None
                                 and _is_default(arg, pos[i][1])):
            out.add(pos[i][0])
    defaults = dict(pos + kwonly)
    for kw in call.keywords:
        if kw.arg is None:
            out.update(defaults)
        elif not (defaults.get(kw.arg) is not None
                  and _is_default(kw.value, defaults[kw.arg])):
            out.add(kw.arg)
    return out


def _calls():
    """callee -> [ast.Call] for every call in src/, demos/ and bench/,
    under "m.f" when the callee resolves to a top-level name of the
    package and under ".name" by its plain name."""
    exports = _root_exports()
    calls = {}
    for d in CALLER_DIRS:
        for path in sorted(d.rglob("*.py")):
            tree = ast.parse(path.read_text())
            scope = _Scope(path, tree, exports)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.id if isinstance(f, ast.Name)
                            else f.attr if isinstance(f, ast.Attribute)
                            else None)
                    for key in (scope.qualify(f), f".{name}"):
                        calls.setdefault(key, []).append(node)
    return calls


def unset_parameters():
    """"callable.param" of every defaulted parameter no caller sets,
    allow-listed ones included."""
    calls = _calls()
    unset = set()
    for label, callee, pos, kwonly in _definitions():
        used = set()
        for call in calls.get(callee, ()):
            used |= _set_params(call, pos, kwonly)
        unset |= {f"{label}.{p}" for p, d in pos + kwonly
                  if d is not None and p not in used}
    return unset


def test_every_default_is_set_by_a_caller():
    unset = unset_parameters()
    assert unset <= ALLOWED, (
        "defaulted parameters that no call in src/, demos/ or bench/ sets "
        f"to another value: {sorted(unset - ALLOWED)}")
    # an allowed parameter that is gone or now set should leave the list
    assert ALLOWED <= unset, sorted(ALLOWED - unset)
