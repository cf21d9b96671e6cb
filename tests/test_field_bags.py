"""No class in src/dtqw is a bare bag of fields.

A class whose body defines only dunder methods (``__init__``,
``__repr__``, ...) holds values and does nothing with them; its callers
set or read every field, so a function's parameters or a plain array
say the same with less code.  Exception classes are exempt: raising and
catching by type is their behaviour.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtqw"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def field_bags():
    """Sorted "module.Class" labels of the non-exception classes in
    src/dtqw that define no method of their own other than dunders."""
    bags = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"dtqw.{path.stem}"
                                         if path.stem != "__init__"
                                         else "dtqw")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [fn.name for fn in node.body if isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if any(not _is_dunder(m) for m in methods):
                continue
            cls = getattr(module, node.name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                continue
            bags.append(f"{path.stem}.{node.name}")
    return sorted(bags)


def test_no_class_is_only_fields():
    bags = field_bags()
    assert not bags, ("classes in src/dtqw that define only dunder "
                      f"methods (pass plain values instead): {bags}")
