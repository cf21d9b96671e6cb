"""README's Library section names only what the package provides."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("dtqw", "dtqw.continuum", "dtqw.spectral", "dtqw.presets")


def _library_section():
    text = README.read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _resolves(name):
    mods = [importlib.import_module(m) for m in MODULES]
    head, *rest = name.split(".")
    if head != "dtqw":
        return any(hasattr(m, name) for m in mods)
    obj = mods[0]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_library_import_statement_runs():
    block = re.search(r"```python\n(.*?)```", _library_section(), re.S)
    stmt = re.search(r"^from dtqw import \(.*?\)", block.group(1),
                     re.S | re.M)
    exec(stmt.group(0), {})


def test_backticked_identifiers_resolve():
    prose = re.sub(r"```.*?```", "", _library_section(), flags=re.S)
    names = [re.match(r"[A-Za-z_][\w.]*", span).group(0)
             for span in re.findall(r"`([^`]+)`", prose)]
    assert names
    missing = [n for n in names if not _resolves(n)]
    assert not missing, f"README names missing API: {missing}"
