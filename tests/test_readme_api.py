"""README's Library and Command line sections name only what the package
provides."""

import importlib
import io
import re
from pathlib import Path

from dtqw.cli import _usage
from dtqw.config import _KEYS

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("dtqw", "dtqw.continuum", "dtqw.spectral", "dtqw.presets")


def _section(title):
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


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
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.S)
    stmt = re.search(r"^from dtqw import \(.*?\)", block.group(1),
                     re.S | re.M)
    exec(stmt.group(0), {})


def test_backticked_identifiers_resolve():
    prose = re.sub(r"```.*?```", "", _section("Library"), flags=re.S)
    names = [re.match(r"[A-Za-z_][\w.]*", span).group(0)
             for span in re.findall(r"`([^`]+)`", prose)]
    assert names
    missing = [n for n in names if not _resolves(n)]
    assert not missing, f"README names missing API: {missing}"


def test_command_line_flags_are_options():
    # the --key placeholder, the L fan-out and the config keys, with the
    # CLI's reading of - as _
    options = {"config", "help", "version", "key", "L", *_KEYS}
    usage = io.StringIO()
    _usage(usage)
    flags = re.findall(r"--([A-Za-z][\w-]*)",
                       _section("Command line") + usage.getvalue())
    assert "outdir" in flags
    unknown = sorted({f for f in flags if f.replace("-", "_") not in options})
    assert not unknown, ("README or dtqw --help names no such option: "
                         f"{unknown}")
