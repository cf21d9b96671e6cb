"""Every function the benchmark tracer wraps still exists in the package.

The tracer (bench/tracer.py) wraps functions by module and attribute
path; a rename under src/ would otherwise only surface when a traced
benchmark run starts.
"""

import importlib.util
from pathlib import Path

import dtqw.presets  # noqa: F401  (loads every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path, _ in tracer.TARGETS:
        assert callable(tracer._resolve(module, path))
