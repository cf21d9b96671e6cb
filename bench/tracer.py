"""Span tracer for the traced benchmark run.

Wraps the listed ``dtqw`` functions from outside the package: every place
a ``dtqw`` module (or class) binds one of them gets the wrapper, since
``presets`` imports names with ``from .spectral import ...``.  Each call
records a span ``[name, start, end, parent]`` in memory; spans opened in a
worker thread with no open span of their own attach to the open
``presets.run_config`` span.  Nothing under ``src/`` is edited.
"""

import collections
import functools
import os
import sys
import threading
import time
import tracemalloc

from scipy.sparse.linalg import LinearOperator, aslinearoperator

MARK = "__bench_span__"
ROOT = "presets.run_config"

# (module, attribute path, span name)
TARGETS = (
    ("operators", "StepOperator2D.apply", "operators.apply"),
    ("operators", "StepOperator2D.apply_adjoint", "operators.apply_adjoint"),
    ("lattice", "position_moments", "lattice.position_moments"),
    ("evolution", "refine_unit_eigenstate",
     "evolution.refine_unit_eigenstate"),
    ("evolution", "band_filter", "evolution.band_filter"),
    ("evolution", "prepare_initial_state", "evolution.prepare_initial_state"),
    ("evolution", "run_dynamics", "evolution.run_dynamics"),
    ("spectral", "momentum_block", "spectral.momentum_block"),
    ("spectral", "walk_matrix_sparse", "spectral.walk_matrix_sparse"),
    ("spectral", "quasi_energies", "spectral.quasi_energies"),
    ("spectral", "bulk_bands", "spectral.bulk_bands"),
    ("spectral", "bulk_openings", "spectral.bulk_openings"),
    ("spectral", "states_in_openings", "spectral.states_in_openings"),
    ("spectral", "near_unity_states", "spectral.near_unity_states"),
    ("spectral", "eigsh", "spectral.eigsh"),
    ("continuum", "build_dirac", "continuum.build_dirac"),
    ("continuum", "_expm_factor", "continuum._expm_factor"),
    ("continuum", "trotter_error", "continuum.trotter_error"),
    ("presets", "_oracle_report", "presets._oracle_report"),
    ("presets", "run_config", ROOT),
    ("io", "write_csv", "io.write_csv"),
    ("io", "svg_polyline", "io.svg"),
    ("io", "svg_scatter", "io.svg"),
    ("io", "write_json", "io.write_json"),
)

# spans whose peak traced allocation is recorded (tracemalloc runs only
# while one of them is open, so the rest of the run pays nothing for it)
MEMORY_SPANS = ("spectral.near_unity_states", "continuum.trotter_error",
                "presets._oracle_report")
APPLY_SAMPLES = 3   # apply calls measured with tracemalloc per process

MIB = 2.0 ** 20


class TracerError(RuntimeError):
    """A listed function is gone, or a wrapper sits where it must not."""


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dtqw" or name.startswith("dtqw."))]


def _namespaces():
    """Every dict in which a dtqw module or class may bind a function."""
    for mod in _package_modules():
        yield mod
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__.startswith("dtqw"):
                yield obj


def installed_wrappers():
    """Names of every tracer wrapper currently bound inside dtqw."""
    found = []
    for ns in _namespaces():
        for attr, obj in list(vars(ns).items()):
            if getattr(obj, MARK, None):
                found.append(f"{ns.__name__}.{attr}")
    return found


def _resolve(module, path):
    obj = sys.modules.get(f"dtqw.{module}")
    if obj is None:
        raise TracerError(f"module dtqw.{module} is not loaded")
    for part in path.split("."):
        if part not in vars(obj):
            raise TracerError(f"dtqw.{module}.{path} no longer exists; "
                              "update the tracer's TARGETS")
        obj = vars(obj)[part]
    return obj


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = []
        self._mem_open = 0
        self.apply_alloc = []
        self.reset()

    def reset(self):
        """Start a fresh pass: drop spans, counters and memory peaks."""
        self.spans = []
        self.counters = collections.Counter()
        self.peaks = {}
        self._root = None

    # -- installation ------------------------------------------------------

    def install(self):
        if installed_wrappers():
            raise TracerError("tracer wrappers are already installed")
        originals = [(_resolve(mod, path), name)
                     for mod, path, name in TARGETS]
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for fn, name in originals}
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._installed.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._installed):
            setattr(ns, attr, obj)
        self._installed = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        if name == ROOT and not stack:
            self._root = idx
        stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()
        if idx == self._root:
            self._root = None

    def _wrap(self, name, fn):
        extra = {
            "operators.apply": self._sample_alloc,
            "spectral.eigsh": self._count_matvecs,
            "spectral.near_unity_states": self._count_kept,
            "io.write_csv": self._count_bytes,
        }.get(name)
        mem = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            if mem:
                self._mem_enter(name)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(fn, args, kwargs)
            finally:
                if mem:
                    self._mem_exit()
                self._exit(idx)

        setattr(wrapper, MARK, name)
        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_matvecs(self, fn, args, kwargs):
        # eigsh turns A into a LinearOperator and calls its matvec; doing
        # that here with a counting matvec leaves the arithmetic unchanged
        A = aslinearoperator(args[0])

        def matvec(x):
            self.counters["spectral.eigsh.matvecs"] += 1
            return A.matvec(x)

        counted = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        self.counters["spectral.eigsh.requested"] += int(
            kwargs.get("k", args[1] if len(args) > 1 else 6))
        return fn(counted, *args[1:], **kwargs)

    def _count_kept(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counters["spectral.near_unity_states.kept"] += len(out)
        return out

    def _count_bytes(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counters["io.write_csv.bytes"] += os.path.getsize(args[0])
        return out

    def _sample_alloc(self, fn, args, kwargs):
        if len(self.apply_alloc) >= APPLY_SAMPLES or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            self.apply_alloc.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return out

    # -- memory sessions ---------------------------------------------------
    # One session runs from the first open memory span to the last close;
    # concurrent spans (the Trotter pool) share its peak.

    def _mem_enter(self, name):
        with self._lock:
            if self._mem_open == 0:
                self._mem_owner = not tracemalloc.is_tracing()
                if self._mem_owner:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                self._mem_base = tracemalloc.get_traced_memory()[0]
                self._mem_names = set()
            self._mem_open += 1
            self._mem_names.add(name)

    def _mem_exit(self):
        with self._lock:
            self._mem_open -= 1
            if self._mem_open:
                return
            peak = tracemalloc.get_traced_memory()[1] - self._mem_base
            for n in self._mem_names:
                self.peaks[n] = max(self.peaks.get(n, 0), peak)
            if self._mem_owner:
                tracemalloc.stop()

    # -- metrics -----------------------------------------------------------

    def pass_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        if any(s[2] is None for s in spans):
            raise TracerError("a span is still open at the end of the pass")
        children = collections.defaultdict(list)
        for name, start, end, parent in spans:
            if parent is not None:
                children[parent].append((start, end))
        names = sorted({name for _, _, name in TARGETS})
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        for i, (name, start, end, _) in enumerate(spans):
            covered = _union_length(children.get(i, ()), start, end)
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered
        m = {}
        for n in names:
            m[f"{n}.calls"] = (calls[n], "count")
            m[f"{n}.self_s"] = (self_s[n], "s")
            m[f"{n}.total_s"] = (total[n], "s")
        for n in MEMORY_SPANS:
            m[f"{n}.peak_alloc_mb"] = (self.peaks.get(n, 0) / MIB, "MiB")
        c = self.counters
        m["spectral.eigsh.matvecs"] = (c["spectral.eigsh.matvecs"], "count")
        req = c["spectral.eigsh.requested"]
        m["spectral.near_unity_states.useful_ratio"] = (
            c["spectral.near_unity_states.kept"] / req if req else 0.0,
            "ratio")
        m["io.write_csv.bytes"] = (c["io.write_csv.bytes"], "B")
        alloc = sorted(self.apply_alloc)
        m["operators.apply.alloc_bytes_per_call"] = (
            alloc[len(alloc) // 2] if alloc else 0, "B")
        root = total[ROOT]
        m["trace.coverage"] = ((root - self_s[ROOT]) / root if root else 0.0,
                               "frac")
        return m


def _union_length(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    length, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            length += e - s
            reach = e
    return length
