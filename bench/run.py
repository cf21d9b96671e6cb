"""Run one benchmark workload through ``dtqw.presets.run_preset``.

    python3 bench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (bench/worker.py) that write into a
temporary directory under bench/results/, checks every pass's outputs,
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs an untraced
and a traced worker and reports the per-layer metrics.  Each run appends
its full record (samples and provenance) to ``--out``.  Exit code 0 when
every pass is correct, 1 when a check fails, 2 on a usage error, a
missing source tree, or a worker that cannot run.
"""

import argparse
import ctypes
import datetime
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, check_pass, pass_digest, passes_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5     # fresh processes timed to READY per untraced run
RUN_TIMEOUT_S = 170   # whole run, so the command ends within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a failed pass)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, check=True).stdout.strip()
        return int(out) if out else None
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": {key: _getconf(f"{name}_SIZE") for key, name in
                        (("L1d", "LEVEL1_DCACHE"), ("L2", "LEVEL2_CACHE"),
                         ("L3", "LEVEL3_CACHE"))},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        # thread caps a user may have set; DTQW_THREADS should be unset
        "env": {k: os.environ.get(k) for k in
                ("DTQW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# --------------------------------------------------------------------------
# worker processes
# --------------------------------------------------------------------------

def _spawn(job, deadline):
    """Run one worker; return (seconds from start to READY, its JSON)."""
    env = dict(os.environ, TMPDIR=job["workdir"])
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} "
                         f"(timeout {deadline - t0:.0f}s)")
    if job.get("setup_only"):
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, toy=False):
    """Measure one workload; returns the raw run record (see measure)."""
    plan = passes_for(workload, seed, toy)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    base = {"src": str(SRC), "plan": plan, "workdir": workdir}
    try:
        setup = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_spawn({**base, "setup_only": True},
                                    deadline)[0])
        # a traced run splits its time between an untraced worker (the
        # overhead baseline) and a traced one
        workers = (("plain", False), ("traced", True)) if trace else \
            (("plain", False),)
        outs = {}
        for tag, traced in workers:
            ready, outs[tag] = _spawn({
                **base, "tag": tag, "trace": traced,
                "budget_s": seconds / len(workers),
                "min_passes": 1 if trace else 2}, deadline)
            if not trace:
                setup.append(ready)
        passes = [p for out in outs.values() for p in out["passes"]]
        ref = None
        for p in passes:
            errs = [p["error"]] if p["error"] else \
                check_pass(workload, p["dir"], plan, toy)
            if not errs:
                digest = pass_digest(p["dir"])
                if ref is None:
                    ref = digest
                elif digest != ref:
                    errs = ["outputs differ byte-wise from an earlier pass "
                            "with the same seed"]
            p["failures"] = errs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for p in passes if p["failures"])
    plain = [p["run_s"] for p in outs["plain"]["passes"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "attempted": len(passes), "failed": failed,
        "correct": failed == 0,
        "failures": list(dict.fromkeys(f for p in passes
                                       for f in p["failures"])),
        "samples": {"run_s": plain, "setup_s": setup},
    }
    if not trace:
        record["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(plain), "s"),
            "peak_rss_mb": (outs["plain"]["peak_rss_mb"], "MiB"),
            "pass_frac": ((len(passes) - failed) / len(passes), "frac"),
        }
        return record
    traced = outs["traced"]["passes"]
    record["samples"]["traced_run_s"] = [p["run_s"] for p in traced]
    layers = {name: (statistics.median(p["layers"][name][0] for p in traced),
                     unit)
              for name, (_, unit) in traced[0]["layers"].items()}
    layers["trace.overhead_frac"] = (
        statistics.median(p["run_s"] for p in traced)
        / statistics.median(plain) - 1.0, "frac")
    record["metrics"] = layers
    record["spans"] = [p["spans"] for p in traced]
    return record


def select_metrics(record, spec):
    """The metrics BENCHMARK.json lists for this run's mode, checked."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    out = {}
    for m in listed:
        if m["name"] not in record["metrics"]:
            raise BenchError(f"BENCHMARK.json lists {m['name']!r} but the "
                             "run does not measure it")
        value, unit = record["metrics"][m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def _report(r):
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"passes {r['attempted']} ({r['failed']} failed)")
    for f in r["failures"]:
        print(f"  FAILED: {f.strip()}")
    run_s = r["samples"]["run_s"]
    if len(run_s) > 1:
        q = statistics.quantiles(run_s, n=4)
        print(f"  run_s samples {len(run_s)}: q1 {q[0]:.4f} s, "
              f"q3 {q[2]:.4f} s")
    if not r["trace"]:
        print(f"  setup_s samples {len(r['samples']['setup_s'])}")
        print(f"  fail_frac {r['failed'] / r['attempted']:.4g} frac")
    for name, m in r["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")


def measure(workload, seed, seconds, trace, toy=False):
    """One complete run record: metrics as BENCHMARK.json lists them,
    samples, failures, provenance and, for a traced run, its spans."""
    record = run_workload(workload, seed, seconds, trace, toy)
    record["metrics"] = select_metrics(record, load_spec())
    record["provenance"] = provenance(seed)
    record["finished"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    return record


def save(record, out):
    """Append the record to the JSON-lines file `out`; spans go beside it."""
    spans = record.pop("spans", None)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        name = f"spans-{record['workload']}-seed{record['seed']}.json"
        with open(out.parent / name, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "passes": spans}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring window (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(RESULTS / "results.jsonl"),
                    help="JSON-lines result file the run is appended to")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "dtqw" / "__init__.py").is_file():
        print(f"bench: no dtqw source tree at {SRC}", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        seconds = args.seconds or load_spec()["run_seconds"]
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
        save(record, args.out)
    except (BenchError, OSError, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    _report(record)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
