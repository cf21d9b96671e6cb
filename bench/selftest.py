"""Toy-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload untraced and traced on toy lattices, then checks that
each run yields every metric BENCHMARK.json lists, that the gates catch a
missing output, that the tracer names a function it cannot find, binds
its wrappers wherever dtqw binds the function, attaches pool-thread spans
to ``run_config`` and leaves nothing behind, that compare.py prints a row
per (workload, metric), and that the command refuses to run without the
source tree.  Takes well under a minute; exit code 0 when all hold.
"""

import io
import os
import shutil
import subprocess
import sys
import tempfile

import compare
import run
import tracer as tr
from workloads import WORKLOADS, check_pass, passes_for


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def test_spec(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    check(len(names) == len(set(names)), "metric names repeat")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    check(e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()),
          "setup_s must carry the largest bound")
    check(all(0 < m["bound"] <= 0.25 for m in e2e.values()),
          "bounds must lie in (0, 0.25]")


def test_runs(scratch):
    """Every workload, untraced and traced, into two result files."""
    files = [os.path.join(scratch, f"{side}.jsonl") for side in "ab"]
    for w in WORKLOADS:
        for trace in (False, True):
            for out in files:
                rec = run.measure(w, 3, 0.5, trace, toy=True)
                check(rec["correct"], f"{w} trace={trace}: "
                      f"{rec['failures']}")
                run.save(rec, out)
    return files


def test_gates(scratch):
    plan = passes_for("corner", 0, toy=True)
    d = os.path.join(scratch, "gate")
    for preset, over, sub in plan:
        run_preset(preset, over, outdir=os.path.join(d, sub))
    check(check_pass("corner", d, plan, toy=True) == [], "clean pass fails")
    os.remove(os.path.join(d, plan[0][2], "states.csv"))
    check(check_pass("corner", d, plan, toy=True) != [],
          "a missing output went unnoticed")


def test_tracer(scratch):
    import dtqw
    import dtqw.presets as presets
    import dtqw.spectral as spectral
    saved = tr.TARGETS
    tr.TARGETS = saved + (("spectral", "no_such_function", "x.y"),)
    try:
        tr.Tracer().install()
        raise AssertionError("a missing function went unnoticed")
    except tr.TracerError as err:
        check("no_such_function" in str(err), f"unhelpful error: {err}")
    finally:
        tr.TARGETS = saved
    check(not tr.installed_wrappers(), "a failed install left wrappers")

    t = tr.Tracer()
    t.install()
    try:
        for ns in (dtqw, presets, spectral):
            check(getattr(ns.near_unity_states, tr.MARK, None),
                  f"{ns.__name__}.near_unity_states is not wrapped")
        run_preset("trotter", {"L": "7"},
                   outdir=os.path.join(scratch, "trace"))
    finally:
        t.uninstall()
    check(not tr.installed_wrappers(), "uninstall left wrappers")
    roots = {i for i, s in enumerate(t.spans) if s[0] == tr.ROOT}
    errs = [s for s in t.spans if s[0] == "continuum.trotter_error"]
    check(len(errs) == 5 and all(s[3] in roots for s in errs),
          "pool-thread spans do not attach to run_config")
    m = t.pass_metrics()
    check(m["continuum.trotter_error.peak_alloc_mb"][0] > 0,
          "no memory peak recorded")


def test_compare(files):
    buf = io.StringIO()
    compare.compare(files[0], files[1], out=buf)
    spec = run.load_spec()
    rows = [line.split()[:2] for line in buf.getvalue().splitlines()[1:]
            if not line.startswith("note:")]
    want = [[w, m["name"]] for w in WORKLOADS
            for m in spec["end_to_end"] + spec["per_layer"]]
    check(sorted(rows) == sorted(want), "compare rows differ from the "
          "(workload, metric) pairs")


def test_no_source(scratch):
    d = os.path.join(scratch, "bare")
    shutil.copytree(run.BENCH, os.path.join(d, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", d)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        "orbit", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], cwd=d, capture_output=True,
                       text=True, timeout=120)
    check(p.returncode != 0 and not p.stdout.strip(),
          "run.py produced a result without a source tree")


def run_preset(*args, **kwargs):
    import dtqw.presets
    return dtqw.presets.run_preset(*args, **kwargs)


def main():
    sys.path.insert(0, str(run.SRC))
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    try:
        test_spec(run.load_spec())
        files = test_runs(scratch)
        test_gates(scratch)
        test_tracer(scratch)
        test_compare(files)
        test_no_source(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
