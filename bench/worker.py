"""One benchmark process: set up, then run passes of a workload.

    python3 bench/worker.py '<job json>'

The job names the source tree, the pass plan (preset, overrides, subdir),
the work directory, the time budget and whether to trace.  The worker
prints ``READY`` once imports, config parse and preset lookup are done
(the parent times process start to that line as ``setup_s``), then runs
passes and prints one JSON line with their timings.  A ``setup_only`` job
exits right after ``READY``.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback


def main(job):
    sys.path.insert(0, job["src"])
    import dtqw.presets as presets
    here = os.path.realpath(os.path.dirname(presets.__file__))
    if os.path.dirname(here) != os.path.realpath(job["src"]):
        sys.exit(f"worker: imported dtqw from {here}, not from {job['src']}")
    for preset, overrides, _ in job["plan"]:
        presets.base_config(preset).update(overrides)
    print("READY", flush=True)
    if job.get("setup_only"):
        return

    import tracer as tr
    tracer = None
    if job["trace"]:
        tracer = tr.Tracer()
        tracer.install()
    elif tr.installed_wrappers():
        sys.exit(f"worker: untraced run found tracer wrappers "
                 f"{tr.installed_wrappers()}")

    passes, times = [], []
    t_first = time.perf_counter()
    while True:
        pass_dir = os.path.join(job["workdir"], f"{job['tag']}{len(passes)}")
        if tracer is not None:
            tracer.reset()
        error = None
        t0 = time.perf_counter()
        try:
            for preset, overrides, sub in job["plan"]:
                presets.run_preset(preset, dict(overrides),
                                   outdir=os.path.join(pass_dir, sub))
        except Exception:   # a failed pass is counted, not fatal
            error = traceback.format_exc(limit=4)
        run_s = time.perf_counter() - t0
        record = {"dir": pass_dir, "run_s": run_s, "error": error}
        if tracer is not None:
            record["layers"] = tracer.pass_metrics()
            record["spans"] = tracer.spans
        passes.append(record)
        times.append(run_s)
        # another pass starts while at least half of it fits the window
        elapsed = time.perf_counter() - t_first
        if len(passes) >= job["min_passes"] and (
                elapsed + statistics.median(times) / 2 > job["budget_s"]):
            break

    if tracer is not None:
        tracer.uninstall()
    elif tr.installed_wrappers():
        sys.exit("worker: tracer wrappers appeared during an untraced run")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"passes": passes, "peak_rss_mb": peak}), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
