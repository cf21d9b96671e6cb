"""Compare two benchmark result files, one row per (workload, metric).

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON-lines records bench/run.py appends.  A row shows
each side's median, quartiles and run count, and a verdict:

* ``worse``: NEW's median is worse than BASE's by more than the metric's
  bound in BENCHMARK.json;
* ``better``: NEW wins at least 9 of 10 pairs (runs paired by seed, ties
  win for neither; at least 10 pairs), and the medians differ by more than
  BASE's quartile spread;
* ``unresolved``: BASE's own spread is wider than the bound, unless every
  NEW run beats every BASE run (then ``better``);
* ``unchanged``: otherwise.

Per-layer metrics have no bound: they are ``better`` or ``worse`` by the
pairing rule, ``unchanged`` when the medians differ by no more than BASE's
spread, else ``unresolved``.  Exit code 1 when an end-to-end metric is
worse on some workload.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PROVENANCE_KEYS = ("nproc", "cache_bytes", "blas", "numpy", "scipy",
                   "python", "machine")


def load(path):
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pair_up(base, new, name):
    """(base, new) values of runs with the same seed, in run order."""
    by_seed = defaultdict(list)
    for r in new:
        by_seed[r["seed"]].append(r["metrics"][name]["value"])
    pairs = []
    for r in base:
        if by_seed[r["seed"]]:
            pairs.append((r["metrics"][name]["value"],
                          by_seed[r["seed"]].pop(0)))
    return pairs


def verdict(b, n, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0   # sign * (old - new) > 0: gain
    b1, mb, b3 = quartiles(b)
    _, mn, _ = quartiles(n)
    spread = b3 - b1
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    losses = sum(1 for x, y in pairs if sign * (x - y) < 0)
    enough = len(pairs) >= 10
    if bound is not None and mb and sign * (mn - mb) / abs(mb) > bound:
        return "worse"
    if enough and wins >= 0.9 * len(pairs) and sign * (mb - mn) > spread:
        return "better"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and sign * (mn - mb) > spread:
            return "worse"
        return "unchanged" if abs(mn - mb) <= spread else "unresolved"
    if mb and spread / abs(mb) > bound:
        if all(sign * (x - y) > 0 for x in b for y in n):
            return "better"
        return "unresolved"
    return "unchanged"


def compare(base_path, new_path, out=sys.stdout):
    spec = json.loads(SPEC.read_text())
    base, new = load(base_path), load(new_path)
    for side, runs in (("base", base), ("new", new)):
        provs = {json.dumps({k: r["provenance"].get(k)
                             for k in PROVENANCE_KEYS}, sort_keys=True)
                 for rs in runs.values() for r in rs}
        if len(provs) > 1:
            out.write(f"note: {side} runs come from differing machines\n")
    if base and new:
        pb = next(iter(base.values()))[0]["provenance"]
        pn = next(iter(new.values()))[0]["provenance"]
        diff = [k for k in PROVENANCE_KEYS if pb.get(k) != pn.get(k)]
        if diff:
            out.write(f"note: base and new differ in {', '.join(diff)}\n")
    out.write(f"{'workload':<14} {'metric':<44} {'unit':<5} "
              f"{'base median [q1, q3] n':<34} {'new median [q1, q3] n':<34} "
              f"{'change':>8}  verdict\n")
    worse = False
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in workloads:
            rb, rn = base.get((w, trace), []), new.get((w, trace), [])
            if not rb or not rn:
                continue
            for m in listed:
                name = m["name"]
                b = [r["metrics"][name]["value"] for r in rb]
                n = [r["metrics"][name]["value"] for r in rn]
                v = verdict(b, n, pair_up(rb, rn, name), m["better"],
                            m.get("bound"))
                worse |= trace == 0 and v == "worse"
                qb, qn = quartiles(b), quartiles(n)
                change = (f"{(qn[1] - qb[1]) / abs(qb[1]):+.1%}"
                          if qb[1] else "-")
                out.write(f"{w:<14} {name:<44} {m['unit']:<5} "
                          f"{_cell(qb, len(b)):<34} {_cell(qn, len(n)):<34} "
                          f"{change:>8}  {v}\n")
    return 1 if worse else 0


def _cell(q, count):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {count}"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
