"""The benchmark's workloads: what one pass runs and how it is checked.

A pass is one or more ``dtqw.presets.run_preset`` calls, each writing into
its own subdirectory of the pass directory.  The gates re-check each pass
from the files it wrote, with the tolerances the acceptance battery
asserts (criterion numbers in brackets).
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("orbit", "wall_spectrum", "corner", "continuum")


def passes_for(workload, seed, toy=False):
    """[(preset, overrides, subdir)] for one pass of `workload`.

    Only ``wall_spectrum`` consumes the seed, as its disorder realization;
    the other workloads are the paper's fixed geometries.  ``toy`` shrinks
    every lattice so that the self-test runs in seconds.
    """
    if workload == "orbit":
        # the Gaussian start needs L >= 33 for its tail to clear the edge
        over = {"L": "33", "T_max": "20", "refine_iters": "2"} if toy else {}
        return [("fig1", over, "fig1")]
    if workload == "wall_spectrum":
        L, lw = (11, 3) if toy else (61, 15)
        return [("fig7c", {"L": str(L), "theta_x":
                           f"wall:pi/3:-pi/3:{lw}+noise:0.25:{seed}"},
                 "fig7c")]
    if workload == "corner":
        over = {"L": "11", "theta_x": "wall:pi/3:-pi/3:3",
                "theta_y": "wall:pi/3:-pi/3:3"} if toy else {}
        return [("fig6", over, "fig6")]
    if workload == "continuum":
        # the oracle's 2D lattices are fixed inside the preset, so the
        # toy pass keeps only the Trotter half
        if toy:
            return [("trotter", {"L": "7"}, "trotter")]
        return [("oracleA", {}, "oracleA"),
                ("trotter", {"L": "15"}, "trotter")]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# reading a pass back
# --------------------------------------------------------------------------

def _read_csv(path):
    """The numeric rows of a write_csv file as an array, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r] for r in rows[1:]],
                    dtype=float).reshape(-1, len(rows[0]))


def _finite_json(obj):
    if isinstance(obj, dict):
        return all(_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_json(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _structure(pass_dir, plan):
    """Every run wrote meta.json and the outputs it lists, all finite."""
    errors = []
    for _, _, sub in plan:
        d = os.path.join(pass_dir, sub)
        try:
            with open(os.path.join(d, "meta.json")) as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as err:
            errors.append(f"{sub}/meta.json unreadable: {err}")
            continue
        if not _finite_json(meta):
            errors.append(f"{sub}/meta.json holds a non-finite number")
        for name in meta.get("outputs", []):
            path = os.path.join(d, name)
            if not os.path.isfile(path):
                errors.append(f"{sub}/{name} listed but missing")
            elif name.endswith(".csv"):
                a = _read_csv(path)
                if not np.all(np.isfinite(a)):
                    errors.append(f"{sub}/{name} holds a non-finite number")
            elif name.endswith(".json"):
                with open(path) as fh:
                    if not _finite_json(json.load(fh)):
                        errors.append(f"{sub}/{name} holds a non-finite "
                                      "number")
    return errors


def pass_digest(pass_dir):
    """sha256 over every file (relative path and bytes) a pass wrote."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(pass_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pass_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


# --------------------------------------------------------------------------
# per-workload gates
# --------------------------------------------------------------------------

def _gate_orbit(pass_dir):
    a = _read_csv(os.path.join(pass_dir, "fig1", "dynamics.csv"))
    T, mx, my, sx, sy = a.T
    late = T >= 500
    x, y = mx[late], my[late]
    r = np.hypot(x, y)
    dang = np.diff(np.unwrap(np.arctan2(y, x)))
    mono = max(np.mean(dang > 0), np.mean(dang < 0))
    errors = []
    if not (0.5 < r.min() and r.max() < 6.0):   # [02]
        errors.append(f"orbit radius [{r.min():.3f}, {r.max():.3f}] "
                      "leaves (0.5, 6.0)")
    if mono != 1.0:                              # [02]
        errors.append(f"winding monotonic fraction {mono:.4f} != 1")
    sat = T >= 600
    for label, s in (("x", sx[sat]), ("y", sy[sat])):
        rel = np.std(s) / np.mean(s)
        if not rel < 0.05:                       # [03]
            errors.append(f"width variation {label} {rel:.4f} >= 0.05")
    return errors


def _phase_distance(E1, E2):
    """Bottleneck distance of two phase multisets on the unit circle."""
    a = np.exp(-1j * np.sort(np.mod(E1, 2.0 * np.pi)))
    b = np.exp(-1j * np.sort(np.mod(E2, 2.0 * np.pi)))
    n = len(a)
    shifts = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return float(np.min(np.max(np.abs(a[None, :] - b[shifts]), axis=1)))


def _gate_wall_spectrum(pass_dir):
    d = os.path.join(pass_dir, "fig7c")
    a = _read_csv(os.path.join(d, "spectrum.csv"))
    errors = []
    ks = np.unique(a[:, 0])
    phs = max(_phase_distance(a[a[:, 0] == k, 1], -a[a[:, 0] == k, 1])
              for k in ks)
    if not phs < 1e-10:                          # [07]
        errors.append(f"particle-hole multiset residual {phs:.2e} >= 1e-10")
    enc = _read_csv(os.path.join(d, "enclosed.csv"))
    n_zero = int(np.sum(np.abs(enc[:, 1]) < np.pi / 2))
    n_pi = len(enc) - n_zero
    if not (n_zero > 0 and n_pi > 0):            # [12]
        errors.append(f"enclosed states: {n_zero} near E=0, {n_pi} near "
                      "E=pi; need both > 0")
    with open(os.path.join(d, "meta.json")) as fh:
        if json.load(fh).get("enclosed_count") != len(enc):
            errors.append("meta enclosed_count disagrees with enclosed.csv")
    return errors


def _gate_corner(pass_dir):
    a = _read_csv(os.path.join(pass_dir, "fig6", "states.csv"))
    E, w = a[:, 0], a[:, 2]
    errors = []
    n_small = int(np.sum(np.abs(E) < 0.05))
    if n_small < 8:                              # [08]
        errors.append(f"{n_small} states with |E| < 0.05; need >= 8")
    # states are normalized, so the multiplet's weight is the mean weight
    weight = float(np.mean(w[:8]))
    if not weight >= 0.70:                       # [08]
        errors.append(f"corner weight {weight:.3f} < 0.70")
    return errors


def _gate_continuum(pass_dir):
    errors = []
    with open(os.path.join(pass_dir, "oracleA", "report.json")) as fh:
        rep = json.load(fh)
    # [10]
    ladder = max(v["rel_error"] for v in rep["ladder_1d"].values())
    counts = rep["degeneracy_counts_2d"]
    checks = [
        ("ladder rel error", ladder, ladder < 0.03),
        ("zero quartet count", counts["0"], counts["0"] == 4),
        ("squaring residual", rep["squaring_residual"],
         rep["squaring_residual"] < 1e-10),
        ("JR flux residual", rep["jr_flux_residual"],
         rep["jr_flux_residual"] < 1e-14),
        ("zero-mode overlap", rep["zero_mode_subspace_overlap"],
         rep["zero_mode_subspace_overlap"] > 0.99),
        ("combine_2d residual", rep["combine_2d_residual"],
         rep["combine_2d_residual"] < 1e-6),
    ]
    for N in (1, 2, 3, 4):
        for sign in ("plus", "minus"):
            c = counts[str(N)][sign]
            checks.append((f"level {N} {sign} count", c, c == 2 * (N + 1)))
    errors += [f"{label} {value} out of tolerance"
               for label, value, ok in checks if not ok]
    errors += _trotter_ratios(pass_dir)
    return errors


def _trotter_ratios(pass_dir):
    a = _read_csv(os.path.join(pass_dir, "trotter", "trotter.csv"))
    errors = []
    for dim in (1, 2):
        e = a[a[:, 0] == dim, 2]
        for r in e[:-1] / e[1:]:
            if not 1.7 <= r <= 2.3:              # [11]
                errors.append(f"dim {dim} halving ratio {r:.3f} "
                              "outside [1.7, 2.3]")
    return errors


_GATES = {
    "orbit": _gate_orbit,
    "wall_spectrum": _gate_wall_spectrum,
    "corner": _gate_corner,
    "continuum": _gate_continuum,
}


def check_pass(workload, pass_dir, plan, toy=False):
    """Failures of one pass: structure always, the physics gates at paper
    scale (toy lattices are too small for the paper's tolerances)."""
    errors = _structure(pass_dir, plan)
    if not errors and not toy:
        try:
            errors = _GATES[workload](pass_dir)
        except (OSError, ValueError, KeyError, IndexError) as err:
            errors = [f"cannot read outputs: {err!r}"]
    return errors
