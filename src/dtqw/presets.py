"""Named experiment presets and the pipeline runner behind the CLI.

Each preset is a complete ExperimentConfig plus a pipeline kind, and its
table is also the schema of its runs: a run may override the keys the
table sets (``L`` standing for ``L_x`` and ``L_y``) plus the run-level
``outdir``, and nothing else.  Running one writes
deterministic CSV/JSON (and decorative SVG) into the output directory
together with a ``meta.json`` echo that is itself a valid config file, so
any run can be reproduced from its own artifacts.
"""

import os
from collections import OrderedDict

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .continuum import (BETA, SquaredDirac2D, apply_dirac_2d,
                        build_dirac, combine_2d, dirac_1d_factor,
                        dirac_oscillator_eigenstate, analytic_zero_mode_2d,
                        jr_scattering, square_decomposition_check,
                        trotter_error)
from .evolution import prepare_initial_state, run_dynamics
from .io import svg_polyline, svg_scatter, write_csv, write_json
from .lattice import LatticeSpec, probability_map
from .operators import StepOperator2D
from .profiles import parse_angle, profile_table
from .spectral import (bulk_bands, corner_weight, enclosed_states,
                       near_unity_states, spectrum_scan, zero_mode_profiles)
from .symmetry import (check_sublattice_shift, check_walk_particle_hole,
                       diii_residuals, spectral_particle_hole_residual)


_FIG1 = {
    "L": "101",
    "theta_x": "linear:pi/20:5:pi/4",
    "theta_y": "linear:pi/20:5:pi/4",
    "T_max": "1000",
    "stride": "1",
    "beta_over_eps": "pi/20",
    "refine_iters": "30",
    "shift_x": "2",
    "shift_y": "0",
    "kick_x": "0",
    "kick_y": "pi/10",
    "band_center": "0.2565",
    "band_sigma": "8.0",
    "band_passes": "2",
}

_WALL_X = "wall:pi/3:-pi/3:25"

PRESETS = OrderedDict([
    ("fig1", ("dynamics", "limit-cycle orbit of the trapped walk", _FIG1)),
    ("fig2a", ("spectrum", "edge branch, clean wall, theta_y = 0",
               {"L": "101", "theta_x": _WALL_X, "theta_y": "constant:0"})),
    ("fig2b", ("spectrum", "gapped edge branch at theta_y = pi/50",
               {"L": "101", "theta_x": _WALL_X, "theta_y": "pi/50"})),
    ("fig2c", ("spectrum", "disordered wall, W = 0.25",
               {"L": "101", "theta_x": _WALL_X + "+noise:0.25:11",
                "theta_y": "constant:0"})),
    ("fig5", ("edge_profiles", "zero-mode profiles at k_y = 0",
              {"L": "101", "theta_x": _WALL_X, "theta_y": "constant:0"})),
    ("fig6", ("corner", "corner modes of the double wall",
              {"L": "101", "theta_x": _WALL_X, "theta_y": _WALL_X,
               "count": "8"})),
    ("fig7a", ("spectrum", "enclosed edge states, theta_y = pi/6",
               {"L": "101", "theta_x": _WALL_X, "theta_y": "pi/6"})),
    ("fig7b", ("spectrum", "enclosed edge states, theta_y = pi/4",
               {"L": "101", "theta_x": _WALL_X, "theta_y": "pi/4"})),
    ("fig7c", ("spectrum", "enclosed edge states, theta_y = pi/3",
               {"L": "101", "theta_x": _WALL_X, "theta_y": "pi/3"})),
    ("bandsB1", ("bands", "uniform bands, theta_x = pi/3, theta_y = 0",
                 {"theta_x": "pi/3", "theta_y": "constant:0",
                  "k_points": "41"})),
    ("bandsB2", ("bands", "uniform bands, theta_x = theta_y = pi/3",
                 {"theta_x": "pi/3", "theta_y": "pi/3", "k_points": "41"})),
    ("bandsB3", ("bands_sweep", "cross sections for a theta_y sweep",
                 {"theta_x": "pi/3", "k_points": "41"})),
    ("oracleA", ("oracle", "continuum oracle battery", {"L": "101"})),
    ("trotter", ("trotter", "splitting-error convergence at desk scale",
                 {"L": "21"})),
    ("symmetry", ("symmetry", "walk and Hamiltonian symmetry report",
                  {"L": "101", "theta_x": _WALL_X, "theta_y": "constant:0",
                   "seed": "11"})),
])


def base_config(name):
    """The ExperimentConfig a preset starts from (before overrides); its
    keys are the data keys a run of the preset accepts."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(PRESETS)}")
    _, _, table = PRESETS[name]
    cfg = ExperimentConfig(table)
    cfg.set("preset", name)
    return cfg


# --------------------------------------------------------------------------
# pipelines: each takes the merged config and returns (files, extras), where
# files maps an output name to a writer taking its path and extras go into
# meta.json.
# --------------------------------------------------------------------------

def _prepared_start(cfg):
    """(op, psi): the walk of a dynamics config and its prepared start."""
    op = cfg.step_operator()
    psi = prepare_initial_state(
        op, analytic_zero_mode_2d(cfg.get_float("beta_over_eps"), op.lattice),
        cfg.get_int("refine_iters"),
        (cfg.get_int("shift_x"), cfg.get_int("shift_y")),
        (cfg.get_float("kick_x"), cfg.get_float("kick_y")),
        cfg.band_pass())
    return op, psi


def _run_dynamics(cfg):
    table = run_dynamics(*_prepared_start(cfg), cfg.get_int("T_max"),
                         cfg.get_int("stride"))
    return {
        "dynamics.csv": lambda p: write_csv(
            p, ["T", "mean_x", "mean_y", "std_x", "std_y"], table),
        "orbit.svg": lambda p: svg_polyline(
            p, table[:, 1], table[:, 2], "mean_x", "mean_y"),
    }, {}


def _run_spectrum(cfg):
    kind, params, _ = cfg.profile("x")
    ty = cfg.angle("y")
    k, E = spectrum_scan(cfg.step_operator())
    k_col, E_col = np.repeat(k, E.shape[1]), E.ravel()
    files = {
        "spectrum.csv": lambda p: write_csv(p, ["k_y", "E"],
                                            np.column_stack((k_col, E_col))),
        "spectrum.svg": lambda p: svg_scatter(p, k_col, E_col, "k_y", "E"),
    }
    # enclosed in-opening states, when the bulk is gapped by theta_y
    extras = {}
    if ty and kind == "wall":
        enclosed = enclosed_states(k, E, params[:2], ty)
        extras["enclosed_count"] = len(enclosed)
        files["enclosed.csv"] = lambda p: write_csv(p, ["k_y", "E"], enclosed)
    return files, extras


def _run_edge_profiles(cfg):
    cfg.angle("y")                   # the k_y = 0 block needs one value
    op = cfg.step_operator()
    E, profiles = zero_mode_profiles(op)
    xs = op.lattice.coords_x
    header = ["x"] + [f"P_{i + 1}" for i in range(len(profiles))]
    return {
        "profiles.csv": lambda p: write_csv(
            p, header, np.column_stack((xs, *profiles))),
        "profiles.svg": lambda p: svg_polyline(p, xs, profiles[0], "x", "P"),
    }, {"energies": [float(e) for e in E]}


def _run_corner(cfg):
    # the walls' half-widths, for the corner weight
    L_wall_x, L_wall_y = (cfg.profile(axis, "wall")[1][2] for axis in "xy")
    op = cfg.step_operator()
    count = cfg.get_int("count")
    if count > op.lattice.size:
        raise ConfigError(f"count {count} exceeds the {op.lattice.size} "
                          f"states of {op.lattice!r}")
    E, states, resid = near_unity_states(op, count)
    P = probability_map(states)
    X, Y = np.meshgrid(op.lattice.coords_x, op.lattice.coords_y,
                       indexing="ij")
    site_map = np.column_stack((X.ravel(), Y.ravel(), P[0].ravel()))
    return {
        "states.csv": lambda p: write_csv(
            p, ["E", "residual", "corner_weight_r5"], np.column_stack(
                (E, resid, [corner_weight(m, L_wall_x, L_wall_y)
                            for m in P]))),
        "map.csv": lambda p: write_csv(p, ["x", "y", "P"], site_map),
        "states.svg": lambda p: svg_scatter(
            p, range(count), E, "index", "E"),
    }, {"count_small_E": int(np.sum(np.abs(E) < 0.05))}


_SECTION_LINES = (0.0, np.pi / 2, np.pi)


def _band_rows(theta_x, theta_y, k_x, k_y):
    """(k_x, k_y, E_1..E_4) rows over the grid, k_x outermost."""
    KX, KY = np.meshgrid(k_x, k_y, indexing="ij")
    return np.column_stack((KX.ravel(), KY.ravel(), bulk_bands(
        theta_x, theta_y, KX, KY).reshape(-1, 4)))


def _svg_sections(path, rows):
    svg_scatter(path, np.repeat(rows[:, 1], 4), rows[:, 2:].ravel(),
                "k_y", "E")


def _run_bands(cfg):
    (tx,), (ty,) = (cfg.profile(axis, "constant")[1] for axis in "xy")
    n = cfg.get_int("k_points")
    ks = np.linspace(-np.pi, np.pi, n)
    header = ["k_x", "k_y", "E_1", "E_2", "E_3", "E_4"]
    # cheap (3 k_x lines), and both sections.csv and bands.svg draw on it
    sections = _band_rows(tx, ty, _SECTION_LINES, ks)
    return {
        "bands.csv": lambda p: write_csv(p, header,
                                         _band_rows(tx, ty, ks, ks)),
        "sections.csv": lambda p: write_csv(p, header, sections),
        "bands.svg": lambda p: _svg_sections(p, sections),
    }, {}


_SWEEP_THETA_Y = ("0", "pi/12", "pi/6", "pi/4", "pi/3")


def _run_bands_sweep(cfg):
    (tx,) = cfg.profile("x", "constant")[1]
    n = cfg.get_int("k_points")
    ks = np.linspace(-np.pi, np.pi, n)
    tys = [parse_angle(t) for t in _SWEEP_THETA_Y]
    blocks = [_band_rows(tx, ty, _SECTION_LINES, ks) for ty in tys]
    rows = np.vstack([np.column_stack((np.full(len(block), ty), block))
                      for ty, block in zip(tys, blocks)])
    return {
        "sections.csv": lambda p: write_csv(
            p, ["theta_y", "k_x", "k_y", "E_1", "E_2", "E_3", "E_4"], rows),
        "bands.svg": lambda p: _svg_sections(p, blocks[-1]),
    }, {}


def _oracle_report(L_big):
    omega = 2.0 * BETA
    rep = {"omega": omega}

    H1 = build_dirac(BETA * LatticeSpec(L_big).coords_x)
    ev1 = np.linalg.eigvalsh(H1)
    ladder = {}
    for n in (1, 2, 3):
        t = np.sqrt(n * omega)
        near = float(ev1[np.argmin(np.abs(ev1 - t))])
        ladder[str(n)] = {"target": t, "measured": near,
                          "rel_error": abs(near - t) / t}
    rep["ladder_1d"] = ladder
    rep["zero_mode_min_abs_E"] = float(np.min(np.abs(ev1)))

    L2 = 25   # wide enough that the analytic zero mode's tail clears 1e-8
    # both axes carry the same linear mass, so one factor serves both
    m2 = BETA * LatticeSpec(L2).coords_x
    h2 = dirac_1d_factor(m2)
    rep["squaring_residual"] = square_decomposition_check(h2, h2, m2, m2)
    sq = SquaredDirac2D(h2, h2)
    w2 = sq.energies()
    cut = 0.25 * np.sqrt(omega)
    counts = {"0": int(np.sum(np.abs(w2) < cut))}
    for N in (1, 2, 3, 4):
        t = np.sqrt(N * omega)
        counts[str(N)] = {
            "plus": int(np.sum(np.abs(w2 - t) < 0.03 * t)),
            "minus": int(np.sum(np.abs(w2 + t) < 0.03 * t)),
        }
    rep["degeneracy_counts_2d"] = counts

    z = dirac_oscillator_eigenstate(0, 0, BETA, L_big)
    rep["zero_mode_residual_1d"] = float(
        np.linalg.norm(H1 @ z.reshape(-1)))
    gz = analytic_zero_mode_2d(BETA, LatticeSpec(L2))
    rep["zero_mode_residual_2d"] = float(
        np.linalg.norm(apply_dirac_2d(h2, h2, gz)))
    # overlap of the analytic zero mode with the numeric near-zero
    # subspace: H's projector onto |E| < cut is H^2's onto lam < cut^2
    rep["zero_mode_subspace_overlap"] = float(
        np.linalg.norm(sq.coefficients(gz)[sq.lam < cut ** 2]))

    B, C, _ = jr_scattering(1.3, 0.7)
    rep["jr_flux_residual"] = float(abs(abs(B) ** 2 + abs(C) ** 2 - 1.0))

    L3 = 41
    Hx = build_dirac(BETA * LatticeSpec(L3).coords_x)
    wx, Vx = np.linalg.eigh(Hx)
    ix = int(np.argmin(np.abs(wx - np.sqrt(omega))))
    iy = int(np.argmin(np.abs(wx - np.sqrt(2 * omega))))
    v = Vx[:, ix].reshape(L3, 2)
    flipped = v[:, ::-1]             # sigma^x on every site
    s = float(np.real(np.vdot(v, flipped)))
    E, gamma, delta = combine_2d(wx[ix], wx[iy], s)
    mix = gamma * v + delta * flipped
    Psi = np.einsum("xs,yt->xyts", mix, Vx[:, iy].reshape(L3, 2)).reshape(-1)
    # both axes carry the same linear mass, so Hx is each 1D factor
    rep["combine_2d_residual"] = float(np.linalg.norm(
        apply_dirac_2d(Hx, Hx, Psi) - E * Psi))
    return rep


def _square_side(cfg):
    """L of the square lattice the continuum pipelines run on."""
    lat = cfg.lattice()
    if lat.L_y != lat.L_x:
        raise ConfigError(f"L_y = {lat.L_y} differs from L_x = {lat.L_x}; "
                          "this pipeline takes one side length, set L")
    return lat.L_x


def _run_oracle(cfg):
    rep = _oracle_report(_square_side(cfg))
    return ({"report.json": lambda p: write_json(p, rep)},
            {"combine_2d_residual": rep["combine_2d_residual"]})


def _run_trotter(cfg):
    mass = BETA * LatticeSpec(_square_side(cfg)).coords_x
    tasks = [(1, dt) for dt in (0.5, 0.25, 0.125)] + \
            [(2, dt) for dt in (0.5, 0.25)]
    rows = np.array([(dim, dt, trotter_error((mass,) * dim, dt, t=4.0))
                     for dim, dt in tasks])
    ratios = {}
    for dim in (1, 2):
        errs = rows[rows[:, 0] == dim, 2]
        ratios[str(dim)] = (errs[:-1] / errs[1:]).tolist()
    return ({"trotter.csv": lambda p: write_csv(p, ["dim", "dt", "error"],
                                                rows)},
            {"halving_ratios": ratios})


def _run_symmetry(cfg):
    _, params, _ = cfg.profile("x", "wall")
    ty = cfg.angle("y")
    # the configured wall at half-width 2, for the 7- and 9-site checks
    small = ("wall", (*params[:2], 2), None)
    op = cfg.step_operator()
    rep = {
        "phs_multiset_residual": spectral_particle_hole_residual(
            spectrum_scan(op)[1]),
        "walk_reality_residual": check_walk_particle_hole(
            StepOperator2D(LatticeSpec(7), profile_table(small, 3),
                           np.full(7, ty))),
    }
    grid = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    rep["sublattice_shift_residual"] = check_sublattice_shift(
        *spectrum_scan(op, k_grid=grid))
    noisy = profile_table(("wall", params, (0.25, cfg.get_int("seed"))),
                          op.lattice.half_x)
    rep["phs_multiset_residual_noise"] = spectral_particle_hole_residual(
        spectrum_scan(StepOperator2D(op.lattice, noisy, op.theta_y))[1])

    rep["diii_residuals_my0"] = diii_residuals(
        build_dirac(profile_table(small, 4), np.zeros(9)))
    return {"report.json": lambda p: write_json(p, rep)}, {}


_PIPELINES = {
    "dynamics": _run_dynamics,
    "spectrum": _run_spectrum,
    "edge_profiles": _run_edge_profiles,
    "corner": _run_corner,
    "bands": _run_bands,
    "bands_sweep": _run_bands_sweep,
    "oracle": _run_oracle,
    "trotter": _run_trotter,
    "symmetry": _run_symmetry,
}


_RUN_KEYS = ("outdir",)


def run_config(cfg, outdir=None):
    """Execute a config that names a preset; returns the meta dict.

    The config may set only the preset's own keys (see base_config) and
    the run-level outdir; any other key is a ConfigError.
    """
    name = cfg.values.get("preset")
    if name is None:
        raise ConfigError(f"preset is required: a config must name one of "
                          f"{', '.join(PRESETS)}")
    base = base_config(name)
    for key in cfg.values:
        if key not in base.values and key not in _RUN_KEYS:
            takes = [k for k in base.values if k != "preset"]
            raise ConfigError(f"{key} is not a setting of preset {name!r}; "
                              f"it takes {', '.join(takes + list(_RUN_KEYS))}")
    cfg = base.update(cfg.to_dict())
    kind = PRESETS[name][0]
    outdir = outdir or cfg.values.get("outdir") or name
    files, extras = _PIPELINES[kind](cfg)
    outputs = sorted(files)
    for fname in outputs:
        files[fname](os.path.join(outdir, fname))
    meta = {
        "tool_version": __version__,
        "kind": kind,
        "config": cfg.to_dict(),
        "outputs": outputs,
    }
    meta.update(extras)
    write_json(os.path.join(outdir, "meta.json"), meta)
    return meta


def run_preset(name, overrides=None, outdir=None):
    """Run a named preset with optional {key: value} overrides."""
    cfg = ExperimentConfig({"preset": name}).update(overrides or {})
    return run_config(cfg, outdir=outdir)
