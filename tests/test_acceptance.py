"""End-to-end acceptance battery.

Each test is one numbered criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Heavy artifacts are computed once in
module-scoped fixtures; the wall-clock budget of a criterion is charged
to the fixture that does its work.
"""

import time

import numpy as np
import pytest

from conftest import angles
from dtqw.continuum import trotter_error
from dtqw.lattice import LatticeSpec, position_moments, probability_map
from dtqw.operators import StepOperator2D
from dtqw.presets import _oracle_report, _prepared_start, base_config
from dtqw.spectral import (bulk_bands, corner_weight, enclosed_states,
                           fit_edge_branch, momentum_block, near_unity_states,
                           quasi_energies, spectrum_scan, zero_mode_profiles)
from dtqw.symmetry import (check_sublattice_shift, check_walk_particle_hole,
                           diii_residuals, spectral_particle_hole_residual)


REPORT_LINES = []


def _report(num, detail):
    line = f"[criterion {num:02d}] {detail}"
    REPORT_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1_run():
    """Prepared fig1 state evolved 1000 steps, tracking norm and moments."""
    t0 = time.perf_counter()
    op, psi = _prepared_start(base_config("fig1"))
    drift_max = abs(np.linalg.norm(psi) - 1.0)
    moments = [position_moments(psi, op.lattice)]
    for _ in range(1000):
        psi = op.apply(psi)
        drift_max = max(drift_max, abs(np.linalg.norm(psi) - 1.0))
        moments.append(position_moments(psi, op.lattice))
    m = np.array(moments)
    return {"drift": drift_max, "mean_x": m[:, 0], "mean_y": m[:, 1],
            "std_x": m[:, 2], "std_y": m[:, 3],
            "elapsed": time.perf_counter() - t0}


WALL = "wall:pi/3:-pi/3:25"


@pytest.fixture(scope="module")
def wall_op():
    return StepOperator2D(LatticeSpec(101), angles(WALL, 101), np.zeros(101))


@pytest.fixture(scope="module")
def wall_scan(wall_op):
    t0 = time.perf_counter()
    spec = spectrum_scan(wall_op)
    return spec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_wall_op(wall_op):
    return StepOperator2D(wall_op.lattice,
                          angles(WALL + "+noise:0.25:11", 101), np.zeros(101))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_unitarity_over_thousand_steps(fig1_run):
    drift, dt = fig1_run["drift"], fig1_run["elapsed"]
    _report(1, f"norm drift {drift:.3e} over 1000 steps in {dt:.1f}s")
    assert drift < 1e-9
    assert dt < 10.0


def test_c02_limit_cycle_orbit(fig1_run):
    x, y = fig1_run["mean_x"][500:], fig1_run["mean_y"][500:]
    r = np.hypot(x, y)
    ang = np.unwrap(np.arctan2(y, x))
    dang = np.diff(ang)
    mono = max(np.mean(dang > 0), np.mean(dang < 0))
    _report(2, f"r in [{r.min():.3f}, {r.max():.3f}], "
               f"winding monotonic fraction {mono:.4f}, "
               f"{fig1_run['elapsed']:.1f}s")
    assert 0.5 < r.min() and r.max() < 6.0
    assert mono == 1.0
    assert fig1_run["elapsed"] < 30.0


def test_c03_width_saturation(fig1_run):
    sx, sy = fig1_run["std_x"][600:], fig1_run["std_y"][600:]
    rel_x = np.std(sx) / np.mean(sx)
    rel_y = np.std(sy) / np.mean(sy)
    _report(3, f"relative width variation x {rel_x:.4f}, y {rel_y:.4f} "
               f"over T in [600, 1000]")
    assert rel_x < 0.05 and rel_y < 0.05


def test_c04_edge_branch_crossing_and_localization(wall_op, wall_scan):
    (k, E_scan), dt = wall_scan
    e_min = float(np.min(np.abs(E_scan[np.argmin(np.abs(k))])))
    v, resid, pts = fit_edge_branch(k, E_scan, np.pi / 3, k_window=0.2)
    _, P = zero_mode_profiles(wall_op)
    xs = wall_op.lattice.coords_x
    near_wall = (np.abs(xs - 25) <= 5) | (np.abs(xs + 25) <= 5)
    weights = [float(p[near_wall].sum()) for p in P]
    _report(4, f"|E|min(0) {e_min:.2e}, fit v {v:.4f} resid {resid:.4f}, "
               f"wall weights min {min(weights):.3f}, {dt:.0f}s")
    assert e_min < 1e-3
    assert resid < 0.05
    assert all(w >= 0.5 for w in weights)
    assert dt < 120.0


def test_c05_transverse_coin_opens_edge_gap(wall_op):
    op = StepOperator2D(wall_op.lattice, wall_op.theta_x,
                        np.full(101, np.pi / 50))
    gap = float(np.min(np.abs(quasi_energies(momentum_block(op, 0.0)))))
    _report(5, f"edge gap at k_y=0 is {gap:.3e} for theta_y = pi/50")
    assert gap > 1e-3


def test_c06_noise_keeps_crossing_lifts_degeneracy(noisy_wall_op):
    e0 = float(np.min(np.abs(
        quasi_energies(momentum_block(noisy_wall_op, 0.0)))))
    E4 = np.sort(np.abs(
        quasi_energies(momentum_block(noisy_wall_op, np.pi / 4))))[:4]
    split = float(E4[2] - E4[1])
    _report(6, f"|E|min(0) {e0:.2e}, branch splitting at k_y=pi/4 "
               f"{split:.2e}")
    assert e0 < 1e-2
    assert split > 1e-4


def test_c07_symmetry_suite(wall_op, wall_scan, noisy_wall_op):
    (_, clean), _ = wall_scan
    phs_clean = spectral_particle_hole_residual(clean)
    phs_noise = spectral_particle_hole_residual(
        spectrum_scan(noisy_wall_op)[1])
    grid = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    shift = check_sublattice_shift(*spectrum_scan(wall_op, k_grid=grid))
    reality = check_walk_particle_hole(
        StepOperator2D(LatticeSpec(7), angles("wall:pi/3:-pi/3:2", 7),
                       np.zeros(7)))
    from dtqw.continuum import build_dirac
    wallm = lambda x: np.pi / 3 if abs(x) <= 2 else -np.pi / 3  # noqa: E731
    H = build_dirac(np.array([wallm(x) for x in LatticeSpec(9).coords_x]),
                    np.zeros(9))
    diii = max(diii_residuals(H).values())
    _report(7, f"PHS clean {phs_clean:.2e} noisy {phs_noise:.2e}, "
               f"k->k+pi {shift:.2e}, reality {reality:.2e}, "
               f"DIII {diii:.2e}")
    assert phs_clean < 1e-10 and phs_noise < 1e-10
    assert shift < 1e-10
    assert reality < 1e-14
    assert diii < 1e-12


def test_c08_corner_states_both_scales():
    par = []
    for L, lw, budget in ((41, 10, 60.0), (101, 25, 300.0)):
        wall = angles(f"wall:pi/3:-pi/3:{lw}", L)
        op = StepOperator2D(LatticeSpec(L), wall, wall)
        t0 = time.perf_counter()
        E, states, _ = near_unity_states(op, 8)
        dt = time.perf_counter() - t0
        small = int(np.sum(np.abs(E) < 0.05))
        # weight of the multiplet as a whole (equal-weight mixture)
        w = corner_weight(np.mean(probability_map(states), axis=0), lw, lw)
        par.append((L, small, w, dt, budget))
    ctrl_op = StepOperator2D(LatticeSpec(41), np.full(41, np.pi / 3),
                             np.full(41, np.pi / 3))
    n_ctrl = int(np.sum(np.abs(near_unity_states(ctrl_op, 8)[0]) < 0.05))
    _report(8, "; ".join(
        f"L={L}: {n} small |E|, corner weight {w:.3f}, {dt:.0f}s"
        for L, n, w, dt, _ in par) + f"; control small-E count {n_ctrl}")
    for L, n, w, dt, budget in par:
        assert n >= 8
        assert w >= 0.70
        assert dt < budget
    assert n_ctrl == 0


def test_c09_uniform_band_structure():
    t0 = time.perf_counter()
    failures = []
    ks = np.linspace(-np.pi, np.pi, 201)

    # theta_x = pi/3, theta_y = 0: pairwise degeneracy along every
    # {0, +-pi} line in either momentum component
    worst = 0.0
    for v in (0.0, np.pi, -np.pi):
        for kx, ky in [(k, v) for k in ks] + [(v, k) for k in ks]:
            E = bulk_bands(np.pi / 3, 0.0, kx, ky)
            worst = max(worst, E[1] - E[0], E[3] - E[2])
    if worst > 1e-8:
        failures.append(f"B1 line degeneracy violated by {worst:.3e}")

    # theta_x = theta_y = pi/3 touchings
    def spacing(kx, ky):
        E = np.sort(bulk_bands(np.pi / 3, np.pi / 3, kx, ky))
        gaps = np.diff(E).tolist() + [2 * np.pi - (E[-1] - E[0])]
        return min(gaps)

    if spacing(0.0, 0.0) > 1e-8:
        failures.append(f"B2 gap at (0,0) is {spacing(0.0, 0.0):.3e}")
    s_hh = spacing(np.pi / 2, np.pi / 2)
    if s_hh > 1e-8:
        failures.append(f"B2 gap at (pi/2,pi/2) is {s_hh:.3e}, not < 1e-8")
    if spacing(np.pi / 4, 0.0) <= 0.1:
        failures.append(f"B2 gap at (pi/4,0) is {spacing(np.pi / 4, 0.0):.3e}")

    # free walk dispersion on a 21x21 grid
    kg = np.linspace(-np.pi, np.pi, 21)
    worst_free = max(
        float(np.max(np.abs(np.cos(bulk_bands(0.0, 0.0, kx, ky))
                            - np.cos(kx) * np.cos(ky))))
        for kx in kg for ky in kg)
    if worst_free > 1e-12:
        failures.append(f"free dispersion off by {worst_free:.3e}")

    dt = time.perf_counter() - t0
    _report(9, f"{len(failures)} band sub-checks failed in {dt:.1f}s"
               + ("".join("; " + f for f in failures) or "; all hold"))
    assert dt < 10.0
    assert not failures, " / ".join(failures)


def test_c10_continuum_oracle_battery():
    t0 = time.perf_counter()
    rep = _oracle_report(101)
    dt = time.perf_counter() - t0
    ladder_err = max(v["rel_error"] for v in rep["ladder_1d"].values())
    counts = rep["degeneracy_counts_2d"]
    _report(10, f"ladder rel err {ladder_err:.1e}, counts {counts}, "
                f"squaring {rep['squaring_residual']:.1e}, "
                f"jr {rep['jr_flux_residual']:.1e}, "
                f"overlap {rep['zero_mode_subspace_overlap']:.12f}, "
                f"combine {rep['combine_2d_residual']:.1e}, {dt:.0f}s")
    assert ladder_err < 0.03
    # one zero quartet; per-sign multiplicities 2(N+1) from the periodic
    # seam doubling of each 1D level
    assert counts["0"] == 4
    for N in (1, 2, 3, 4):
        assert counts[str(N)]["plus"] == 2 * (N + 1)
        assert counts[str(N)]["minus"] == 2 * (N + 1)
    assert rep["squaring_residual"] < 1e-10
    assert rep["jr_flux_residual"] < 1e-14
    assert rep["zero_mode_subspace_overlap"] > 0.99
    assert rep["combine_2d_residual"] < 1e-6
    assert dt < 120.0


def test_c11_trotter_halving():
    m = angles("linear:pi/20:5:pi/4", 21)
    e1d = [trotter_error((m,), dt, t=4.0) for dt in (0.5, 0.25, 0.125)]
    e2d = [trotter_error((m, m), dt, t=4.0) for dt in (0.5, 0.25)]
    ratios = [e1d[0] / e1d[1], e1d[1] / e1d[2], e2d[0] / e2d[1]]
    _report(11, "error halving ratios " +
            ", ".join(f"{r:.3f}" for r in ratios))
    for r in ratios:
        assert 1.7 <= r <= 2.3


@pytest.mark.parametrize("theta_y,label", [
    (np.pi / 6, "pi/6"), (np.pi / 4, "pi/4"), (np.pi / 3, "pi/3")])
def test_c12_edge_states_in_band_openings(theta_y, label):
    op = StepOperator2D(LatticeSpec(101), angles(WALL, 101),
                        np.full(101, theta_y))
    hits = enclosed_states(*spectrum_scan(op), (np.pi / 3, -np.pi / 3),
                           theta_y)
    n_zero = sum(1 for _, e in hits if abs(e) < np.pi / 2)
    n_pi = len(hits) - n_zero
    _report(12, f"theta_y={label}: {n_zero} states in the E~0 openings, "
                f"{n_pi} in the E~pi openings")
    assert n_zero > 0 and n_pi > 0
