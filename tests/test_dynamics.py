import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import angles
from dtqw.continuum import BETA, analytic_zero_mode_2d
from dtqw.evolution import (band_filter, prepare_initial_state,
                            refine_unit_eigenstate, run_dynamics)
from dtqw.lattice import LatticeSpec, position_moments
from dtqw.operators import StepOperator2D
from dtqw.presets import _prepared_start, base_config
from test_lattice import basis_state


def _trap_op(L=41):
    prof = angles("linear:pi/20:5:pi/4", L)
    return StepOperator2D(LatticeSpec(L), prof, prof)


def _gaussian(op):
    return analytic_zero_mode_2d(BETA, op.lattice)


class TestRunDynamics:
    def test_norm_conserved_and_series_shape(self):
        op = _trap_op()
        psi = prepare_initial_state(op, _gaussian(op), shift=(2, 0),
                                    kick=(0.0, np.pi / 10))
        table = run_dynamics(op, psi, T_max=60, stride=2)
        assert table[0, 0] == 0 and table[-1, 0] == 60
        assert table.shape == (31, 5)

    def test_basis_initial_state(self):
        op = _trap_op(21)
        table = run_dynamics(op, basis_state(op.lattice, 0, 0, 2), T_max=5)
        assert len(table) == 6

    @pytest.mark.parametrize("scale, raises", [(1 + 2e-9, True),
                                               (1 + 5e-10, False)])
    def test_norm_drift_bound(self, monkeypatch, scale, raises):
        # a step that grows the norm by `scale`: one recorded step past
        # the 1e-9 drift bound raises, one inside it records its moments
        op = _trap_op(21)
        step = op._step

        def grown_step():
            step()
            np.multiply(op._movers, scale, out=op._movers)
        monkeypatch.setattr(op, "_step", grown_step)
        psi = basis_state(op.lattice, 0, 0, 2)
        if raises:
            with pytest.raises(RuntimeError, match="norm drift 2e-09 at "
                                                   "step 1"):
                run_dynamics(op, psi, T_max=1)
        else:
            assert len(run_dynamics(op, psi, T_max=1)) == 2

    def test_nan_start_raises(self):
        op = _trap_op(21)
        with pytest.raises(ValueError, match="state norm nan"):
            run_dynamics(op, np.full(op.lattice.shape, np.nan + 0j), T_max=1)

    def test_nan_step_trips_the_drift_check(self, monkeypatch):
        op = _trap_op(21)
        monkeypatch.setattr(op, "_step", lambda: np.multiply(
            op._movers, np.nan, out=op._movers))
        with pytest.raises(RuntimeError, match="norm drift nan at step 1"):
            run_dynamics(op, basis_state(op.lattice, 0, 0, 2), T_max=1)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_T_rejected(self, bad):
        op = _trap_op(21)
        with pytest.raises(ValueError):
            run_dynamics(op, basis_state(op.lattice, 0, 0, 2), T_max=bad)

    def test_band_pass_needs_passes(self):
        op = _trap_op(21)
        with pytest.raises(ValueError, match="passes"):
            prepare_initial_state(op, basis_state(op.lattice, 0, 0, 2),
                                  band_pass=(0.25, 8.0))


def _apply_loop_table(op, psi, T_max, stride):
    """run_dynamics's table from an explicit loop of op.apply and
    position_moments, each step in the public layout."""
    rows = [(0, *position_moments(psi, op.lattice))]
    for T in range(1, T_max + 1):
        psi = op.apply(psi)
        if T % stride == 0 or T == T_max:
            rows.append((T, *position_moments(psi, op.lattice)))
    return np.array(rows, dtype=float)


def _assert_run_matches_apply_loop(op, psi, T_max, stride):
    # apply and apply_adjoint share the workspace run_dynamics steps its
    # state in, so a run must leave their results as they were
    steps = op.apply(psi).tobytes(), op.apply_adjoint(psi).tobytes()
    table = run_dynamics(op, psi, T_max, stride)
    assert (op.apply(psi).tobytes(), op.apply_adjoint(psi).tobytes()) == steps
    assert table.tobytes() == _apply_loop_table(op, psi, T_max,
                                                stride).tobytes()


@st.composite
def dynamics_runs(draw):
    """(op, psi, T_max, stride): a walk on an odd lattice of 3..9 sites
    per axis with drawn angle tables, a normalized random start, a stride
    of 1..3 and, when the stride is above 1, a T_max that is not a
    multiple of it, so the last record falls off the stride."""
    odd = st.sampled_from([3, 5, 7, 9])
    angle = st.floats(-np.pi, np.pi, allow_nan=False)
    lat = LatticeSpec(draw(odd), draw(odd))
    op = StepOperator2D(lat, draw(arrays(float, lat.L_x, elements=angle)),
                        draw(arrays(float, lat.L_y, elements=angle)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**16))))
    psi = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    stride = draw(st.integers(1, 3))
    T_max = (stride * draw(st.integers(0, 12))
             + draw(st.integers(1, max(stride - 1, 1))))
    return op, psi / np.linalg.norm(psi), T_max, stride


class TestRunDynamicsBits:
    """run_dynamics steps a state it holds in the kernel's row planes;
    its table keeps the bits of the public-layout apply loop."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dynamics_runs())
    def test_drawn_walks(self, run):
        _assert_run_matches_apply_loop(*run)

    def test_fig1_walk(self):
        cfg = base_config("fig1")
        cfg.set("L", "33")
        _assert_run_matches_apply_loop(*_prepared_start(cfg), 200,
                                       cfg.get_int("stride"))


class TestPreparation:
    def test_refinement_drops_unit_residual(self):
        op = _trap_op()
        psi0 = prepare_initial_state(op, _gaussian(op), refine_iters=0)
        psi30, residuals = refine_unit_eigenstate(op, psi0, 30)
        assert residuals[-1] < residuals[0] * 0.2
        assert np.linalg.norm(psi30) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(prepare_initial_state(op, _gaussian(op),
                                                    refine_iters=30)
                              - psi30) < 1e-12

    def test_pi_kick_in_y_is_spectrally_inert(self):
        # e^{i pi y} commutes with the step up to the sublattice structure:
        # the kicked packet's orbit radius stays near zero, like no kick
        op = _trap_op()
        r_max = {}
        for ky in (np.pi, 0.0):
            psi = prepare_initial_state(op, _gaussian(op), refine_iters=30,
                                        kick=(0.0, ky))
            _, mean_x, mean_y, _, _ = run_dynamics(op, psi, T_max=60).T
            r_max[ky] = np.max(np.hypot(mean_x, mean_y))
        assert r_max[np.pi] == pytest.approx(r_max[0.0], abs=1e-4)

    def test_plain_kick_alone_moves_nothing(self):
        # documenting result: a momentum kick on the refined symmetric
        # packet does not displace it at all -- both means stay pinned at
        # machine zero.  Launching an orbit additionally needs the spatial
        # shift and the quasi-energy band filter (the fig1 recipe).
        op = _trap_op()
        psi = prepare_initial_state(op, _gaussian(op), refine_iters=30,
                                    kick=(0.0, np.pi / 10))
        _, mean_x, mean_y, _, _ = run_dynamics(op, psi, T_max=80).T
        assert np.max(np.abs(mean_y)) < 1e-10
        assert np.max(np.abs(mean_x)) < 1e-10

    def test_shift_plus_filter_launches_orbit(self):
        # desk-scale fig1 recipe: displaced, kicked, band-filtered packet
        # acquires a nonzero orbit radius
        op = _trap_op()
        psi = prepare_initial_state(op, _gaussian(op), refine_iters=30,
                                    shift=(2, 0), kick=(0.0, np.pi / 10),
                                    band_pass=(0.2565, 8.0, 2))
        _, mean_x, mean_y, _, _ = run_dynamics(op, psi, T_max=80).T
        r = np.hypot(mean_x, mean_y)
        assert np.max(r) > 0.3


class TestBandFilter:
    def test_filter_concentrates_quasi_energy(self):
        # project a broad packet onto a window around E0 and verify the
        # energy spread sharpens: var of E under |<E|psi>|^2 shrinks
        op = StepOperator2D(LatticeSpec(21), np.full(21, np.pi / 5),
                            np.full(21, np.pi / 5))
        rng = np.random.Generator(np.random.PCG64(4))
        psi = rng.normal(size=op.lattice.shape) * 1j
        psi += rng.normal(size=op.lattice.shape)
        psi /= np.linalg.norm(psi)
        E0, sig = 0.9, 6.0
        out = band_filter(op, psi, E0, sig, passes=2)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

        # spectral weights via one momentum block per k_y require a full
        # eigenbasis; measure instead through the autocorrelation proxy
        # |<psi|U^t|psi>|, which decays slower for the filtered state
        def coherence(state, t=12):
            cur, acc = state, 0.0
            for _ in range(t):
                cur = op.apply(cur)
                acc += abs(np.vdot(state.reshape(-1), cur.reshape(-1)))
            return acc / t
        assert coherence(out) > 2 * coherence(psi)

    def test_invalid_sigma(self):
        op = _trap_op(21)
        for sigma_t in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_t must be positive"):
                band_filter(op, np.ones(op.lattice.shape, complex), 0.0,
                            sigma_t)
