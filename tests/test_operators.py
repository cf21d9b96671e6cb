import numpy as np
import pytest

from conftest import angles
from dtqw.lattice import LD, RD, LatticeSpec, allocate_state
from dtqw.operators import StepOperator2D, coin_matrix, walk_matrix_dense
from dtqw.presets import base_config
from dtqw.spectral import walk_matrix_sparse
from test_lattice import basis_state


def _rand_state(lat, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    return psi / np.linalg.norm(psi)


class TestCoins:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_coin_is_real_orthogonal(self, axis):
        C = coin_matrix(axis, 0.7)
        assert np.allclose(C @ C.T, np.eye(4), atol=1e-15)
        assert np.max(np.abs(C.imag)) == 0.0

    def test_x_coin_acts_per_tau_block(self):
        # tau is the slow index: components (0,1) and (2,3) rotate separately
        C = coin_matrix("x", 0.3)
        assert C[0, 2] == C[0, 3] == C[1, 2] == C[1, 3] == 0.0
        c, s = np.cos(0.3), np.sin(0.3)
        assert np.allclose(C[:2, :2], [[c, -s], [s, c]])
        assert np.allclose(C[2:, 2:], [[c, -s], [s, c]])

    def test_y_coin_mixes_tau_within_sigma(self):
        C = coin_matrix("y", 0.3)
        c, s = np.cos(0.3), np.sin(0.3)
        expect = np.array([[c, 0, 0, -s],
                           [0, c, -s, 0],
                           [0, s, c, 0],
                           [s, 0, 0, c]])
        assert np.allclose(C, expect)

    def test_zero_angle_coin_is_identity(self):
        assert np.allclose(coin_matrix("y", 0.0), np.eye(4))


class TestShift:
    # at theta = 0 both coins are exactly 1, so a step is S_y S_x
    def test_shift_moves_components_oppositely(self):
        lat = LatticeSpec(5)
        op = StepOperator2D(lat, np.zeros(5), np.zeros(5))
        # a y-uniform column, on which S_y acts as the identity
        psi = allocate_state(lat)
        psi[lat.half_x, :, [LD, RD]] = 1.0
        psi /= np.linalg.norm(psi)
        P = np.abs(op.apply(psi)) ** 2
        # component 0 (left mover) at x=-1, component 1 (right mover) at x=+1
        assert P[lat.half_x - 1, :, 0].sum() == pytest.approx(0.5)
        assert P[lat.half_x + 1, :, 1].sum() == pytest.approx(0.5)

    def test_adjoint_inverts(self):
        # L = 3 makes every wrap slice and the interior of S_y one site wide
        for shape in ((7, 7), (3, 5), (5, 3)):
            lat = LatticeSpec(*shape)
            op = StepOperator2D(lat, np.zeros(lat.L_x), np.zeros(lat.L_y))
            psi = _rand_state(lat)
            assert np.allclose(op.apply_adjoint(op.apply(psi)), psi,
                               atol=1e-15)
            assert np.allclose(op.apply(op.apply_adjoint(psi)), psi,
                               atol=1e-15)


class TestWorkspace:
    """The kernel runs in a workspace the operator owns; what it hands out
    must not alias that workspace, the input or another call's result."""

    def _op(self, lat):
        return StepOperator2D(lat, angles("linear:0.3:2:0.9", lat.L_x),
                              angles("wall:pi/3:-pi/5:1", lat.L_y))

    def test_results_are_fresh_and_input_untouched(self):
        lat = LatticeSpec(5, 7)
        op = self._op(lat)
        psi = _rand_state(lat)
        before = psi.copy()
        fwd = op.apply(psi)
        kept = fwd.copy()
        bwd = op.apply_adjoint(psi)
        later = op.apply(fwd)
        assert np.array_equal(psi, before)
        assert np.array_equal(fwd, kept)     # not overwritten by later calls
        arrays = [psi, fwd, bwd, later]
        for i, a in enumerate(arrays):
            assert a.flags.c_contiguous
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_real_input_gives_exactly_real_output(self):
        # every factor is real, so the kernel may never mix the real and
        # imaginary parts; the symmetry preset's reality residual needs 0.0
        lat = LatticeSpec(7, 5)
        op = self._op(lat)
        psi = _rand_state(lat).real
        for step in (op.apply, op.apply_adjoint):
            out = step(psi)
            assert np.iscomplexobj(out)
            assert np.max(np.abs(out.imag)) == 0.0
            assert np.array_equal(out.real, step(psi + 0j).real)

    def test_non_contiguous_input_matches_contiguous(self):
        lat = LatticeSpec(7, 5)
        op = self._op(lat)
        wide = _rand_state(LatticeSpec(7, 11), seed=4)[:, 1::2]
        for psi in (wide, np.asfortranarray(_rand_state(lat, seed=5))):
            assert psi.shape == lat.shape and not psi.flags.c_contiguous
            dense = np.ascontiguousarray(psi)
            assert (op.apply(psi).tobytes() == op.apply(dense).tobytes())
            assert (op.apply_adjoint(psi).tobytes()
                    == op.apply_adjoint(dense).tobytes())


class TestStepOperator:
    @pytest.mark.parametrize("profile", [
        angles("pi/3", 11),
        angles("linear:pi/20:5:pi/4", 11),
        angles("wall:pi/3:-pi/3:3", 11),
        angles("wall:pi/3:-pi/3:3+noise:0.25:5", 11),
    ])
    def test_unitary_on_random_state(self, profile):
        lat = LatticeSpec(11)
        op = StepOperator2D(lat, profile, profile)
        psi = _rand_state(lat)
        assert np.linalg.norm(op.apply(psi)) == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(op.apply_adjoint(op.apply(psi)), psi, atol=1e-13)

    def test_wrong_shape_rejected(self):
        op = StepOperator2D(LatticeSpec(5, 7), np.full(5, 0.3),
                            np.full(7, 0.2))
        for step in (op.apply, op.apply_adjoint):
            with pytest.raises(ValueError, match="does not match"):
                step(_rand_state(LatticeSpec(7, 5)))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("shape", [
        lambda n: (n - 1,), lambda n: (n + 1,), lambda n: (1, n),
        lambda n: (n, 1), lambda n: ()],
        ids=["short", "long", "row", "column", "scalar"])
    def test_angle_table_of_wrong_shape_rejected(self, axis, shape):
        tables = {"x": np.zeros(5), "y": np.zeros(7)}
        tables[axis] = np.zeros(shape(len(tables[axis])))
        with pytest.raises(ValueError, match=f"theta_{axis} must be a "
                                             "table of"):
            StepOperator2D(LatticeSpec(5, 7), tables["x"], tables["y"])

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_angle_table_not_finite_rejected(self, axis, bad):
        tables = {"x": np.zeros(5), "y": np.zeros(7)}
        tables[axis][2] = bad
        with pytest.raises(ValueError, match=f"theta_{axis} holds a value "
                                             "that is not finite"):
            StepOperator2D(LatticeSpec(5, 7), tables["x"], tables["y"])

    def test_angle_tables_are_copied(self):
        tx, ty = np.full(5, 0.3), np.full(7, 0.2)
        op = StepOperator2D(LatticeSpec(5, 7), tx, ty)
        tx[:], ty[:] = 1.0, 1.0
        assert np.all(op.theta_x == 0.3) and np.all(op.theta_y == 0.2)
        assert op.theta_x.dtype == op.theta_y.dtype == float

    def test_walk_matrix_is_real(self):
        # real coins and permutation shifts make the whole step real,
        # which is the operative particle-hole property
        op = StepOperator2D(LatticeSpec(7), angles("wall:pi/3:-pi/3:2", 7),
                            np.full(7, np.pi / 7))
        U = walk_matrix_dense(op)
        assert np.max(np.abs(U.imag)) == 0.0
        assert np.allclose(U @ U.T, np.eye(U.shape[0]), atol=1e-13)

    def test_dense_matrix_matches_apply(self):
        lat = LatticeSpec(7)
        op = StepOperator2D(lat, angles("linear:0.1:2:0.3", 7),
                            np.full(7, 0.2))
        U = walk_matrix_dense(op)
        psi = _rand_state(lat, seed=3)
        assert np.allclose(U @ psi.reshape(-1),
                           op.apply(psi).reshape(-1), atol=1e-13)

    def test_fig1_steps_follow_the_sparse_matrix(self):
        # 200 steps of fig1's trap at L = 21: the kernel tracks repeated
        # sparse products, and as many adjoint steps bring the start back
        cfg = base_config("fig1")
        cfg.set("L", "21")
        op = cfg.step_operator()
        U = walk_matrix_sparse(op)
        start = _rand_state(op.lattice, seed=6)
        psi, ref = start, start.reshape(-1)
        for _ in range(200):
            psi = op.apply(psi)
            ref = U @ ref
        assert np.max(np.abs(psi.reshape(-1) - ref)) <= 1e-12
        for _ in range(200):
            psi = op.apply_adjoint(psi)
        assert np.max(np.abs(psi - start)) <= 1e-12

    def test_free_walk_movers(self):
        # theta = 0: sigma = L/R moves -x/+x, and the y shift moves the
        # per-site sigma-even combination down for tau=D, up for tau=U.
        # Prepare states that become sigma-even at the origin after S_x.
        lat = LatticeSpec(5)
        op = StepOperator2D(lat, np.zeros(5), np.zeros(5))
        hx, hy = lat.half_x, lat.half_y

        pre_D = (basis_state(lat, 1, 0, 0)      # L at x=+1 -> origin
                 + basis_state(lat, -1, 0, 1)) / np.sqrt(2)
        P = np.sum(np.abs(op.apply(pre_D)) ** 2, axis=2)
        assert P[hx, hy - 1] == pytest.approx(1.0)

        pre_U = (basis_state(lat, 1, 0, 2)
                 + basis_state(lat, -1, 0, 3)) / np.sqrt(2)
        P = np.sum(np.abs(op.apply(pre_U)) ** 2, axis=2)
        assert P[hx, hy + 1] == pytest.approx(1.0)
