from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import angles
from dtqw import continuum
from dtqw.continuum import (BETA, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            SquaredDirac2D,
                            analytic_zero_mode_2d, apply_dirac_2d,
                            build_dirac, combine_2d, dirac_1d_factor,
                            dirac_oscillator_eigenstate, hermite_state,
                            jr_scattering, momentum_matrix,
                            square_decomposition_check, trotter_error)
from dtqw.lattice import LD, RD, LatticeSpec
from dtqw.operators import StepOperator2D

OMEGA = 2 * BETA


def _linear(L):
    """The linear site masses BETA * x on the L-site axis."""
    return BETA * LatticeSpec(L).coords_x


def _wall(L):
    """Site masses 0.5 within |x| <= 2 and -0.5 outside, on L sites."""
    return np.array([0.5 if abs(x) <= 2 else -0.5
                     for x in LatticeSpec(L).coords_x])


class TestMomentumMatrix:
    def test_hermitian_and_imaginary(self):
        p = momentum_matrix(9)
        assert np.allclose(p, p.conj().T)
        assert np.max(np.abs(p.real)) < 1e-14

    def test_generates_exact_translation(self):
        # e^{i p a} is the one-site cyclic shift for the spectral derivative
        p = momentum_matrix(9)
        T = expm(1j * p)
        v = np.zeros(9)
        v[4] = 1.0
        assert np.allclose(T @ v, np.roll(v, -1), atol=1e-12)


class TestWalkFactorIdentity:
    def test_1d_walk_equals_exponential_product(self):
        # at theta_y = 0 the 2D step maps y-uniform (LD, RD) states to
        # y-uniform (LD, RD) states, and that map is exactly
        # S_x C_x = e^{-iK} e^{-iM} with K = -p (x) sigma^z and
        # M = diag(theta) (x) sigma^y
        L = 21
        prof = angles("linear:pi/20:5:pi/4", L)
        op = StepOperator2D(LatticeSpec(L, 3), prof, np.zeros(3))
        U = np.empty((2 * L, 2 * L), dtype=complex)
        for j in range(2 * L):
            psi = np.zeros(op.lattice.shape, dtype=complex)
            psi[j // 2, :, (LD, RD)[j % 2]] = 1.0
            out = op.apply(psi)
            assert np.array_equal(out, np.broadcast_to(out[:, :1], out.shape))
            assert not out[..., 2:].any()     # no LU/RU part
            U[:, j] = out[:, 0, :2].reshape(-1)
        p = momentum_matrix(L)
        K = -np.kron(p, SIGMA_Z)
        M = np.kron(np.diag(prof), SIGMA_Y)
        assert np.max(np.abs(U - expm(-1j * K) @ expm(-1j * M))) < 1e-12


class TestHermiteLadder:
    def test_hermite_states_orthonormal(self):
        L = 101
        V = np.stack([hermite_state(n, BETA, L) for n in range(6)], axis=1)
        assert np.allclose(V.T @ V, np.eye(6), atol=1e-10)

    def test_oscillator_ladder(self):
        H = build_dirac(_linear(101))
        ev = np.linalg.eigvalsh(H)
        assert np.min(np.abs(ev)) < 1e-12
        for n in (1, 2, 3):
            target = np.sqrt(n * OMEGA)
            nearest = ev[np.argmin(np.abs(ev - target))]
            assert nearest == pytest.approx(target, rel=1e-10)

    @pytest.mark.parametrize("n,sign", [(1, "+"), (1, "-"), (2, "+"),
                                        (3, "-")])
    def test_analytic_eigenstates(self, n, sign):
        L = 101
        H = build_dirac(_linear(L))
        psi = dirac_oscillator_eigenstate(n, sign, BETA, L).reshape(-1)
        E = (1 if sign == "+" else -1) * np.sqrt(n * OMEGA)
        resid = np.linalg.norm(H @ psi - E * psi)
        assert resid < 0.02 * abs(E)

    def test_plus_minus_orthogonal(self):
        plus = dirac_oscillator_eigenstate(2, "+", BETA, 101).reshape(-1)
        minus = dirac_oscillator_eigenstate(2, "-", BETA, 101).reshape(-1)
        assert abs(np.vdot(plus, minus)) < 1e-12

    def test_zero_mode(self):
        L = 101
        H = build_dirac(_linear(L))
        z = dirac_oscillator_eigenstate(0, 0, BETA, L).reshape(-1)
        assert np.linalg.norm(H @ z) < 1e-6

    @pytest.mark.parametrize("beta", [0.0, -BETA, float("nan"),
                                      float("inf")])
    def test_non_positive_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            hermite_state(0, beta, 101)
        with pytest.raises(ValueError, match="beta must be positive"):
            analytic_zero_mode_2d(beta, LatticeSpec(41))

    def test_tail_checks_raise_lattice_too_small(self):
        with pytest.raises(continuum.LatticeTooSmall, match="L_x = 19 "):
            hermite_state(0, BETA, 19)
        hermite_state(0, BETA, 21)
        with pytest.raises(continuum.LatticeTooSmall, match="L_y = 21 "):
            analytic_zero_mode_2d(BETA, LatticeSpec(21))
        analytic_zero_mode_2d(BETA, LatticeSpec(23))

    def test_nan_tails_trip_the_tail_checks(self, monkeypatch):
        # a Gaussian sampled as nan reaches both tail checks
        monkeypatch.setattr(np, "exp",
                            lambda a: np.full(np.shape(a), np.nan))
        with np.errstate(invalid="ignore"):
            with pytest.raises(continuum.LatticeTooSmall,
                               match="probability nan"):
                hermite_state(0, BETA, 21)
            with pytest.raises(continuum.LatticeTooSmall, match="tail nan"):
                analytic_zero_mode_2d(BETA, LatticeSpec(41))


def _schroedinger_1d(m):
    """H_S = p^2 + m^2 + i s^x [p, m] on (x, spinor)."""
    p = momentum_matrix(len(m))
    return (np.kron(p @ p + np.diag(m ** 2), SIGMA_0)
            + 1j * np.kron(p @ np.diag(m) - np.diag(m) @ p, SIGMA_X))


def _dense_square_residual(H, m_x, m_y):
    """max |H^2 - (H_Sx (x) tau^0 + sigma^0 (x) H_Sy)| with the full
    matrix: the unflipped sum is np.kron on (x, sigma, y, tau), permuted
    into the (x, y, tau, sigma) layout."""
    L_x, L_y = len(m_x), len(m_y)
    h_x2, h_y2 = _schroedinger_1d(m_x), _schroedinger_1d(m_y)
    s = (np.kron(h_x2, np.eye(2 * L_y)) + np.kron(np.eye(2 * L_x), h_y2))
    perm = (0, 2, 3, 1, 4, 6, 7, 5)
    s = s.reshape((L_x, 2, L_y, 2) * 2).transpose(perm).reshape(s.shape)
    return float(np.max(np.abs(H @ H - s)))


class TestSquaring:
    """The factor-form check against the dense H.H product."""

    @staticmethod
    def both_routes(m_x, m_y):
        return (square_decomposition_check(dirac_1d_factor(m_x),
                                           dirac_1d_factor(m_y), m_x, m_y),
                _dense_square_residual(build_dirac(m_x, m_y), m_x, m_y))

    def test_oscillator_squares_to_schroedinger_pair(self):
        assert max(self.both_routes(_linear(15), _linear(15))) < 1e-10

    def test_zero_mass_squares_to_laplacian(self):
        assert max(self.both_routes(np.zeros(9), np.zeros(9))) < 1e-12

    def test_wall_masses(self):
        assert max(self.both_routes(_wall(9), _wall(9))) < 1e-12

    def test_perturbation_detected(self):
        # eps sigma^x anticommutes with h_x, so it moves the 1D squares
        # only by eps^2 = 1e-8, below the 1e-6 threshold, but it breaks
        # {h_x, sigma^x} = 0 by 2 eps: only the cross term sees it
        L, eps = 9, 1e-4
        m_x = m_y = _linear(L)
        h_x = h_y = dirac_1d_factor(m_x)
        bent = h_x + eps * np.kron(np.eye(L), SIGMA_X)   # stays Hermitian
        assert np.max(np.abs(bent @ bent - h_x @ h_x)) < 1e-6
        assert square_decomposition_check(bent, h_y, m_x, m_y) > 1e-6
        H = build_dirac(m_x, m_y)
        H += eps * np.kron(np.eye(2 * L * L), SIGMA_X)
        assert _dense_square_residual(H, m_x, m_y) > 1e-6


class TestBuildDirac:
    @pytest.mark.parametrize("masses", [
        (_linear(9),), (_linear(9), np.zeros(9))], ids=["1d", "2d"])
    def test_rejects_a_bent_factor(self, masses, monkeypatch):
        dim = len(masses)
        H = build_dirac(*masses)
        assert isinstance(H, np.ndarray)
        assert H.shape == (2 * dim * 9 ** dim,) * 2
        bent = momentum_matrix(9)
        bent[6, 2] += 1e-6
        monkeypatch.setattr(continuum, "momentum_matrix", lambda L: bent)
        with pytest.raises(ValueError, match="not Hermitian"):
            build_dirac(*masses)

    def test_nan_mass_trips_the_hermiticity_check(self):
        with pytest.raises(ValueError, match="deviation nan"):
            build_dirac(np.full(9, np.nan))


class TestFactoredRoutes:
    """Per-axis routes against dense full-size products; a swapped axis,
    tau or sigma index moves either far past its tolerance."""

    def test_matrix_free_product_matches_dense(self):
        masses = (_wall(7), _linear(9))
        H = build_dirac(*masses)
        h_x, h_y = map(dirac_1d_factor, masses)
        rng = np.random.default_rng(5)
        n = H.shape[0]
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(apply_dirac_2d(h_x, h_y, psi)
                             - H @ psi)) <= 1e-12

    @pytest.mark.parametrize("dt", [0.5, 0.25])
    def test_factored_trotter_matches_dense_product(self, dt):
        L, t = 7, 2.0
        m_x, m_y = masses = (_wall(L), _linear(L))
        H = build_dirac(*masses)
        p, eye = momentum_matrix(L), np.eye(L)

        def kron(*factors):
            return reduce(np.kron, factors)

        K_x = -kron(p, eye, SIGMA_0, SIGMA_Z)
        M_x = kron(np.diag(m_x), eye, SIGMA_0, SIGMA_Y)
        K_y = -kron(eye, p, SIGMA_Z, SIGMA_X)
        M_y = kron(eye, np.diag(m_y), SIGMA_Y, SIGMA_X)
        # the direct 2D assembly is the sum of the four terms
        assert np.max(np.abs(H - (K_x + M_x + K_y + M_y))) <= 1e-13
        step = (expm(-1j * dt * K_y) @ expm(-1j * dt * M_y)
                @ expm(-1j * dt * K_x) @ expm(-1j * dt * M_x))
        rng = np.random.default_rng(9)
        psi0 = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        psi0 /= np.linalg.norm(psi0)
        psi = np.linalg.matrix_power(step, int(round(t / dt))) @ psi0
        dense = np.linalg.norm(psi - expm(-1j * t * H) @ psi0)
        factored = trotter_error(masses, dt, t, psi0=psi0)
        assert abs(factored - dense) <= 1e-12 * dense


class TestKroneckerSquare:
    """SquaredDirac2D's routes against the dense two-array build_dirac
    matrix on non-square lattices.  The massless case has exact zero modes on both
    axes (k = 0), so its lam = 0 levels take the sinc branch of the
    propagator; the linear x mass leaves two near-zero e_x whose signs
    LAPACK picks freely, which a sign(e_x) rule would misread."""

    cases = pytest.mark.parametrize("masses", [
        (_wall(7), _linear(9)), (np.zeros(7), np.zeros(9)),
        (_linear(9), _wall(7))],
        ids=["wall_x_linear_y", "massless", "linear_x_wall_y"])

    @staticmethod
    def routes(masses):
        return (SquaredDirac2D(*map(dirac_1d_factor, masses)),
                build_dirac(*masses))

    @cases
    def test_spectrum_matches_dense(self, masses):
        sq, H = self.routes(masses)
        assert np.max(np.abs(sq.energies()
                             - np.linalg.eigvalsh(H))) <= 1e-12

    @cases
    def test_low_projector_matches_dense(self, masses):
        cut = 0.4
        sq, H = self.routes(masses)
        w, W = np.linalg.eigh(H)
        # the cut sits inside a gap, so both subspaces are well defined
        assert np.min(np.abs(np.abs(w) - cut)) > 0.1
        near = W[:, np.abs(w) < cut]
        C = np.zeros(sq.lam.shape)
        B = []
        for i, j in zip(*np.nonzero(sq.lam < cut ** 2)):
            C[i, j] = 1.0
            B.append(sq.expand(C))
            C[i, j] = 0.0
        B = np.stack(B, axis=1)
        assert B.shape == near.shape
        assert np.linalg.norm(B @ B.conj().T
                              - near @ near.conj().T) <= 1e-12

    @cases
    def test_propagator_matches_expm_multiply(self, masses):
        from scipy.sparse.linalg import expm_multiply

        t = 2.0
        sq, H = self.routes(masses)
        if not np.any(np.concatenate(masses)):
            assert np.min(sq.lam) < 1e-28
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        psi0 /= np.linalg.norm(psi0)
        assert np.linalg.norm(sq.propagate(psi0, t) - expm_multiply(
            -1j * t * H, psi0)) <= 1e-13


class TestNoDense2DMatrix:
    def test_oracle_and_trotter_use_only_factors(self, monkeypatch):
        import scipy.sparse.linalg

        from dtqw import presets

        def one_d_only(*masses):
            assert len(masses) == 1, "a dense 2D Dirac matrix was built"
            return build_dirac(*masses)

        def refuse(*args, **kw):
            raise AssertionError("expm_multiply ran on the 2D reference")

        monkeypatch.setattr(continuum, "build_dirac", one_d_only)
        monkeypatch.setattr(presets, "build_dirac", one_d_only)
        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
        rep = presets._oracle_report(41)
        assert rep["degeneracy_counts_2d"]["0"] == 4
        assert trotter_error((_linear(9), _linear(9)), 0.5, 2.0) > 0


class TestCombine2D:
    def test_three_four_five(self):
        E, gamma, delta = combine_2d(3.0, 4.0, 0.0)
        assert E == pytest.approx(5.0)
        assert gamma ** 2 + delta ** 2 == pytest.approx(1.0)

    def test_projections_recover_inputs(self):
        # (gamma, delta) = A (cos phi, sin phi) with A^2 (1 + s sin 2phi) = 1
        for s in (0.0, 0.5, -0.3):
            E, gamma, delta = combine_2d(1.2, -0.7, s)
            A2 = gamma ** 2 + delta ** 2
            cos2, sin2 = (gamma ** 2 - delta ** 2) / A2, 2 * gamma * delta / A2
            assert E * cos2 == pytest.approx(1.2)
            assert E * sin2 == pytest.approx(-0.7)
            assert A2 * (1 + s * sin2) == pytest.approx(1.0)

    def test_double_zero_rejected(self):
        with pytest.raises(ValueError, match="does not mix"):
            combine_2d(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("E_x,E_y", [(np.nan, 1.0), (1.0, np.inf),
                                         (-np.inf, 0.0)])
    def test_non_finite_energy_rejected(self, E_x, E_y):
        with pytest.raises(ValueError, match="E_[xy] must be finite"):
            combine_2d(E_x, E_y, 0.0)

    def test_non_normalizable_rejected(self):
        # E_x = 0 puts 2phi at pi/2, so 1 + s sin 2phi = 0 at s = -1
        with pytest.raises(ValueError, match="not normalizable"):
            combine_2d(0.0, 1.0, -1.0)

    def test_constructed_2d_eigenstate(self):
        # build Psi = (gamma + delta sigma^x) psi_x (x) psi_y from 1D
        # numerics and verify it solves the 2D problem
        L = 31
        Hx = build_dirac(_linear(L))
        w, V = np.linalg.eigh(Hx)
        ix = int(np.argmin(np.abs(w - np.sqrt(OMEGA))))
        iy = int(np.argmin(np.abs(w - np.sqrt(2 * OMEGA))))
        sx = np.kron(np.eye(L), SIGMA_X)
        s = float(np.real(np.vdot(V[:, ix], sx @ V[:, ix])))
        E, gamma, delta = combine_2d(w[ix], w[iy], s)
        mix = (gamma * V[:, ix].reshape(L, 2)
               + delta * (sx @ V[:, ix]).reshape(L, 2))
        Psi = np.einsum("xs,yt->xyts", mix,
                        V[:, iy].reshape(L, 2)).reshape(-1)
        H2 = build_dirac(_linear(L), _linear(L))
        assert np.linalg.norm(H2 @ Psi - E * Psi) < 1e-6

    def test_analytic_zero_mode_solves_2d(self):
        H2 = build_dirac(_linear(25), _linear(25))
        gz = analytic_zero_mode_2d(BETA, LatticeSpec(25))
        assert np.linalg.norm(H2 @ gz.reshape(-1)) < 1e-5


class TestJackiwRebbi:
    def test_flux_conservation(self):
        for kx in (0.3, 1.3, 2.0):
            B, C, E = jr_scattering(kx, 0.7)
            assert abs(B) ** 2 + abs(C) ** 2 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k_x,m0,name", [
        (np.nan, 0.7, "k_x"), (np.inf, 0.7, "k_x"), (0.0, 0.7, "k_x"),
        (1.3, np.nan, "m0"), (1.3, -np.inf, "m0")])
    def test_unusable_inputs_rejected(self, k_x, m0, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            jr_scattering(k_x, m0)


class TestTrotter:
    def test_error_halves_with_dt_1d(self):
        m = angles("linear:pi/20:5:pi/4", 21)
        e1 = trotter_error((m,), 0.5, t=4.0)
        e2 = trotter_error((m,), 0.25, t=4.0)
        assert e1 / e2 == pytest.approx(2.0, abs=0.3)
