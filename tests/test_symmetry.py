import numpy as np
import pytest

from conftest import angles
from dtqw.continuum import SIGMA_X, build_dirac
from dtqw.lattice import LatticeSpec
from dtqw.operators import StepOperator2D
from dtqw.presets import run_preset
from dtqw.spectral import spectrum_scan
from dtqw.symmetry import (THETA, _phase_multiset_distance, _pi_partners,
                           check_sublattice_shift, check_walk_particle_hole,
                           diii_residuals, spectral_particle_hole_residual)


class TestPhaseMultisetDistance:
    def test_identical_sets(self):
        E = np.array([-2.0, -0.5, 0.5, 2.0])
        assert _phase_multiset_distance(E, E) == 0.0

    def test_permutation_invariant(self):
        E = np.array([0.3, -1.2, 2.9, 0.0])
        assert _phase_multiset_distance(E, E[::-1]) == 0.0

    def test_branch_cut_irrelevant(self):
        # energies differing by 2pi are the same phase
        assert _phase_multiset_distance([np.pi - 1e-3],
                                        [-np.pi - 1e-3]) < 1e-12

    def test_near_degenerate_doublets_pair_correctly(self):
        # doublets split by ~1e-16 with conjugate partners: the bottleneck
        # matching must pair each value with its nearest phase, not fall
        # into the 2-chord trap of a lexicographic complex sort
        E1 = np.array([0.5, 0.5 + 1e-16, -0.5, -0.5 - 1e-16])
        E2 = np.array([-0.5, 0.5, 0.5 - 1e-16, -0.5 + 1e-16])
        assert _phase_multiset_distance(E1, E2) < 1e-12

    def test_detects_genuine_mismatch(self):
        d = _phase_multiset_distance([0.0, 1.0], [0.0, 1.1])
        assert d == pytest.approx(abs(np.exp(-1j) - np.exp(-1.1j)), rel=1e-12)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            _phase_multiset_distance([0.0], [0.0, 1.0])


@pytest.fixture(scope="module")
def small_wall_op():
    return StepOperator2D(LatticeSpec(21), angles("wall:pi/3:-pi/3:5", 21),
                          np.zeros(21))


@pytest.fixture(scope="module")
def wall_masses():
    """Site masses pi/3 within |x| <= 2 and -pi/3 outside, on L sites."""
    return lambda L: np.array([np.pi / 3 if abs(x) <= 2 else -np.pi / 3
                               for x in LatticeSpec(L).coords_x])


class TestWalkSymmetries:
    def test_particle_hole_multiset(self, small_wall_op):
        _, E = spectrum_scan(small_wall_op)
        assert spectral_particle_hole_residual(E) < 1e-12

    def test_particle_hole_survives_noise(self, small_wall_op):
        op = StepOperator2D(small_wall_op.lattice,
                            angles("wall:pi/3:-pi/3:5+noise:0.25:11", 21),
                            np.zeros(21))
        assert spectral_particle_hole_residual(spectrum_scan(op)[1]) < 1e-12

    def test_walk_matrix_reality(self):
        op = StepOperator2D(LatticeSpec(7), angles("wall:pi/3:-pi/3:2", 7),
                            np.full(7, np.pi / 50))
        assert check_walk_particle_hole(op) < 1e-14

    def test_sublattice_shift_on_pairable_grid(self, small_wall_op):
        grid = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        k, E = spectrum_scan(small_wall_op, k_grid=grid)
        assert check_sublattice_shift(k, E) < 1e-12

    def test_sublattice_shift_needs_pairable_grid(self, small_wall_op):
        # the commensurate grid of an odd lattice has no k + pi partners
        k, E = spectrum_scan(small_wall_op)
        with pytest.raises(ValueError, match="not pi-pairable"):
            check_sublattice_shift(k, E)

    def test_unshifted_pi_periodicity_fails_on_odd_lattices(self,
                                                            small_wall_op):
        # documenting result: E(k_y) = E(k_y + pi) without the energy shift
        # presumes the (-1)^y gauge, which is inconsistent on an odd
        # periodic axis; the residual is a finite-size O(1e-3) number, not
        # round-off
        grid = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        k, E = spectrum_scan(small_wall_op, k_grid=grid)
        unshifted = max(_phase_multiset_distance(row, E[j])
                        for row, j in zip(E, _pi_partners(k)))
        assert unshifted > 1e-4


class TestContinuumSymmetries:
    def test_diii_relations_hold_at_zero_y_mass(self, wall_masses):
        res = diii_residuals(build_dirac(wall_masses(9), np.zeros(9)))
        assert res["time_reversal"] < 1e-12
        assert res["particle_hole"] < 1e-12
        assert res["chiral"] < 1e-12

    def test_y_mass_breaks_time_reversal_not_particle_hole(
            self, wall_masses):
        res = diii_residuals(build_dirac(wall_masses(9), wall_masses(9)))
        assert res["particle_hole"] < 1e-12
        assert res["time_reversal"] > 0.1
        assert res["chiral"] > 0.1

    def test_antiunitary_squares(self):
        # Theta^2 = W W* for antiunitaries W K; Xi = K squares to +1 with
        # no matrix part to check
        assert np.allclose(THETA @ THETA.conj().T, np.eye(4))
        assert np.allclose(THETA @ THETA.conj(), -np.eye(4))

    def test_1d_chiral(self, wall_masses):
        H1 = build_dirac(wall_masses(21))
        # Gamma1 = sigma^x on every site anticommutes with H1
        W = np.kron(np.eye(H1.shape[0] // 2), SIGMA_X)
        assert np.max(np.abs(W @ H1 @ W.conj().T + H1)) < 1e-13

    def test_symmetry_preset_checks_the_configured_wall(self, monkeypatch,
                                                        tmp_path):
        # the 9-site DIII Hamiltonian carries the run's wall angles
        import dtqw.presets
        masses = []

        def recording(*m):
            masses.append(m)
            return build_dirac(*m)

        monkeypatch.setattr(dtqw.presets, "build_dirac", recording)
        run_preset("symmetry", {"L": "11", "theta_x": "wall:pi/4:-pi/5:3"},
                   outdir=str(tmp_path))
        (m_x, m_y), = masses
        assert np.array_equal(m_x, [-np.pi / 5] * 2 + [np.pi / 4] * 5
                              + [-np.pi / 5] * 2)
        assert np.array_equal(m_y, np.zeros(9))
