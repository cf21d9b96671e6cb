import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from dtqw.lattice import LatticeSpec
from dtqw.operators import StepOperator2D, walk_matrix_dense
from dtqw.profiles import Constant, DomainWall
import dtqw.spectral
from dtqw.spectral import (ConvergenceError, _quasi_energy, block_eigensystem,
                           bulk_bands, bulk_gap_edge, bulk_openings,
                           commensurate_grid, momentum_block,
                           near_unity_states, quasi_energies, spectrum_scan,
                           states_in_openings)
from dtqw.symmetry import _phase_multiset_distance


def _eigvals_route(U):
    """The general eigensolver route the W kernel is checked against."""
    return _quasi_energy(np.linalg.eigvals(U))


def _haar_unitary(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestBlocks:
    def test_commensurate_grid(self):
        g = commensurate_grid(7)
        assert len(g) == 7
        assert g[3] == 0.0
        assert np.allclose(np.diff(g), 2 * np.pi / 7)

    def test_blocks_tile_the_dense_spectrum(self):
        # union of block spectra over commensurate k_y == dense walk spectrum
        lat = LatticeSpec(7)
        op = StepOperator2D(lat, DomainWall(np.pi / 3, -np.pi / 3, 2),
                            Constant(np.pi / 7))
        dense = quasi_energies(walk_matrix_dense(op))
        tiled = np.sort(np.concatenate(
            [quasi_energies(momentum_block(op, k))
             for k in commensurate_grid(7)]))
        assert np.allclose(dense, tiled, atol=1e-10)

    def test_block_eigensystem_residual(self):
        op = StepOperator2D(LatticeSpec(9),
                            DomainWall(np.pi / 3, -np.pi / 3, 3),
                            Constant(0.0))
        blk = momentum_block(op, 0.4)
        E, V = block_eigensystem(blk)
        lam = np.exp(-1j * E)
        resid = np.linalg.norm(blk @ V - V * lam[None, :])
        assert resid < 1e-10
        assert np.all(np.diff(E) >= 0)

    def test_eigenphases_are_in_half_open_interval(self):
        # lambda = -1 has angle +pi, so E = -pi; the wrap maps it to +pi
        assert np.array_equal(quasi_energies(-np.eye(2)),
                              [np.pi, np.pi])

    def test_blocks_conjugate_under_k_reflection(self):
        op = StepOperator2D(LatticeSpec(9),
                            DomainWall(np.pi / 3, -np.pi / 3, 3)
                            .with_noise(0.25, 4), Constant(np.pi / 3))
        for k in (0.3, 1.1, 2.9):
            assert np.array_equal(momentum_block(op, -k),
                                  momentum_block(op, k).conj())

    def test_noise_in_y_profile_rejected(self):
        op = StepOperator2D(LatticeSpec(9), Constant(0.1),
                            Constant(0.1).with_noise(0.05, 1))
        with pytest.raises(ValueError):
            momentum_block(op, 0.0)


class TestKernel:
    """quasi_energies (the W kernel) against the general eigvals route."""

    @pytest.mark.parametrize("theta_y, k_y", [
        (0.0, 0.0), (0.0, 0.7), (np.pi / 3, 0.0), (np.pi / 3, -2.3)])
    def test_noisy_wall_blocks_match_eigvals(self, theta_y, k_y):
        op = StepOperator2D(LatticeSpec(21),
                            DomainWall(np.pi / 3, -np.pi / 3, 5)
                            .with_noise(0.25, 7), Constant(theta_y))
        U = momentum_block(op, k_y)
        # W eigenvalues cluster in pairs, and in fours at k_y = theta_y = 0
        w = np.linalg.eigvalsh((U + U.conj().T) / 2)
        starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > 1e-5)
        assert np.max(np.diff(starts, append=len(w))) == (
            4 if theta_y == k_y == 0.0 else 2)
        E = quasi_energies(U)
        assert E.shape == (84,) and np.all(np.diff(E) >= 0.0)
        assert _phase_multiset_distance(E, _eigvals_route(U)) <= 1e-13

    def test_degenerate_minus_one_matches_eigvals(self):
        Q = _haar_unitary(7, 3)
        phases = np.array([np.pi, np.pi, np.pi, 0.4, -0.4, 2.0, -1.1])
        U = (Q * np.exp(-1j * phases)) @ Q.conj().T
        E = quasi_energies(U)
        assert _phase_multiset_distance(E, _eigvals_route(U)) <= 1e-13
        assert np.allclose(E[-3:], np.pi, rtol=0, atol=1e-13)

    def test_non_unitary_input_rejected(self):
        op = StepOperator2D(LatticeSpec(9),
                            DomainWall(np.pi / 3, -np.pi / 3, 3),
                            Constant(np.pi / 3))
        U = momentum_block(op, 0.4)
        with pytest.raises(ValueError, match="modulus drifts"):
            quasi_energies(1.001 * U)
        # a non-normal perturbation: W's eigenvectors no longer span
        # U-invariant subspaces
        N = np.zeros_like(U)
        N[0, -1] = 1e-6
        with pytest.raises(ValueError, match="eigenpair residual"):
            quasi_energies(U + N)


class TestBulkBands:
    def test_free_case_dispersion(self):
        # theta = 0: cos E = cos k_x cos k_y, each value twice
        for kx, ky in [(0.3, -1.1), (2.0, 0.7)]:
            E = bulk_bands(0.0, 0.0, kx, ky)
            expect = np.arccos(np.cos(kx) * np.cos(ky))
            assert np.allclose(np.sort(np.abs(E)),
                               [expect, expect, expect, expect][:4][:len(E)],
                               atol=1e-12)

    def test_bands_match_uniform_lattice_blocks(self):
        # dual route: plane-wave bands vs the L x L lattice block at a
        # commensurate momentum
        L, tx, ty = 9, np.pi / 3, np.pi / 5
        op = StepOperator2D(LatticeSpec(L), Constant(tx), Constant(ty))
        ky = commensurate_grid(L)[6]
        lattice_E = quasi_energies(momentum_block(op, ky))
        band_E = np.sort(np.concatenate(
            [bulk_bands(tx, ty, kx, ky) for kx in commensurate_grid(L)]))
        assert np.allclose(np.sort(lattice_E), band_E, atol=1e-12)

    def test_array_input_matches_scalar_calls(self):
        ks = np.linspace(-np.pi, np.pi, 9)
        for tx, ty in [(np.pi / 3, 0.0), (np.pi / 3, np.pi / 3)]:
            grid = bulk_bands(tx, ty, ks[:, None], ks[None, :])
            scalar = np.array([[bulk_bands(tx, ty, kx, ky) for ky in ks]
                               for kx in ks])
            assert grid.shape == (9, 9, 4)
            assert np.array_equal(grid, scalar)

    def test_gap_edge_formula(self):
        # brute-force the k_x minimum of |E| and compare
        theta, ky = np.pi / 3, 0.35
        edge = bulk_gap_edge(theta, ky)
        kxs = np.linspace(-np.pi, np.pi, 20001)
        brute = min(np.min(np.abs(bulk_bands(theta, 0.0, kx, ky)))
                    for kx in kxs)
        assert edge == pytest.approx(brute, abs=1e-6)


class TestOpenings:
    def test_openings_bracket_zero_and_pi(self):
        ops = bulk_openings((np.pi / 3, -np.pi / 3), np.pi / 3, 0.0)
        assert len(ops) == 2
        zero_open = [o for o in ops if o[0] < 0.0 < o[1]]
        pi_open = [o for o in ops if o[0] < np.pi < o[1]]
        assert len(zero_open) == 1 and len(pi_open) == 1

    def test_states_in_openings_wraps(self):
        openings = [(-0.5, 0.5), (2.9, 3.5)]   # second straddles +pi
        hits = states_in_openings([0.0, 0.4, 1.0, 3.0, -3.2], openings)
        # -3.2 + 2pi = 3.083 sits inside the wrapped opening
        assert sorted(hits) == pytest.approx([-3.2, 0.0, 0.4, 3.0])

    @pytest.mark.parametrize("ky", [0.0, 1.0, np.pi / 2])
    def test_opening_edges_match_gap_formula(self, ky):
        # the E ~ 0 opening of the +-theta media at theta_y = 0 is the
        # projected bulk gap; its edges must agree with the closed form
        ops = bulk_openings((np.pi / 3, -np.pi / 3), 0.0, ky, n_kx=2001)
        zero_open = [o for o in ops if o[0] < 0.0 < o[1]]
        assert len(zero_open) == 1
        lo, hi = zero_open[0]
        edge = bulk_gap_edge(np.pi / 3, ky)
        assert hi == pytest.approx(edge, abs=2e-3)
        assert lo == pytest.approx(-edge, abs=2e-3)


class TestNearUnityStates:
    def test_dual_route_against_plane_waves(self):
        # uniform trivial coin: smallest |E| from the eigensolver must match
        # the plane-wave minimum on the commensurate grid
        L, theta = 15, np.pi / 3
        op = StepOperator2D(LatticeSpec(L), Constant(theta), Constant(theta))
        pairs = near_unity_states(op, 4)
        grid = commensurate_grid(L)
        best = min(np.min(np.abs(bulk_bands(theta, theta, kx, ky)))
                   for kx in grid for ky in grid)
        assert abs(pairs[0].energy) == pytest.approx(best, abs=1e-8)
        for p in pairs:
            assert p.residual < 1e-8

    @pytest.mark.parametrize("spare", [0, 10])
    def test_dense_branch_when_arpack_cannot_hold_subspace(self, spare):
        # count + 8 >= n - 2 leaves no room for ARPACK: the dense eigh runs
        op = StepOperator2D(LatticeSpec(3),
                            DomainWall(np.pi / 3, -np.pi / 3, 0),
                            Constant(np.pi / 5))
        count = op.lattice.size - spare
        pairs = near_unity_states(op, count)
        assert len(pairs) == count
        assert max(p.residual for p in pairs) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort([abs(p.energy) for p in pairs]),
                           np.sort(np.abs(dense))[:count], atol=1e-12)

    def test_degenerate_multiplet_not_truncated(self):
        # the requested count cuts into a degenerate multiplet; all returned
        # energies must still be genuine eigenphases (residual-checked)
        op = StepOperator2D(LatticeSpec(9), Constant(np.pi / 3),
                            Constant(np.pi / 3))
        pairs = near_unity_states(op, 3)
        assert len(pairs) == 3
        assert all(p.residual < 1e-9 for p in pairs)

    def test_arpack_failure_raises_convergence_error(self, monkeypatch):
        # the partial pairs are three genuine eigenvectors of W with their
        # Ritz values off by known amounts, so each residual is that offset
        offsets = np.array([3e-4, 2e-5, 1e-3])

        def no_convergence(W, k, **kwargs):
            w, V = np.linalg.eigh(W.toarray())
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      w[-3:] + offsets, V[:, -3:])

        monkeypatch.setattr(dtqw.spectral, "eigsh", no_convergence)
        wall = DomainWall(np.pi / 3, -np.pi / 3, 2)
        op = StepOperator2D(LatticeSpec(9), wall, wall)
        # 8 requested pairs run ARPACK with an 8 + 8 vector subspace
        with pytest.raises(ConvergenceError,
                           match="converged only 3/16 pairs") as info:
            near_unity_states(op, 8)
        assert info.value.best_residual == pytest.approx(2e-5, rel=1e-6)

    def test_arpack_failure_without_pairs_has_no_residual(self, monkeypatch):
        def no_convergence(W, k, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.zeros(0), np.zeros((W.shape[0], 0)))

        monkeypatch.setattr(dtqw.spectral, "eigsh", no_convergence)
        op = StepOperator2D(LatticeSpec(9), Constant(np.pi / 3),
                            Constant(np.pi / 3))
        with pytest.raises(ConvergenceError,
                           match="converged only 0/16 pairs") as info:
            near_unity_states(op, 8)
        assert info.value.best_residual is None

    def test_arpack_retry_grows_the_subspace(self, monkeypatch):
        # the free walk's top cos E level is 16-fold on L = 9: count = 5
        # plus the 8-vector buffer cuts into it, so the subspace grows by 16
        sizes = []
        arpack = dtqw.spectral.eigsh

        def counting_eigsh(W, k, **kwargs):
            sizes.append(k)
            return arpack(W, k=k, **kwargs)

        monkeypatch.setattr(dtqw.spectral, "eigsh", counting_eigsh)
        op = StepOperator2D(LatticeSpec(9), Constant(0.0), Constant(0.0))
        pairs = near_unity_states(op, 5)
        assert sizes == [13, 29]
        assert max(p.residual for p in pairs) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort([abs(p.energy) for p in pairs]),
                           np.sort(np.abs(dense))[:5], atol=1e-12)


class TestSpectrumScan:
    @pytest.fixture(scope="class")
    def op(self):
        return StepOperator2D(LatticeSpec(9),
                              DomainWall(np.pi / 3, -np.pi / 3, 3),
                              Constant(0.0))

    @staticmethod
    def _check_rows(op, k, E):
        """Rows with an earlier exact -k partner are its mirror; the rest
        are direct solves.  Returns the number of mirrored rows."""
        first = {}
        mirrored = 0
        for i, k_y in enumerate(k):
            direct = quasi_energies(momentum_block(op, k_y))
            j = first.get(-k_y)
            if j is None:
                assert np.array_equal(E[i], direct)
                first.setdefault(k_y, i)
                continue
            mirror = -E[j]
            mirror[mirror == -np.pi] = np.pi
            assert np.array_equal(E[i], np.sort(mirror))
            assert _phase_multiset_distance(E[i], direct) <= 1e-13
            mirrored += 1
        return mirrored

    def test_table_shape_grid_and_rows(self, op):
        k, E = spectrum_scan(op)
        assert k.shape == (9,) and E.shape == (9, 36)
        assert np.array_equal(k, commensurate_grid(9))
        assert np.all(np.diff(E, axis=1) >= 0.0)
        assert self._check_rows(op, k, E) == 4

    def test_mirror_on_noisy_transverse_coin_wall(self):
        op = StepOperator2D(LatticeSpec(11),
                            DomainWall(np.pi / 3, -np.pi / 3, 3)
                            .with_noise(0.25, 5), Constant(np.pi / 3))
        k, E = spectrum_scan(op)
        assert self._check_rows(op, k, E) == 5
        # linspace grid: -pi has no +pi partner, and only the k_y that
        # negate exactly are mirrored
        grid = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        k, E = spectrum_scan(op, k_grid=grid)
        assert k[0] == -np.pi
        assert self._check_rows(op, k, E) == 10

    def test_solves_one_block_per_pair(self, op, monkeypatch):
        calls = []
        kernel = dtqw.spectral.quasi_energies

        def counting(U):
            calls.append(U.shape)
            return kernel(U)

        monkeypatch.setattr(dtqw.spectral, "quasi_energies", counting)
        spectrum_scan(op)
        assert len(calls) == (op.lattice.L_y + 1) // 2

    def test_explicit_grid_keeps_its_order(self, op):
        k, E = spectrum_scan(op, k_grid=[0.3, -1.1])
        assert k.dtype == float and np.array_equal(k, [0.3, -1.1])
        assert E.shape == (2, 36)
        assert np.array_equal(E[1], quasi_energies(momentum_block(op, -1.1)))
