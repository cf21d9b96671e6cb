import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from dtqw.lattice import LatticeSpec, probability_map
from dtqw.operators import StepOperator2D, walk_matrix_dense
from dtqw.profiles import Constant, DomainWall
import dtqw.spectral
from dtqw.presets import run_preset
from dtqw.spectral import (ConvergenceError, UnitarityError, _canonical_basis,
                           _canonical_pairs, _quasi_energy, _resolve,
                           block_eigensystem, bulk_bands, bulk_gap_edge,
                           bulk_openings, commensurate_grid, momentum_block,
                           near_unity_states, quasi_energies, spectrum_scan,
                           states_in_openings, walk_matrix_sparse,
                           zero_mode_profiles)
from dtqw.symmetry import _phase_multiset_distance


def _eigvals_route(U):
    """The general eigensolver route the W kernel is checked against."""
    return _quasi_energy(np.linalg.eigvals(U))


def _eig_route(U):
    """(E, vectors) from the general eig, unsorted."""
    lam, V = np.linalg.eig(U)
    return _quasi_energy(lam), V


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

    @pytest.mark.parametrize("theta_y", [0.0, np.pi / 3])
    @pytest.mark.parametrize("k_y", [0.0, 0.4])
    def test_block_eigensystem_residual(self, theta_y, k_y):
        op = StepOperator2D(LatticeSpec(9),
                            DomainWall(np.pi / 3, -np.pi / 3, 3)
                            .with_noise(0.25, 5), Constant(theta_y))
        blk = momentum_block(op, k_y)
        E, V = block_eigensystem(blk)
        assert np.all(np.diff(E) >= 0)
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0,
                           atol=1e-14)
        resid = np.linalg.norm(blk @ V - V * np.exp(-1j * E), axis=0)
        assert np.max(resid) <= 1e-10
        assert _phase_multiset_distance(E, _eigvals_route(blk)) <= 1e-13

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
        with pytest.raises(UnitarityError, match="modulus drifts"):
            quasi_energies(1.001 * U)
        # a non-normal perturbation: W's eigenvectors no longer span
        # U-invariant subspaces
        N = np.zeros_like(U)
        N[0, -1] = 1e-6
        with pytest.raises(UnitarityError, match="eigenpair residual"):
            quasi_energies(U + N)


class TestZeroModeProfiles:
    """The canonical basis of the four k_y = 0 zero modes of a clean wall."""

    @staticmethod
    def _wall(L, L_wall):
        return StepOperator2D(LatticeSpec(L),
                              DomainWall(np.pi / 3, -np.pi / 3, L_wall),
                              Constant(0.0))

    @staticmethod
    def _canonical(op, solve):
        """(U, E, V): the k_y = 0 block and its four states nearest E = 0
        from `solve`, in the canonical basis."""
        U = momentum_block(op, 0.0)
        E, V = solve(U)
        idx = np.argsort(np.abs(E))[:4]
        return (U, *_canonical_basis(E[idx], V[:, idx],
                                     np.repeat(op.lattice.coords_x, 4)))

    @staticmethod
    def _profiles(V):
        return np.sum(np.abs(V.T.reshape(4, -1, 4)) ** 2, axis=2)

    def test_each_mode_sits_at_one_wall(self):
        op = self._wall(41, 10)
        E, P = zero_mode_profiles(op)
        xs = op.lattice.coords_x
        assert np.all(np.diff(E) >= 0) and np.max(np.abs(E)) < 1e-9
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-13)
        # one E group, so the rows run in <x> order: two per wall
        assert np.allclose(P @ xs, [-10.5, -10.5, 10.5, 10.5], atol=1e-9)
        side = np.maximum(P[:, xs < 0].sum(axis=1), P[:, xs > 0].sum(axis=1))
        assert np.min(side) >= 1.0 - 1e-10

    def test_basis_is_orthonormal_and_independent_of_the_solver(self):
        op = self._wall(41, 10)
        U, E, V = self._canonical(op, block_eigensystem)
        assert np.allclose(V.conj().T @ V, np.eye(4), rtol=0, atol=1e-13)
        assert np.max(np.linalg.norm(U @ V - V * np.exp(-1j * E),
                                     axis=0)) <= 1e-10
        _, P = zero_mode_profiles(op)
        assert np.max(np.abs(self._profiles(V) - P)) <= 1e-14
        # the general eig route, put through the same rotation
        _, _, V_eig = self._canonical(op, _eig_route)
        assert np.max(np.abs(self._profiles(V_eig) - P)) <= 1e-13

    def test_split_quartet_keeps_eigenstates(self):
        # at L = 21 tunnelling splits the quartet into two Kramers pairs
        # (|E| ~ 1e-6), so each row stays a true eigenstate
        op = self._wall(21, 5)
        U, E, V = self._canonical(op, block_eigensystem)
        assert np.min(np.abs(E)) > 1e-7
        assert E[1] - E[0] <= 1e-9 < E[2] - E[1]
        assert np.max(np.linalg.norm(U @ V - V * np.exp(-1j * E),
                                     axis=0)) <= 1e-12
        assert np.array_equal(zero_mode_profiles(op)[0], E)


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
    def test_count_near_n_matches_dense(self, spare):
        # spare = 0: the block holds all n columns and its first Ritz step
        # is exact; spare = 10: the kept levels span most of W's spectrum
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

    def test_pass_budget_exhaustion_raises_convergence_error(self,
                                                             monkeypatch):
        monkeypatch.setattr(dtqw.spectral, "_MAX_PASSES", 2)
        wall = DomainWall(np.pi / 3, -np.pi / 3, 2)
        op = StepOperator2D(LatticeSpec(9), wall, wall)
        with pytest.raises(ConvergenceError, match="after 2 passes") as info:
            near_unity_states(op, 8)
        assert np.isfinite(info.value.best_residual)
        assert info.value.best_residual > dtqw.spectral._W_RESIDUAL_TOL

    def test_block_grows_past_a_degenerate_level(self, monkeypatch):
        # on L = 9 the free walk's top W levels are 4- and 16-fold:
        # count = 5 cuts into the second, which a block of 5 + 8 columns
        # cannot hold, so the block grows by 16
        widths = []
        chebyshev_filter = dtqw.spectral._chebyshev_filter

        def counting_filter(W, X, *args):
            widths.append(X.shape[1])
            chebyshev_filter(W, X, *args)

        monkeypatch.setattr(dtqw.spectral, "_chebyshev_filter",
                            counting_filter)
        op = StepOperator2D(LatticeSpec(9), Constant(0.0), Constant(0.0))
        pairs = near_unity_states(op, 5)
        assert widths[0] == 13 and widths[-1] == 29
        assert max(p.residual for p in pairs) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort([abs(p.energy) for p in pairs]),
                           np.sort(np.abs(dense))[:5], atol=1e-12)

    def test_stalled_block_grows(self):
        # 84 of 196 states: the kept W levels run from 0.88 down to 0.128,
        # 0.007 above a 12-fold level that the 8-column pad cannot hold,
        # so passes stall until the block grows
        op = StepOperator2D(LatticeSpec(7), Constant(0.3), Constant(1.1))
        pairs = near_unity_states(op, 84)
        assert max(p.residual for p in pairs) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort([abs(p.energy) for p in pairs]),
                           np.sort(np.abs(dense))[:84], atol=1e-12)


def _double_wall(L, L_wall, seed=None):
    wx = wy = DomainWall(np.pi / 3, -np.pi / 3, L_wall)
    if seed is not None:
        wx, wy = wx.with_noise(0.25, seed), wy.with_noise(0.25, seed + 1)
    return StepOperator2D(LatticeSpec(L), wx, wy)


def _arpack_route(op, count):
    """near_unity_states' rows from ARPACK's top W pairs, cut at the same
    W gap and put through the same resolution and canonical basis."""
    U = walk_matrix_sparse(op)
    W = (U + U.T) * 0.5
    v0 = np.random.Generator(np.random.PCG64(1)).normal(size=W.shape[0])
    w, V = eigsh(W, k=count + 8, which="LA", v0=v0)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    j = count
    while w[j - 1] - w[j] <= dtqw.spectral._CLUSTER_GAP:
        j += 1
    E, X, _ = _resolve(U, w[:j], V[:, :j])
    return _canonical_pairs(U, E, X, op.lattice, count)


def _maps(pairs):
    return np.array([probability_map(p.state) for p in pairs])


class TestCornerBasis:
    """The corner states' canonical basis, checked against ARPACK."""

    # tolerances follow each case's conditioning: states of different E
    # groups come from eig inside one W cluster, fixed only to about
    # eps / (E spacing) on any route.  At L = 41 the octet splits into
    # pairs 1.9e-7 apart (maps 1.3e-9 and overlaps 5.5e-9 measured); the
    # noisy L = 17 octet has levels >= 1e-3 apart (1.8e-13 and 1.5e-12)
    @pytest.mark.parametrize("L, L_wall, seed, tol",
                             [(41, 10, None, 1e-8), (17, 4, 3, 1e-11)])
    def test_rows_match_the_arpack_route(self, L, L_wall, seed, tol):
        op = _double_wall(L, L_wall, seed)
        pairs, ref = near_unity_states(op, 8), _arpack_route(op, 8)
        E = np.array([p.energy for p in pairs])
        assert np.max(np.abs(E - [p.energy for p in ref])) <= 1e-13
        assert np.max(np.abs(_maps(pairs) - _maps(ref))) <= tol
        X = np.array([p.state.ravel() for p in pairs]).T
        assert np.allclose(X.conj().T @ X, np.eye(8), rtol=0, atol=tol)
        assert max(p.residual for p in pairs) <= 1e-12
        # |E| groups, the negative one of a +-E pair first
        assert np.all(np.diff(np.abs(E)) >= -1e-12)
        assert np.all(E[:-1][np.abs(E[:-1] + E[1:]) <= 1e-12] < 0)

    # at L = 91 the octet is one E group, which only the coin term of d
    # splits into single states
    @pytest.mark.parametrize("L, L_wall, seed", [(41, 10, None),
                                                 (17, 4, 3), (91, 22, None)])
    def test_rows_do_not_depend_on_the_basis_inside_a_group(self, L, L_wall,
                                                            seed):
        op = _double_wall(L, L_wall, seed)
        U = walk_matrix_sparse(op)
        w, V = dtqw.spectral._top_of_w((U + U.T) * 0.5, 8)
        E, X, _ = _resolve(U, w, V)
        order = np.argsort(E)[::-1]                # reversed column order
        E, X = E[order], X[:, order]
        mixed = X.copy()
        cuts = np.flatnonzero(np.diff(E) < -dtqw.spectral._RESIDUAL_TOL) + 1
        for i, g in enumerate(np.split(np.arange(len(E)), cuts)):
            mixed[:, g] = X[:, g] @ _haar_unitary(len(g), i)
        lat = op.lattice
        a = _canonical_pairs(U, E, X, lat, 8)
        b = _canonical_pairs(U, E, mixed, lat, 8)
        assert [p.energy for p in a] == [p.energy for p in b]
        assert np.max(np.abs(_maps(a) - _maps(b))) <= 1e-12
        # nor on roundoff in |E| between the two groups of a +-E pair
        for f in (1 - 1e-13, 1 + 1e-13):
            c = _canonical_pairs(U, np.where(E > 0, E * f, E), X, lat, 8)
            assert np.array_equal(np.sign([p.energy for p in c]),
                                  np.sign([p.energy for p in a]))
            assert np.max(np.abs(_maps(a) - _maps(c))) <= 1e-12

    def test_octet_rows_each_sit_at_one_corner(self):
        # at L = 91 the octet is one E group (spread 8e-11, below 1e-9), so
        # the d rotation puts each state at one crossing, in <d> order
        op = _double_wall(91, 22)
        pairs = near_unity_states(op, 8)
        P = _maps(pairs)
        x = op.lattice.coords_x
        sx, sy = np.sign(x)[:, None], np.sign(x)[None, :]
        corners = [(-1, -1), (-1, -1), (-1, 1), (-1, 1),
                   (1, -1), (1, -1), (1, 1), (1, 1)]
        for Pi, (cx, cy) in zip(P, corners):
            assert Pi[(sx == cx) & (sy == cy)].sum() >= 1.0 - 1e-6

    def test_corner_path_never_calls_arpack(self, tmp_path, monkeypatch):
        def no_arpack(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(dtqw.spectral, "eigsh", no_arpack)
        run_preset("fig6", {"L": "11", "theta_x": "wall:pi/3:-pi/3:3",
                            "theta_y": "wall:pi/3:-pi/3:3"},
                   outdir=str(tmp_path / "fig6"))


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
