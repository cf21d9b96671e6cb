import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from conftest import angles
from dtqw.lattice import LatticeSpec, probability_map
from dtqw.operators import StepOperator2D, walk_matrix_dense
import dtqw.spectral
from dtqw.presets import run_preset
from dtqw.spectral import (ConvergenceError, UnitarityError, _band_cosines,
                           _band_ranges, _block_terms, _canonical_pairs,
                           _quasi_energy, _span_eigenpairs, bulk_bands,
                           bulk_openings, commensurate_grid,
                           momentum_block, near_unity_states, quasi_energies,
                           spectrum_scan, states_in_openings,
                           walk_matrix_sparse, zero_mode_profiles)
from dtqw.symmetry import _phase_multiset_distance


def _eigvals_route(U):
    """The general eigensolver route the W kernel is checked against."""
    return _quasi_energy(np.linalg.eigvals(U))


def _eig_route(U):
    """(E, vectors) from the general eig, unsorted."""
    lam, V = np.linalg.eig(U)
    return _quasi_energy(lam), V


def _states_in_openings_loop(energies, openings, margin):
    """The per-energy loop that states_in_openings replaced, kept as its
    reference."""
    hits = []
    for e in np.asarray(energies, dtype=float):
        for lo, hi in openings:
            e_eff = e + 2.0 * np.pi if e < lo - np.pi else e
            if lo + margin < e_eff < hi - margin:
                hits.append(float(e))
                break
    return hits


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
        op = StepOperator2D(lat, angles("wall:pi/3:-pi/3:2", 7),
                            np.full(7, np.pi / 7))
        dense = quasi_energies(walk_matrix_dense(op))
        tiled = np.sort(np.concatenate(
            [quasi_energies(momentum_block(op, k))
             for k in commensurate_grid(7)]))
        assert np.allclose(dense, tiled, atol=1e-10)

    def test_eigenphases_are_in_half_open_interval(self):
        # lambda = -1 has angle +pi, so E = -pi; the wrap maps it to +pi
        assert np.array_equal(quasi_energies(-np.eye(2)),
                              [np.pi, np.pi])

    def test_blocks_conjugate_under_k_reflection(self):
        op = StepOperator2D(LatticeSpec(9),
                            angles("wall:pi/3:-pi/3:3+noise:0.25:4", 9),
                            np.full(9, np.pi / 3))
        for k in (0.3, 1.1, 2.9):
            assert np.array_equal(momentum_block(op, -k),
                                  momentum_block(op, k).conj())

    def test_noise_in_y_profile_rejected(self):
        # the block gate reads the theta_y table, not the profile's class:
        # a table of one value gives blocks, one of several is refused
        lat, wall = LatticeSpec(9), angles("wall:pi/3:-pi/3:3", 9)
        flat = [spectrum_scan(StepOperator2D(lat, wall, ty))[1]
                for ty in (np.full(9, 0.3), angles("wall:0.3:0.3:2", 9))]
        assert np.array_equal(*flat)
        for ty in (angles("constant:0.1+noise:0.05:1", 9),
                   angles("linear:0.05:2:0.1", 9)):
            op = StepOperator2D(lat, wall, ty)
            with pytest.raises(ValueError, match="y-independent"):
                momentum_block(op, 0.0)
            with pytest.raises(ValueError, match="y-independent"):
                spectrum_scan(op)
        # an all-NaN table is one value, and the unitarity guard refuses
        # it; the constructor refuses NaN, so it is written into the table
        op = StepOperator2D(lat, wall, np.zeros(9))
        op.theta_y[:] = np.nan
        with pytest.raises(UnitarityError, match="deviation nan"):
            spectrum_scan(op)


class TestBlockUnitarityGuard:
    """Non-unitary walk terms (A, B), injected through _dense_term, are
    rejected once per walk, before any block is solved."""

    @pytest.mark.parametrize("case", ["scaled", "rotated"])
    def test_non_unitary_terms_rejected(self, monkeypatch, case):
        dense_term = dtqw.spectral._dense_term
        rng = np.random.Generator(np.random.PCG64(2))
        R = np.linalg.qr(rng.normal(size=(36, 36)))[0]

        def fake(tx, ty, Y):
            if np.array_equal(Y, np.eye(4)):     # A, at (P, Q) = (1, 0)
                return dense_term(tx, ty, Y)
            if case == "scaled":
                return dense_term(tx, ty, Y) * (1 + 1e-6)
            # B = A R: A^T A = B^T B = 1, but A^T B = R is not symmetric
            return dense_term(tx, ty, np.eye(4)) @ R

        monkeypatch.setattr(dtqw.spectral, "_dense_term", fake)
        op = StepOperator2D(LatticeSpec(9), angles("wall:pi/3:-pi/3:3", 9),
                            np.full(9, np.pi / 3))
        with pytest.raises(UnitarityError, match="not unitary"):
            momentum_block(op, 0.4)
        with pytest.raises(UnitarityError, match="not unitary"):
            spectrum_scan(op)

    def test_nan_angle_rejected(self):
        # the constructor refuses NaN, so it is written into the table
        op = StepOperator2D(LatticeSpec(9), np.zeros(9), np.zeros(9))
        op.theta_x[:] = np.nan
        with pytest.raises(UnitarityError, match="deviation nan"):
            spectrum_scan(op)


class TestKernel:
    """quasi_energies (the W kernel) against the general eigvals route."""

    @pytest.mark.parametrize("theta_y, k_y", [
        (0.0, 0.0), (0.0, 0.7), (np.pi / 3, 0.0), (np.pi / 3, -2.3)])
    def test_noisy_wall_blocks_match_eigvals(self, theta_y, k_y):
        op = StepOperator2D(LatticeSpec(21),
                            angles("wall:pi/3:-pi/3:5+noise:0.25:7", 21),
                            np.full(21, theta_y))
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
        op = StepOperator2D(LatticeSpec(9), angles("wall:pi/3:-pi/3:3", 9),
                            np.full(9, np.pi / 3))
        U = momentum_block(op, 0.4)
        # a non-normal perturbation: W's eigenvectors no longer span
        # U-invariant subspaces
        N = np.zeros_like(U)
        N[0, -1] = 1e-6
        with pytest.raises(UnitarityError, match="modulus drifts"):
            quasi_energies(1.001 * U)
        with pytest.raises(UnitarityError, match="eigenpair residual"):
            quasi_energies(U + N)

    def test_nan_trips_the_eigenvalue_guards(self):
        with pytest.raises(UnitarityError, match="drifts from 1 by nan"):
            dtqw.spectral._quasi_energy(np.array([1.0, np.nan]))
        with pytest.raises(UnitarityError, match="residual nan"):
            dtqw.spectral._check_residuals(np.array([0.0, np.nan]))


class TestZeroModeProfiles:
    """The canonical basis of the four k_y = 0 states nearest E = 0."""

    @staticmethod
    def _wall(L, L_wall, theta_y=0.0, seed=None):
        wall = f"wall:pi/3:-pi/3:{L_wall}"
        if seed is not None:
            wall += f"+noise:0.25:{seed}"
        return StepOperator2D(LatticeSpec(L), angles(wall, L),
                              np.full(L, theta_y))

    @staticmethod
    def _canonical(op, route):
        """(A, E, V, resid): the real k_y = 0 block and its four states
        nearest E = 0 from a dense route, put through _canonical_pairs
        with the key d = x.  "eigh" takes the top eigenvectors of W =
        (A + A^T)/2 down to the first W gap past 4, resolved by
        _span_eigenpairs; "eig" takes the four eigenpairs of the general
        eig with the smallest |E|."""
        A = _block_terms(op)[0]
        if route == "eigh":
            w, V = np.linalg.eigh((A + A.T) * 0.5)
            w, V = w[::-1], V[:, ::-1]
            j = 4
            while w[j - 1] - w[j] <= dtqw.spectral._CLUSTER_GAP:
                j += 1
            E, V = _span_eigenpairs(A, V[:, :j])
        else:
            E, V = _eig_route(A)
            idx = np.argsort(np.abs(E))[:4]
            E, V = E[idx], V[:, idx]
        return (A, *_canonical_pairs(A, E, V,
                                     np.repeat(op.lattice.coords_x, 4), 4))

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
        A, E, V, resid = self._canonical(op, "eigh")
        assert np.allclose(V.conj().T @ V, np.eye(4), rtol=0, atol=1e-13)
        assert np.max(resid) <= 1e-10
        E_modes, P = zero_mode_profiles(op)
        assert np.max(np.abs(E_modes - E)) <= 1e-14
        assert np.max(np.abs(self._profiles(V) - P)) <= 1e-14
        # the general eig route, put through the same rotation
        _, _, V_eig, _ = self._canonical(op, "eig")
        assert np.max(np.abs(self._profiles(V_eig) - P)) <= 1e-13

    def test_split_quartet_keeps_eigenstates(self):
        # at L = 21 tunnelling splits the quartet into two Kramers pairs
        # (|E| ~ 1e-6), so each row stays a true eigenstate.  Inside a pair
        # both states have the same <x>, which leaves their profiles
        # ill-conditioned (1e-10 apart between routes): only E and the
        # residuals are compared
        op = self._wall(21, 5)
        E, _ = zero_mode_profiles(op)
        assert np.min(np.abs(E)) > 1e-7
        assert E[1] - E[0] <= 1e-9 < E[2] - E[1]
        for route in ("eigh", "eig"):
            _, E_ref, _, resid = self._canonical(op, route)
            assert np.max(np.abs(E - E_ref)) <= 1e-14
            assert np.max(resid) <= 1e-12

    @pytest.mark.parametrize("theta_y", [np.pi / 50, np.pi / 6])
    def test_noisy_wall_with_transverse_coin(self, theta_y):
        # theta_y != 0 moves the four states off E = 0 to two +-E pairs of
        # single states, one pair at each wall: the rows run by |E| group,
        # the negative one of each pair first
        op = self._wall(41, 10, theta_y, seed=3)
        E, P = zero_mode_profiles(op)
        assert np.all(E[::2] < 0) and np.array_equal(E[1::2], -E[::2])
        assert np.abs(E[0]) < np.abs(E[2])
        assert np.all(np.abs(P @ op.lattice.coords_x) > 10.0)
        _, E_eig, V_eig, resid = self._canonical(op, "eig")
        assert np.max(np.abs(E - E_eig)) <= 1e-14
        assert np.max(resid) <= 1e-12
        assert np.max(np.abs(self._profiles(V_eig) - P)) <= 1e-14


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
        op = StepOperator2D(LatticeSpec(L), np.full(L, tx), np.full(L, ty))
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

    def test_closed_form_matches_eigvals(self):
        # 100 random coin pairs at 20 random momenta each
        rng = np.random.Generator(np.random.PCG64(11))
        worst = 0.0
        for tx, ty in rng.uniform(-np.pi, np.pi, size=(100, 2)):
            kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 20))
            cos_E = np.sort(np.cos(bulk_bands(tx, ty, kx, ky)), axis=1)
            c_1, c_2 = _band_cosines(tx, ty, kx, ky)
            worst = max(worst, np.max(np.abs(
                cos_E - np.column_stack((c_1, c_1, c_2, c_2)))))
        assert worst <= 1e-13

    def test_criterion_09_gap_at_half_pi(self):
        # the gap c09 asserts to be closed: 2 arccos(sqrt(15)/4) on both
        # routes, so its failure is the walk's and not a solver's
        def spacing(E):
            E = np.sort(E)
            return min(np.min(np.diff(E)), 2 * np.pi - (E[-1] - E[0]))

        t = np.pi / 3
        E_closed = np.arccos(_band_cosines(t, t, np.pi / 2, np.pi / 2))
        gap = 2 * np.arccos(np.sqrt(15) / 4)
        assert gap == pytest.approx(0.50536, abs=1e-5)
        for E in (bulk_bands(t, t, np.pi / 2, np.pi / 2),
                  np.concatenate((E_closed, -E_closed))):
            assert abs(spacing(E) - gap) <= 1e-12

    def test_gap_edge_formula(self):
        # at theta_y = 0 the top of c_+ over k_x, which sets the bulk gap
        # edge, is hypot(cos theta cos k_y, sin theta sin k_y); k_y = 0 and
        # +-pi take the beta = 0 and near-zero branches
        ky = np.concatenate((commensurate_grid(101), [np.pi, -np.pi]))
        for theta in (np.pi / 3, -np.pi / 3, 0.2, 1.3):
            top = _band_ranges(theta, 0.0, ky)[1][1]
            assert top.shape == ky.shape
            hypot = np.hypot(np.cos(theta) * np.cos(ky),
                             np.sin(theta) * np.sin(ky))
            assert np.max(np.abs(top - hypot)) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(*[st.floats(-np.pi, np.pi, allow_nan=False)] * 3)
    def test_ranges_match_dense_eigvals_sampling(self, theta_x, theta_y, k_y):
        # U^dag dU/dk_x = C_x^T (-i diag SHIFT_X_STEPS) C_x has norm 1, so
        # each band's cos E moves by at most |dk_x|: every band value lies
        # within h/2 of a sample on a k_x grid of spacing h.  The grid
        # holds k_x = 0 and +-pi, where sqrt(beta sin^2 k_x + gamma) has a
        # kink as gamma -> 0
        n = 4000
        h = 2.0 * np.pi / n
        kx = np.linspace(-np.pi, np.pi, n + 1)
        cos_E = np.sort(np.cos(bulk_bands(theta_x, theta_y, kx, k_y)),
                        axis=1)[:, ::2]                 # (c_1, c_2) rows
        lo, hi = _band_ranges(theta_x, theta_y, k_y)
        tol = 1e-13
        assert np.all(cos_E.min(axis=0) >= lo - tol)
        assert np.all(cos_E.max(axis=0) <= hi + tol)
        assert np.all(cos_E.min(axis=0) <= lo + h / 2 + tol)
        assert np.all(cos_E.max(axis=0) >= hi - h / 2 - tol)


class TestOpenings:
    def test_openings_bracket_zero_and_pi(self):
        ops = bulk_openings((np.pi / 3, -np.pi / 3), np.pi / 3, 0.0)
        assert len(ops) == 2
        zero_open = [o for o in ops if o[0] < 0.0 < o[1]]
        pi_open = [o for o in ops if o[0] < np.pi < o[1]]
        assert len(zero_open) == 1 and len(pi_open) == 1

    @pytest.mark.parametrize("theta_y", [np.pi / 50, np.pi / 6,
                                         np.pi / 4, np.pi / 3])
    @pytest.mark.parametrize("L", [61, 101])
    def test_closed_form_openings_match_eigvals(self, theta_y, L):
        # the preset grids at every 6th k_y, against both media's bulk_bands
        # on 2001 k_x points of spacing h.  Every band value lies within
        # h/2 of a sample (see test_ranges_match_dense_eigvals_sampling), so
        # each sampled gap wider than h holds one opening, whose edges lie
        # within h/2 of the samples that bound it; the exact openings are
        # all wider than h, so the two lists pair up one to one
        n = 2000
        h = 2.0 * np.pi / n
        kx = np.linspace(-np.pi, np.pi, n + 1)
        k_y = commensurate_grid(L)[::6]
        media = (np.pi / 3, -np.pi / 3)
        bands = np.concatenate(                  # (2 (n + 1), len(k_y), 4)
            [bulk_bands(tx, theta_y, kx[:, None], k_y[None, :])
             for tx in media])
        for j, ky in enumerate(k_y):
            pts = np.sort(bands[:, j].ravel())
            ref = [(pts[i], pts[i + 1])
                   for i in np.flatnonzero(np.diff(pts) > h)]
            if 2.0 * np.pi - (pts[-1] - pts[0]) > h:
                ref.append((pts[-1], pts[0] + 2.0 * np.pi))
            ops = bulk_openings(media, theta_y, ky)
            assert len(ops) == len(ref) >= 1
            assert min(hi - lo for lo, hi in ops) > h
            gap = np.subtract(ref, ops)          # sampled minus exact
            assert np.all(gap[:, 0] <= 1e-12) and np.all(gap[:, 1] >= -1e-12)
            assert np.max(np.abs(gap)) <= h / 2 + 1e-12

    def test_fig2b_grid_keeps_the_narrow_openings(self):
        # fig2b's grid (theta_y = pi/50, L = 101) at k_y = -2 pi 26/101 has
        # two openings 0.062 wide near E = +-pi/2, besides those at E = 0
        # and pi; a 241-point k_x sampling that kept only gaps wider than
        # 0.130 reported 2 openings here.  20,001 samples of bulk_bands
        # (spacing h) stay out of all four and come within h/2 of each edge
        media, theta_y = (np.pi / 3, -np.pi / 3), np.pi / 50
        ky = commensurate_grid(101)[50 - 26]
        ops = bulk_openings(media, theta_y, ky)
        assert len(ops) == 4
        assert ops[0] == pytest.approx((-1.6018, -1.5397), abs=1e-4)
        assert ops[2] == pytest.approx((1.5397, 1.6018), abs=1e-4)
        n = 20000
        h = 2.0 * np.pi / n
        pts = np.concatenate([bulk_bands(tx, theta_y, np.linspace(
            -np.pi, np.pi, n + 1), ky).ravel() for tx in media])
        for lo, hi in ops:
            offset = np.mod(pts - lo, 2.0 * np.pi)   # 0 at lo, cyclically
            assert not np.any((offset > 1e-12) & (offset < hi - lo - 1e-12))
            near = np.minimum(offset, 2.0 * np.pi - offset)
            assert np.min(near) <= h / 2 + 1e-12
            assert np.min(np.abs(offset - (hi - lo))) <= h / 2 + 1e-12

    @pytest.mark.parametrize("ky", [0.0, 1.0, np.pi / 2])
    def test_opening_edges_match_gap_formula(self, ky):
        # the E ~ 0 opening of the +-theta media at theta_y = 0 is the
        # projected bulk gap, +-arccos hypot(cos theta cos k_y,
        # sin theta sin k_y)
        ops = bulk_openings((np.pi / 3, -np.pi / 3), 0.0, ky)
        zero_open = [o for o in ops if o[0] < 0.0 < o[1]]
        assert len(zero_open) == 1
        edge = np.arccos(np.hypot(np.cos(np.pi / 3) * np.cos(ky),
                                  np.sin(np.pi / 3) * np.sin(ky)))
        assert np.max(np.abs(np.subtract(zero_open[0], (-edge, edge)))
                      ) <= 1e-12

    def test_touching_bands_open_no_roundoff_gap(self):
        # float angles leave touching bands apart by roundoff: at
        # theta_y = pi/2, cos theta_y = 6e-17 splits two bands at
        # E = +-pi/2 by 2.2e-16 in cos E, and at theta_x = theta_y = pi/2
        # the top and bottom bands stop at cos E = +-(1 - eps), which
        # arccos turns into gaps 3e-8 wide at E = 0 and pi
        ops = bulk_openings((np.pi / 4, -np.pi / 4), np.pi / 2, np.pi)
        assert len(ops) == 2 and np.allclose(
            ops, [(-np.pi / 4, np.pi / 4), (3 * np.pi / 4, 5 * np.pi / 4)],
            rtol=0, atol=1e-15)
        ops = bulk_openings((np.pi / 2, -np.pi / 2), np.pi / 2,
                            commensurate_grid(101)[99])
        assert len(ops) == 2 and np.allclose(
            ops, [(-1.66411, -1.47748), (1.47748, 1.66411)], rtol=0,
            atol=1e-5)
        # the true openings over multiples of pi/4 are >= 0.02 wide
        angles = np.pi / 4 * np.arange(-4, 5)
        k_y = np.concatenate((commensurate_grid(101), [np.pi, -np.pi]))
        widths = [hi - lo for tx in angles for ty in angles for ky in k_y
                  for lo, hi in bulk_openings((tx, -tx), ty, ky)]
        assert min(widths) > 0.02

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.sampled_from([0.0, 0.01]),
           *[st.floats(-np.pi, np.pi)] * 4)
    def test_states_in_openings_matches_the_loop(self, data, margin, t1, t2,
                                                 theta_y, k_y):
        angle = st.floats(-np.pi, np.pi, exclude_min=True)
        openings = bulk_openings((t1, t2), theta_y, k_y)
        start = data.draw(st.floats(np.pi / 2, np.pi))
        openings.append((start,
                         start + data.draw(st.floats(0.0, 1.9 * np.pi))))
        # exact edges, edges +-margin and the wrap points lo - pi, folded
        # into (-pi, pi], and +-pi
        edges = [e + d for lo, hi in openings for e in (lo, hi, lo - np.pi)
                 for d in (0.0, margin, -margin)]
        edges = [e - 2.0 * np.pi if e > np.pi else
                 e + 2.0 * np.pi if e <= -np.pi else e for e in edges]
        energies = data.draw(st.permutations(
            edges + [np.pi, -np.pi] + data.draw(st.lists(angle,
                                                         max_size=20))))
        assert (states_in_openings(energies, openings, margin).tolist()
                == _states_in_openings_loop(energies, openings, margin))

    def test_states_in_openings_wraps(self):
        openings = [(-0.5, 0.5), (2.9, 3.5)]   # second straddles +pi
        hits = states_in_openings([0.0, 0.4, 1.0, 3.0, -3.2], openings)
        # -3.2 + 2pi = 3.083 sits inside the wrapped opening
        assert sorted(hits) == pytest.approx([-3.2, 0.0, 0.4, 3.0])


class TestNearUnityStates:
    def test_dual_route_against_plane_waves(self):
        # uniform trivial coin: smallest |E| from the eigensolver must match
        # the plane-wave minimum on the commensurate grid
        L, theta = 15, np.pi / 3
        op = StepOperator2D(LatticeSpec(L), np.full(L, theta),
                            np.full(L, theta))
        E, _, resid = near_unity_states(op, 4)
        grid = commensurate_grid(L)
        best = min(np.min(np.abs(bulk_bands(theta, theta, kx, ky)))
                   for kx in grid for ky in grid)
        assert abs(E[0]) == pytest.approx(best, abs=1e-8)
        assert np.max(resid) < 1e-8

    @pytest.mark.parametrize("spare", [0, 10])
    def test_count_near_n_matches_dense(self, spare):
        # spare = 0: the block holds all n columns and its first Ritz step
        # is exact; spare = 10: the kept levels span most of W's spectrum
        op = StepOperator2D(LatticeSpec(3), angles("wall:pi/3:-pi/3:0", 3),
                            np.full(3, np.pi / 5))
        count = op.lattice.size - spare
        E, states, resid = near_unity_states(op, count)
        assert len(E) == len(states) == count
        assert np.max(resid) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort(np.abs(E)),
                           np.sort(np.abs(dense))[:count], atol=1e-12)

    def test_degenerate_multiplet_not_truncated(self):
        # the requested count cuts into a degenerate multiplet; all returned
        # energies must still be genuine eigenphases (residual-checked)
        op = StepOperator2D(LatticeSpec(9), np.full(9, np.pi / 3),
                            np.full(9, np.pi / 3))
        E, states, resid = near_unity_states(op, 3)
        assert len(E) == len(states) == 3
        assert np.max(resid) < 1e-9

    def test_pass_budget_exhaustion_raises_convergence_error(self,
                                                             monkeypatch):
        monkeypatch.setattr(dtqw.spectral, "_MAX_PASSES", 2)
        wall = angles("wall:pi/3:-pi/3:2", 9)
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
        op = StepOperator2D(LatticeSpec(9), np.zeros(9), np.zeros(9))
        E, _, resid = near_unity_states(op, 5)
        assert widths[0] == 13 and widths[-1] == 29
        assert np.max(resid) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort(np.abs(E)),
                           np.sort(np.abs(dense))[:5], atol=1e-12)

    def test_stalled_block_grows(self):
        # 84 of 196 states: the kept W levels run from 0.88 down to 0.128,
        # 0.007 above a 12-fold level that the 8-column pad cannot hold,
        # so passes stall until the block grows
        op = StepOperator2D(LatticeSpec(7), np.full(7, 0.3), np.full(7, 1.1))
        E, _, resid = near_unity_states(op, 84)
        assert np.max(resid) <= 1e-12
        dense = quasi_energies(walk_matrix_dense(op))
        assert np.allclose(np.sort(np.abs(E)),
                           np.sort(np.abs(dense))[:84], atol=1e-12)


def _double_wall(L, L_wall, seed=None):
    wx = wy = f"wall:pi/3:-pi/3:{L_wall}"
    if seed is not None:
        wx, wy = wx + f"+noise:0.25:{seed}", wy + f"+noise:0.25:{seed + 1}"
    return StepOperator2D(LatticeSpec(L), angles(wx, L), angles(wy, L))


def _corner_key(lattice):
    """The key d = x + y/sqrt(2) + [c = 0] of the corner states' basis."""
    x, y = np.meshgrid(lattice.coords_x, lattice.coords_y, indexing="ij")
    return (x[..., None] + y[..., None] / np.sqrt(2.0)
            + (np.arange(4) == 0)).ravel()


def _canonical_states(U, E, X, lattice, count):
    """_canonical_pairs with the corner key, states shaped like
    near_unity_states'."""
    E, X, resid = _canonical_pairs(U, E, X, _corner_key(lattice), count)
    return E, X.T.reshape((count,) + lattice.shape), resid


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
    return _canonical_states(U, *_span_eigenpairs(U, V[:, :j]), op.lattice,
                             count)


class TestCornerBasis:
    """The corner states' canonical basis, checked against ARPACK."""

    # tolerances follow each case's conditioning: states of different E
    # groups come from one eig over the kept W span, fixed only to about
    # eps / (E spacing) on any route.  At L = 41 the octet splits into
    # pairs 1.9e-7 apart (maps 1.7e-9 measured); the noisy L = 17 octet
    # has levels >= 1e-3 apart (1.8e-13).  The noisy L = 15 octet spans
    # two W clusters 1.2e-5 apart, so only a resolution over the whole
    # span meets 1e-12 (9.5e-13; one eig per cluster gives maps 1.4e-12
    # apart).  The overlaps need no such allowance: _canonical_pairs
    # orthonormalizes the whole E-sorted span with one QR, which leaves
    # them at rounding (6.7e-16 at most; one QR per group left 8.3e-9 at
    # L = 41)
    @pytest.mark.parametrize("L, L_wall, seed, tol",
                             [(41, 10, None, 1e-8), (17, 4, 3, 1e-11),
                              (15, 4, 1, 1e-12)])
    def test_rows_match_the_arpack_route(self, L, L_wall, seed, tol):
        op = _double_wall(L, L_wall, seed)
        E, states, resid = near_unity_states(op, 8)
        E_ref, states_ref, _ = _arpack_route(op, 8)
        assert np.max(np.abs(E - E_ref)) <= 1e-13
        assert np.max(np.abs(probability_map(states)
                             - probability_map(states_ref))) <= tol
        X = states.reshape(8, -1).T
        assert np.allclose(X.conj().T @ X, np.eye(8), rtol=0, atol=tol)
        assert np.max(np.abs(X.conj().T @ X - np.eye(8))) <= 1e-13
        assert np.max(resid) <= 1e-12
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
        E, X = _span_eigenpairs(U, dtqw.spectral._top_of_w((U + U.T) * 0.5,
                                                           8))
        order = np.argsort(E)[::-1]                # reversed column order
        E, X = E[order], X[:, order]
        mixed = X.copy()
        cuts = np.flatnonzero(np.diff(E) < -dtqw.spectral._RESIDUAL_TOL) + 1
        for i, g in enumerate(np.split(np.arange(len(E)), cuts)):
            mixed[:, g] = X[:, g] @ _haar_unitary(len(g), i)
        lat = op.lattice
        E_a, a, _ = _canonical_states(U, E, X, lat, 8)
        E_b, b, _ = _canonical_states(U, E, mixed, lat, 8)
        assert np.array_equal(E_a, E_b)
        assert np.max(np.abs(probability_map(a) - probability_map(b))) <= 1e-12
        # nor on roundoff in |E| between the two groups of a +-E pair
        for f in (1 - 1e-13, 1 + 1e-13):
            E_c, c, _ = _canonical_states(U, np.where(E > 0, E * f, E), X,
                                          lat, 8)
            assert np.array_equal(np.sign(E_c), np.sign(E_a))
            assert np.max(np.abs(probability_map(a)
                                 - probability_map(c))) <= 1e-12

    def test_shapes_on_a_non_square_lattice(self):
        # L_x != L_y, so a reshape that swaps the axes breaks the shapes
        # or the residuals recomputed from the returned states
        wall = "wall:pi/3:-pi/3:3"
        op = StepOperator2D(LatticeSpec(13, 17), angles(wall, 13),
                            angles(wall, 17))
        E, states, resid = near_unity_states(op, 8)
        assert E.shape == (8,) and resid.shape == (8,)
        assert states.shape == (8, 13, 17, 4)
        U = walk_matrix_sparse(op)
        for e, psi in zip(E, states.reshape(8, -1)):
            assert np.linalg.norm(U @ psi - np.exp(-1j * e) * psi) <= 1e-12

    def test_octet_rows_each_sit_at_one_corner(self):
        # at L = 91 the octet is one E group (spread 8e-11, below 1e-9), so
        # the d rotation puts each state at one crossing, in <d> order
        op = _double_wall(91, 22)
        P = probability_map(near_unity_states(op, 8)[1])
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
        return StepOperator2D(LatticeSpec(9), angles("wall:pi/3:-pi/3:3", 9),
                              np.zeros(9))

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
                            angles("wall:pi/3:-pi/3:3+noise:0.25:5", 11),
                            np.full(11, np.pi / 3))
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

    def test_enclosed_pass_never_calls_bulk_bands(self, tmp_path,
                                                  monkeypatch):
        # a fig7c pass on a noisy wall: one eigensolve per +-k_y pair, and
        # the openings at every k_y from the closed form alone
        calls = []
        kernel = dtqw.spectral.quasi_energies

        def counting(U):
            calls.append(U.shape)
            return kernel(U)

        def no_bulk_bands(*args):
            raise AssertionError("bulk_bands called")

        monkeypatch.setattr(dtqw.spectral, "quasi_energies", counting)
        monkeypatch.setattr(dtqw.spectral, "bulk_bands", no_bulk_bands)
        run_preset("fig7c", {"L": "11",
                             "theta_x": "wall:pi/3:-pi/3:3+noise:0.25:1"},
                   outdir=str(tmp_path / "fig7c"))
        assert len(calls) == 6
        assert (tmp_path / "fig7c" / "enclosed.csv").exists()

    def test_zero_energies_are_positive_zero(self):
        # at L = 61 the clean wall's k_y = 0 zero modes come out exactly 0;
        # the solved row and its mirror (the second k_y = 0 of the grid)
        # write them as 0, not -0
        op = StepOperator2D(LatticeSpec(61), angles("wall:pi/3:-pi/3:15", 61),
                            np.zeros(61))
        E_modes = zero_mode_profiles(op)[0]
        _, E = spectrum_scan(op, k_grid=[0.0, 0.0])
        for values in (E_modes, E[0], E[1]):
            zeros = values[values == 0.0]
            assert len(zeros) == 4 and not np.any(np.signbit(zeros))

    def test_explicit_grid_keeps_its_order(self, op):
        k, E = spectrum_scan(op, k_grid=[0.3, -1.1])
        assert k.dtype == float and np.array_equal(k, [0.3, -1.1])
        assert E.shape == (2, 36)
        assert np.array_equal(E[1], quasi_energies(momentum_block(op, -1.1)))
