"""Quasi-energy spectra, bulk bands, and near-unit-eigenvalue searches.

With a y-independent coin angle the walk block-diagonalizes over the y
momentum: replacing the S_y half-shift combinations P -> cos(k_y),
Q -> i sin(k_y) turns the step operator into a 4*L_x x 4*L_x unitary
U(k_y) = cos(k_y) A + i sin(k_y) B, with A and B the real blocks at
(P, Q) = (1, 0) and (0, 1), whose eigenphases are the quasi-energies E in
(-pi, pi] (eigenvalue = exp(-iE)).  Since A and B are real,
U(-k_y) = conj U(k_y) and the spectrum at -k_y is the negated spectrum at
k_y, so a scan solves one block of each +-k_y pair and mirrors the other.

Every eigenphase solve goes through the Hermitian surrogate
W = (U + U^dag)/2, which commutes with U and has eigenvalues cos(E).
The split-step walk carries an antiunitary symmetry that squares to -1
(Kitagawa, Rudner, Berg and Demler, Phys. Rev. A 82, 033429, 2010), so the
eigenvalues of W come in degenerate pairs; U restricted to each cluster
of W eigenvectors (cut at W steps above 1e-5) resolves the E signs.
Spectra, block eigenvectors and the corner-state search share that one
resolution.  The search feeds it the top of the 2D lattice's W, real
symmetric since the walk matrix is real, whose largest eigenvalues cos(E)
mark the quasi-energies nearest zero; a Chebyshev-filtered block
iteration finds them, and each degenerate group of the states is rotated
to a canonical basis that does not depend on the solver.  The numerical
guards raise RuntimeError subclasses: UnitarityError, and ConvergenceError
when the block iteration runs out of passes.
"""

import numpy as np
from scipy import sparse
# unused here: bench/tracer.py still wraps dtqw.spectral.eigsh by name
from scipy.sparse.linalg import eigsh  # noqa: F401

from .operators import (COIN_GENERATORS, SHIFT_X_STEPS, SHIFT_Y_Q_CELL,
                        coin_matrix)
from .profiles import Constant


class ConvergenceError(RuntimeError):
    """An iterative eigensolve ran out of budget; carries the best residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class UnitarityError(RuntimeError):
    """A non-unitary momentum block, an eigenvalue modulus off 1, or an
    eigenpair residual above _RESIDUAL_TOL."""


def _require_block_structure(op):
    if not isinstance(op.profile_y, Constant) or op.profile_y.noise_amplitude:
        raise ValueError(
            "momentum blocks need a y-independent walk: profile_y must be a "
            f"plain Constant, got {op.profile_y.to_spec_string()!r}")


def _block_terms(op):
    """The real dense pair (A, B) with U(k_y) = cos(k_y) A + i sin(k_y) B.

    A and B are the walk on a one-site y axis with the half-shift pair
    (P, Q) = (1, 0) and (0, 1); U is linear in (P, Q).
    """
    _require_block_structure(op)
    tx = op.profile_x.table(op.lattice.half_x)
    ty = [op.profile_y.theta]
    one, zero = sparse.csr_matrix([[1.0]]), sparse.csr_matrix((1, 1))
    return (_assemble(tx, ty, one, zero).toarray(),
            _assemble(tx, ty, zero, one).toarray())


def _combine(terms, k_y):
    # complex even at k_y = 0: a real block would take LAPACK's real
    # routines and move the printed k_y = 0 spectra
    A, B = terms
    U = np.cos(k_y) * A + 1j * np.sin(k_y) * B
    dev = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if dev > 1e-12:
        raise UnitarityError(f"momentum block is not unitary "
                             f"(max deviation {dev:.3g})")
    return U


def momentum_block(op, k_y):
    """The dense 4*L_x x 4*L_x unitary U(k_y) = S_y(k_y) C_y S_x C_x.

    Index layout: 4*(x + half_x) + c.  Requires y-translation invariance
    (constant noiseless theta_y); theta_x may be any profile including
    noise.  Built as cos(k_y) A + i sin(k_y) B from the k-independent real
    terms, so U(-k_y) = conj U(k_y) exactly; raises if the block is not
    unitary.
    """
    return _combine(_block_terms(op), k_y)


def _wrap_pi(E):
    """Read E = -pi as +pi (in place), so quasi-energies lie in (-pi, pi]."""
    E[E == -np.pi] = np.pi
    return E


def _quasi_energy(lam):
    """E = -arg(lam) in (-pi, pi] for eigenvalues lam = exp(-iE).

    Raises if any |lam| drifts from 1 by more than 1e-10: the matrix (or
    subspace) they came from was not unitary enough for eigenphases.
    """
    drift = np.max(np.abs(np.abs(lam) - 1.0))
    if drift > 1e-10:
        raise UnitarityError(f"eigenvalue modulus drifts from 1 by "
                             f"{drift:.3g}; matrix is not unitary enough")
    return _wrap_pi(-np.angle(lam))


# W eigenvalues closer than this are one cluster; the cut keeps each
# cluster's W eigenvectors a U-invariant subspace to ~1e-11 (see the
# residual guard); clusters have 2-4 members on walls, 8 at wall corners
_CLUSTER_GAP = 1e-5
_RESIDUAL_TOL = 1e-9


def _resolve(U, w, V):
    """Eigenpairs of U on the span of W eigenpairs (w sorted either way).

    Cuts w into clusters wherever it steps by more than _CLUSTER_GAP and
    diagonalizes V_c^dag U V_c inside each cluster, batched over clusters
    of equal size; W commutes with U, so each cluster spans a U-invariant
    subspace.  Returns (E, X, resid) in the order of w: quasi-energies,
    unit eigenvectors as columns and residuals ||U x - e^{-iE} x||.
    Raises UnitarityError if a residual exceeds _RESIDUAL_TOL or an
    eigenvalue modulus drifts from 1 (U not unitary enough).
    """
    n = len(w)
    starts = np.flatnonzero(abs(np.diff(w, prepend=-np.inf)) > _CLUSTER_GAP)
    sizes = np.diff(starts, append=n)
    UV = U @ V
    lam = np.empty(n, dtype=complex)
    X = np.empty((V.shape[0], n), dtype=complex)
    resid = np.empty(n)
    for m in np.unique(sizes):
        idx = starts[sizes == m][:, None] + np.arange(m)   # (clusters, m)
        Vc = np.moveaxis(V[:, idx], 1, 0)                  # (clusters, n, m)
        UVc = np.moveaxis(UV[:, idx], 1, 0)
        mu, C = np.linalg.eig(Vc.conj().swapaxes(1, 2) @ UVc)
        Xc = Vc @ C
        norm = np.linalg.norm(Xc, axis=1)
        resid[idx] = np.linalg.norm(UVc @ C - Xc * mu[:, None, :],
                                    axis=1) / norm
        X[:, idx] = np.moveaxis(Xc / norm[:, None, :], 0, 1)
        lam[idx] = mu
    worst = float(np.max(resid))
    if worst > _RESIDUAL_TOL:
        raise UnitarityError(f"eigenpair residual {worst:.3g} exceeds "
                             f"{_RESIDUAL_TOL:g}; matrix is not unitary "
                             "enough")
    return _quasi_energy(lam), X, resid


def block_eigensystem(U):
    """(E, unit vectors as columns) of one unitary matrix, sorted by E.

    eigh of W = (U + U^dag)/2, then _resolve; exact for any unitary
    matrix.  Raises UnitarityError on an eigenpair residual above 1e-9 or
    an eigenvalue modulus that drifts from 1.
    """
    U = np.asarray(U)
    E, X, _ = _resolve(U, *np.linalg.eigh((U + U.conj().T) * 0.5))
    order = np.argsort(E)
    return E[order], X[:, order]


def quasi_energies(U):
    """Quasi-energies E in (-pi, pi] of one unitary matrix, sorted
    ascending: the E of block_eigensystem."""
    return block_eigensystem(U)[0]


def commensurate_grid(L_y):
    """The lattice-commensurate grid k_y = 2 pi n / L_y, n = -floor(L/2)..floor(L/2)."""
    half = L_y // 2
    return 2.0 * np.pi * np.arange(-half, half + 1) / L_y


def spectrum_scan(op, k_grid=None):
    """Quasi-energies of every momentum block over a k_y grid.

    The grid defaults to the commensurate one.  Returns (k, E): k has
    shape (n_k,) and E shape (n_k, 4*L_x), row i holding the sorted
    quasi-energies of the block at k[i].  A row whose -k[i] is exactly an
    earlier solved grid point is that point's row negated (E = -pi read as
    +pi) and re-sorted, since U(-k_y) = conj U(k_y); every other row is
    solved.
    """
    k = np.asarray(commensurate_grid(op.lattice.L_y) if k_grid is None
                   else k_grid, dtype=float)
    terms = _block_terms(op)
    E = np.empty((len(k), terms[0].shape[0]))
    solved = {}
    for i, k_y in enumerate(k):
        j = solved.get(-k_y)
        if j is None:
            E[i] = quasi_energies(_combine(terms, k_y))
            solved.setdefault(k_y, i)
        else:
            E[i] = np.sort(_wrap_pi(-E[j]))
    return k, E


def _canonical_basis(E, V, x):
    """A basis of the eigenstates (E, V) that does not depend on LAPACK.

    Sorts the states by E and groups them wherever E steps by more than
    _RESIDUAL_TOL; each group is orthonormalized and rotated to the basis
    that diagonalizes the position x (one value per vector component), so
    degenerate states localized at different walls separate.  Returns
    (E, V) ordered by group, then by <x>.
    """
    order = np.argsort(E, kind="stable")
    E, V = E[order], V[:, order]
    groups = np.split(np.arange(len(E)),
                      np.flatnonzero(np.diff(E) > _RESIDUAL_TOL) + 1)
    for g in groups:
        Q = np.linalg.qr(V[:, g])[0]
        V[:, g] = Q @ np.linalg.eigh(Q.conj().T @ (x[:, None] * Q))[1]
    return E, V


def zero_mode_profiles(op):
    """The four k_y = 0 eigenstates nearest E = 0 and their site profiles.

    The states are taken in the canonical basis of _canonical_basis, so
    each degenerate zero mode sits at one wall.  Returns (E, P): E the
    four quasi-energies in ascending order, P of shape (4, L_x) with
    P[i, x] = sum_c |psi_i(x, c)|^2 (each row sums to 1), rows ordered by
    E group, then by <x>.
    """
    E, V = block_eigensystem(momentum_block(op, 0.0))
    idx = np.argsort(np.abs(E))[:4]
    E, V = _canonical_basis(E[idx], V[:, idx],
                            np.repeat(op.lattice.coords_x, 4))
    return E, np.sum(np.abs(V.T.reshape(4, -1, 4)) ** 2, axis=2)


def bulk_bands(theta_x, theta_y, k_x, k_y):
    """The four quasi-energies of the uniform walk at (k_x, k_y).

    Eigenphases of the 4x4 unitary S_y(k_y) C_y S_x(k_x) C_x with
    S_x(k_x) = diag(exp(-i k_x SHIFT_X_STEPS)) (the L components pick up
    +k_x since they move toward -x) and S_y(k_y) = cos(k_y) 1
    + i sin(k_y) SHIFT_Y_Q_CELL.  k_x and k_y may be arrays; they are
    broadcast together and the result has shape (..., 4), sorted along
    the last axis.
    """
    k_x, k_y = np.broadcast_arrays(np.asarray(k_x, dtype=float),
                                   np.asarray(k_y, dtype=float))
    s_x = np.zeros(k_x.shape + (4, 4), dtype=complex)
    idx = np.arange(4)
    s_x[..., idx, idx] = np.exp(-1j * k_x[..., None] * SHIFT_X_STEPS)
    s_y = (np.cos(k_y)[..., None, None] * np.eye(4)
           + 1j * np.sin(k_y)[..., None, None] * SHIFT_Y_Q_CELL)
    return np.sort(_quasi_energy(np.linalg.eigvals(
        s_y @ coin_matrix("y", theta_y) @ s_x @ coin_matrix("x", theta_x))))


def bulk_gap_edge(theta, k_y):
    """|E| of the bulk band edge at fixed k_y for theta_y = 0 walks.

    The uniform dispersion is cos E = cos(theta) cos(k_x) cos(k_y)
    + sin(theta) sin(k_x) sin(k_y); maximizing over k_x gives the band
    closest to zero.  The edge is the same for +-theta, so it applies on
    both sides of a domain wall.  k_y may be an array.
    """
    R = np.hypot(np.cos(theta) * np.cos(k_y), np.sin(theta) * np.sin(k_y))
    return np.arccos(np.clip(R, -1.0, 1.0))


def bulk_openings(theta_media, theta_y, k_y, n_kx=241):
    """Quasi-energy openings of the projected bulk bands at fixed k_y.

    Samples the uniform bands of every medium in `theta_media` (a scalar
    theta_x or an iterable, e.g. the two sides of a domain wall) over a
    dense k_x line, then reports the cyclic gaps between consecutive
    covered energies that exceed 5*(2 pi / n_kx).  Bands move at most ~2
    per unit k_x, so that threshold cannot split a covered band into
    spurious openings.

    Returns a list of (lo, hi) with hi > lo; an opening across E = +-pi is
    reported with hi > pi.
    """
    if np.isscalar(theta_media):
        theta_media = (theta_media,)
    min_width = 5.0 * (2.0 * np.pi / n_kx)
    ks = np.linspace(-np.pi, np.pi, n_kx, endpoint=False)
    pts = np.sort(np.concatenate(
        [bulk_bands(tx, theta_y, ks, k_y).ravel() for tx in theta_media]))
    gaps = np.diff(pts)
    out = [(float(pts[i]), float(pts[i + 1]))
           for i in np.nonzero(gaps > min_width)[0]]
    wrap = 2.0 * np.pi - (pts[-1] - pts[0])
    if wrap > min_width:
        out.append((float(pts[-1]), float(pts[0] + 2.0 * np.pi)))
    return out


def states_in_openings(energies, openings, margin=0.0):
    """Energies strictly inside any (lo, hi) opening, `margin` off the edges.

    Energies and openings follow the bulk_openings convention (openings
    may extend past +pi to describe the wrap-around gap).
    """
    E = np.asarray(energies, dtype=float)
    hits = []
    for e in E:
        for lo, hi in openings:
            e_eff = e + 2.0 * np.pi if e < lo - np.pi else e
            if lo + margin < e_eff < hi - margin:
                hits.append(float(e))
                break
    return hits


def enclosed_states(k, E, theta_media, theta_y):
    """The (k_y, E) entries of a spectrum_scan table inside the bulk
    openings at their own k_y, at least 0.01 off the opening edges."""
    return [(float(k_y), e) for k_y, row in zip(k, E)
            for e in states_in_openings(
                row, bulk_openings(theta_media, theta_y, k_y), margin=0.01)]


def fit_edge_branch(k, E, theta, k_window=0.2):
    """Fit |E| = v |k_y| to the in-gap branch near k_y = 0.

    (k, E) is a spectrum_scan table.  The fitted points are the entries
    with |k_y| <= k_window and |E| below 95% of the theta_y = 0 bulk gap
    edge, in row-major order.  Returns (v, relative_residual, points) with
    points an (m, 2) array of (k_y, E).  The relative residual is
    rms(|E| - v |k_y|) / rms(E) over the points; points at k_y = 0
    contribute their |E| directly (the branch must cross zero there).
    """
    k_rows = np.broadcast_to(k[:, None], E.shape)
    mask = ((np.abs(k_rows) <= k_window)
            & (np.abs(E) < bulk_gap_edge(theta, k)[:, None] * 0.95))
    if not mask.any():
        raise ValueError("no in-gap points found in the fit window")
    pts = np.column_stack((k_rows[mask], E[mask]))
    ka, Ea = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    denom = float(ka @ ka)
    if denom == 0.0:
        raise ValueError("fit window contains only k_y = 0")
    v = float(ka @ Ea) / denom
    resid = float(np.sqrt(np.mean((Ea - v * ka) ** 2))
                  / np.sqrt(np.mean(Ea ** 2)))
    return v, resid, pts


def _roll(L, s):
    # (M psi)(i) = psi(i + s) with wraparound
    idx = np.arange(L)
    return sparse.csr_matrix((np.ones(L), (idx, (idx + s) % L)), shape=(L, L))


def _assemble(tx, ty, P_y, Q_y):
    """Sparse U = S_y C_y S_x C_x from the factor table in `operators`.

    tx, ty are the site angle tables and P_y, Q_y the sparse half-shift
    operators on the y axis (square, of size len(ty)).  Index layout
    4*(len(ty)*x + y) + c.
    """
    L_x, L_y = len(tx), len(ty)
    I_x, I_y = sparse.identity(L_x), sparse.identity(L_y)
    I4 = sparse.identity(4)
    kron = sparse.kron
    J_x, J_y, Q_cell = (sparse.csr_matrix(m) for m in (
        COIN_GENERATORS["x"], COIN_GENERATORS["y"], SHIFT_Y_Q_CELL))

    C_x = (kron(sparse.diags(np.cos(tx)), kron(I_y, I4))
           + kron(sparse.diags(np.sin(tx)), kron(I_y, J_x)))
    C_y = kron(I_x, kron(sparse.diags(np.cos(ty)), I4)
               + kron(sparse.diags(np.sin(ty)), J_y))
    S_x = sum(kron(_roll(L_x, -step), kron(I_y, sparse.diags(
        (SHIFT_X_STEPS == step).astype(float)))) for step in (-1, +1))
    S_y = kron(I_x, kron(P_y, I4) + kron(Q_y, Q_cell))
    return (S_y @ C_y @ S_x @ C_x).tocsr()


def walk_matrix_sparse(op):
    """Sparse CSR matrix of U from the factor table in `operators`.

    Same index layout as ``state.reshape(-1)``.  All factors are real, so
    the result is a real sparse matrix (~16 nonzeros per row).
    """
    up, down = _roll(op.lattice.L_y, +1), _roll(op.lattice.L_y, -1)
    return _assemble(op.profile_x.table(op.lattice.half_x),
                     op.profile_y.table(op.lattice.half_y),
                     (up + down) * 0.5, (up - down) * 0.5)


class Eigenpair:
    def __init__(self, energy, state, residual):
        self.energy = float(energy)
        self.state = state
        self.residual = float(residual)

    def __repr__(self):
        return (f"Eigenpair(E={self.energy:+.6e}, "
                f"residual={self.residual:.2e})")


# Chebyshev-filtered subspace iteration (Zhou, Saad, Tiago and
# Chelikowsky, J. Comput. Phys. 219, 172, 2006) on a block of `count` +
# _BLOCK_PAD columns, grown by _BLOCK_GROWTH when no W gap wider than
# _CLUSTER_GAP falls inside it or a pass cuts the worst kept residual by
# less than 1 - _STALL.  The filter lifts the top Ritz value over the
# lowest kept one by at most _FILTER_RANGE: a kept vector filtered r times
# below the top carries r times the top's roundoff
_BLOCK_PAD, _BLOCK_GROWTH, _STALL = 8, 16, 0.9
_FILTER_DEGREE, _FILTER_RANGE = 30, 100.0
_W_RESIDUAL_TOL = 1e-13
_MAX_PASSES = 100


def _chebyshev_filter(W, X, Y, w, j):
    """Overwrite X with p(W) X, p the Chebyshev polynomial that damps
    [-1, w[-1]] and is 1 at W's top bound 1, with w the Ritz values of X
    (descending) of which the top j are kept; Y is a finite buffer.

    The degree is _FILTER_DEGREE, or less where p would grow by more than
    _FILTER_RANGE from w[j - 1] to w[0].  The scaled recurrence (Zhou and
    Saad, SIAM J. Matrix Anal. Appl. 29, 954, 2007) keeps each iterate
    O(1) and runs in place in X and Y.
    """
    e, c = (w[-1] + 1.0) * 0.5, (w[-1] - 1.0) * 0.5
    # log T_m(t) grows by arccosh(t) per degree for t >= 1
    growth = np.diff(np.arccosh(np.maximum((w[[j - 1, 0]] - c) / e, 1.0)))[0]
    degree = _FILTER_DEGREE
    if growth * degree > np.log(_FILTER_RANGE):
        degree = max(1, int(np.log(_FILTER_RANGE) / growth))
    sigma1 = sigma = e / (1.0 - c)
    a, s = sigma1 / e, 0.0               # T_1 = t T_0 starts the recurrence
    prev, cur = Y, X
    for _ in range(degree):
        # prev <- a (W - c) cur - s prev
        P = W @ cur
        P *= a
        prev *= -s
        prev += P
        np.multiply(cur, a * c, out=P)
        prev -= P
        prev, cur = cur, prev
        sigma_next = 1.0 / (2.0 / sigma1 - sigma)
        a, s, sigma = 2.0 * sigma_next / e, sigma * sigma_next, sigma_next
    if cur is not X:
        X[...] = cur


def _rayleigh_ritz(W, X, Y):
    """Overwrite X with the Ritz vectors of W on span(X) and Y with their
    residuals; return the Ritz values (descending) and residual norms."""
    Q = np.linalg.qr(X)[0]
    WQ = W @ Q
    w, S = np.linalg.eigh(Q.T @ WQ)
    w, S = w[::-1], S[:, ::-1]
    np.matmul(Q, S, out=X)
    np.matmul(WQ, S, out=Y)
    np.multiply(X, w, out=Q)
    Y -= Q
    return w, np.linalg.norm(Y, axis=0)


def _top_of_w(W, count):
    """The top W eigenpairs (w descending, V) down to the first W gap
    wider than _CLUSTER_GAP at or past `count`.

    Each pass runs a Rayleigh-Ritz step on the block, which starts from a
    fixed seed; it stops once the cut falls inside the block and every
    kept residual ||W v - w v|| is below _W_RESIDUAL_TOL, else grows the
    block (see above) or filters it.  A block of all n columns is exact
    after one step.  Raises ConvergenceError, carrying the worst kept
    residual, after _MAX_PASSES passes.
    """
    n = W.shape[0]
    rng = np.random.Generator(np.random.PCG64(20240817))
    X = rng.normal(size=(n, min(count + _BLOCK_PAD, n)))
    Y = np.empty_like(X)
    last = (0, 0.0)                          # (j, worst) of the last pass
    for _ in range(_MAX_PASSES):
        b = X.shape[1]
        w, resid = _rayleigh_ritz(W, X, Y)
        # never cut inside a W cluster: the kept span must be U-invariant
        j = count
        while j < b and w[j - 1] - w[j] <= _CLUSTER_GAP:
            j += 1
        worst = float(np.max(resid[:j]))
        stalled = last[0] == j and worst > _STALL * last[1]
        last = (j, worst)
        if b < n and (j == b or stalled):
            X = np.hstack((X, rng.normal(size=(n, min(_BLOCK_GROWTH,
                                                      n - b)))))
            Y = np.empty_like(X)
            last = (0, 0.0)
        elif worst < _W_RESIDUAL_TOL:
            return w[:j], X[:, :j]
        else:
            _chebyshev_filter(W, X, Y, w, j)
    raise ConvergenceError(
        f"Chebyshev filter left a W residual of {worst:.3g} after "
        f"{_MAX_PASSES} passes", best_residual=worst)


def _canonical_pairs(U, E, X, lattice, count):
    """The `count` eigenpairs (E, X) of U nearest E = 0 as Eigenpairs.

    _canonical_basis rotates each degenerate group to diagonalize
    d = x + y/sqrt(2) + [c = 0]: position separates the four wall
    crossings, the coin term the two states at each.  Rows run by |E|
    group, the negative group of a +-E pair first, then by <d>; each
    residual ||U psi - e^{-iE} psi|| uses its row's E.
    """
    x, y = np.meshgrid(lattice.coords_x, lattice.coords_y, indexing="ij")
    d = (x[..., None] + y[..., None] / np.sqrt(2.0)
         + (np.arange(4) == 0)).ravel()
    E, X = _canonical_basis(E, X, d)
    g = np.cumsum(np.diff(E, prepend=-np.inf) > _RESIDUAL_TOL) - 1
    E_group = np.bincount(g, E) / np.bincount(g)
    # a +-E pair ties on |E| up to roundoff: the tolerance decides it
    key = np.abs(E_group) - _RESIDUAL_TOL * (E_group < 0)
    return [Eigenpair(E[i], X.T[i].reshape(lattice.shape), np.linalg.norm(
        U @ X[:, i] - np.exp(-1j * E[i]) * X[:, i]))
        for i in np.argsort(key[g], kind="stable")[:count]]


def near_unity_states(op, count):
    """The `count` walk eigenpairs with quasi-energy closest to zero.

    Works on the Hermitian surrogate W = (U + U^T)/2 (real symmetric since
    the walk matrix is real): its largest eigenvalues are cos(E) for the E
    nearest zero.  A Chebyshev-filtered block iteration (_top_of_w) finds
    them, down to the next W gap wider than 1e-5 (the cluster gap of
    _resolve); _resolve gives signed E and unit eigenvectors, and
    _canonical_pairs a basis of each degenerate group that does not depend
    on the solver.  Raises ConvergenceError when the iteration runs out of
    passes and UnitarityError on an eigenpair residual above 1e-9.

    Returns a list of Eigenpair ordered by |E| group (the negative group
    of a +-E pair first), then by <x + y/sqrt(2) + [c = 0]>; states are
    shaped (L_x, L_y, 4).
    """
    lattice = op.lattice
    n = lattice.size
    if count < 1 or count > n:
        raise ValueError(f"count must be in 1..{n}")
    U = walk_matrix_sparse(op)
    E, X, _ = _resolve(U, *_top_of_w((U + U.T) * 0.5, count))
    return _canonical_pairs(U, E, X, lattice, count)


def corner_weight(P, L_wall):
    """Share of a site-probability map within Manhattan radius 5 of the
    four wall crossings (+-L_wall, +-L_wall).

    P has shape (L_x, L_y) with centred coordinates, x = -(L_x // 2) ..
    L_x // 2 along axis 0 and y likewise along axis 1.  The nearest
    crossing to (x, y) is (sign(x) L_wall, sign(y) L_wall), so the union
    of the four balls is one test on (|x|, |y|).
    """
    L_x, L_y = P.shape
    x = np.abs(np.arange(L_x) - L_x // 2)[:, None]
    y = np.abs(np.arange(L_y) - L_y // 2)[None, :]
    near = np.abs(x - L_wall) + np.abs(y - L_wall) <= 5
    return float(P[near].sum() / P.sum())
