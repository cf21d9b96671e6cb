"""Quasi-energy spectra, bulk bands, and near-unit-eigenvalue searches.

When the walk's theta_y table holds one value, the walk is y-independent
and block-diagonalizes over the y momentum: replacing the S_y half-shift
combinations P -> cos(k_y), Q -> i sin(k_y) turns the step operator into
a 4*L_x x 4*L_x unitary U(k_y) = cos(k_y) A + i sin(k_y) B, with A and
B the real blocks at (P, Q) = (1, 0) and (0, 1), whose eigenphases are
the quasi-energies E in (-pi, pi] (eigenvalue = exp(-iE)).  Since A and B
are real, U(-k_y) = conj U(k_y) and the spectrum at -k_y is the negated
spectrum at k_y, so a scan solves one block of each +-k_y pair and
mirrors the other.

Every eigenphase solve goes through the Hermitian surrogate
W = (U + U^dag)/2, which commutes with U and has eigenvalues cos(E).
The split-step walk carries an antiunitary symmetry that squares to -1
(Kitagawa, Rudner, Berg and Demler, Phys. Rev. A 82, 033429, 2010), so the
eigenvalues of W come in degenerate pairs; U restricted to W eigenvectors
cut at a W gap above 1e-5 resolves the E signs.  Spectra resolve U in
each cluster between such gaps; the corner states and the zero modes of
the real k_y = 0 block A are resolved once over the top of their real
symmetric W, whose largest eigenvalues cos(E) mark the quasi-energies
nearest zero.  A Chebyshev-filtered block iteration finds that span, and
each degenerate group of the states is rotated to a canonical basis that
does not depend on the solver.

The dense terms A and B and the sparse walk matrix come from one numpy
derivation, the per-site 4x4 blocks Y C_y D_s C_x of the factor table in
`operators` (see _block_entries), written straight into dense arrays and
into CSR arrays.  scipy is imported only inside walk_matrix_sparse, to
wrap those arrays, so importing this module loads none of it.

The uniform walk's bands have two routes: bulk_bands takes the
eigenphases of the 4x4 Bloch unitary, and _band_cosines gives their
cosines in closed form (derived there), whose exact ranges over k_x
give bulk_openings.  The guards raise RuntimeError subclasses:
UnitarityError (one eigenpair residual tolerance on both paths), and
ConvergenceError when the block iteration runs out of passes.
"""

import numpy as np

from .operators import (COIN_GENERATORS, SHIFT_X_STEPS, SHIFT_Y_Q_CELL,
                        coin_matrix)


class ConvergenceError(RuntimeError):
    """An iterative eigensolve ran out of budget; carries the best residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class UnitarityError(RuntimeError):
    """A non-unitary momentum block, an eigenvalue modulus off 1, or an
    eigenpair residual above _RESIDUAL_TOL."""


# Row (x, y, c) of U couples to the sites (x - s, y') through the per-site
# block Y C_y(theta_y(y')) D_s C_x(theta_x(x - s)), where D_s keeps the
# components that move by s = +-1 and Y is the y cell of the term toward
# y': (1 +- SHIFT_Y_Q_CELL)/2 toward y +- 1 in the walk, 1 and
# SHIFT_Y_Q_CELL in the terms A and B.  The factors carry c to c1 (Y,
# within the pattern of 1 + SHIFT_Y_Q_CELL), c1 to c2 (C_y) and c2 to c3
# (C_x), and c2 fixes s.  Each c has eight such paths, which end on
# eight distinct (s, c3), so every block entry is one product of factor
# entries, rounded as a product of sparse factor matrices rounds it.
def _block_paths():
    """(c1, c2, c3) of the eight paths of each row component c, three
    (4, 8) tables, each row's paths in descending (c1, c2, c3)."""
    reach = [[np.flatnonzero(row)[::-1] for row in np.eye(4) + np.abs(m)]
             for m in (SHIFT_Y_Q_CELL, COIN_GENERATORS["y"],
                       COIN_GENERATORS["x"])]
    return np.array([[(c1, c2, c3) for c1 in reach[0][c]
                      for c2 in reach[1][c1] for c3 in reach[2][c2]]
                     for c in range(4)]).transpose(2, 0, 1)


_C1, _C2, _C3 = _block_paths()


def _block_entries(theta_x, theta_to, Y):
    """The entries of the per-site blocks along their paths (see above).

    theta_to, shaped (L_r, H), holds theta_y at the y' of each of the H y
    terms of the L_r row sites y, and Y, shaped (L_r, H, 4, 4) or (4, 4),
    their y cells.  Returns (values, x_to): values[x, r, c, h, j] is the
    entry of path j of row (x, r, c) in y term h, shaped
    (L_x, L_r, 4, H, 8), and x_to[x, c, j] = x - s the column site of
    that path, shaped (L_x, 4, 8); the column component is _C3[c, j].
    """
    L_x = len(theta_x)
    rows = np.arange(4)[:, None]
    y_part = Y[..., rows, _C1] * coin_matrix("y", theta_to)[..., _C1, _C2]
    x_to = (np.arange(L_x)[:, None, None] - SHIFT_X_STEPS[_C2]) % L_x
    x_part = coin_matrix("x", theta_x)[x_to, _C2, _C3]
    return y_part.swapaxes(-3, -2)[None] * x_part[:, None, :, None], x_to


def _dense_term(theta_x, theta_y, Y):
    """The dense 4*L_x x 4*L_x walk on a one-site y axis with angle
    theta_y, whose S_y is the cell Y; index layout 4*(x + half_x) + c."""
    L_x = len(theta_x)
    values, x_to = _block_entries(theta_x, np.reshape(theta_y, (1, 1)), Y)
    M = np.zeros((L_x, 4, L_x, 4))
    # a path through a zero of Y reads -0.0 where another factor is
    # negative; + 0.0 writes it as the +0.0 of an uncoupled entry
    M[np.arange(L_x)[:, None, None], np.arange(4)[:, None], x_to,
      _C3] = values[:, 0, :, 0] + 0.0
    return M.reshape(4 * L_x, 4 * L_x)


def _block_terms(op):
    """The real dense pair (A, B) with U(k_y) = cos(k_y) A + i sin(k_y) B.

    A and B are the walk on a one-site y axis with the y cells 1 and
    SHIFT_Y_Q_CELL, the half-shift pair (P, Q) = (1, 0) and (0, 1), each
    written from the per-site blocks at op.theta_x and the one theta_y
    value; U is linear in (P, Q).  Raises ValueError when the theta_y
    table holds more than one value, as only then does the walk depend on
    y (an all-NaN table is one value, which the unitarity check refuses).
    Since U^dag U = cos^2 A^T A + sin^2 B^T B + i cos sin (A^T B - B^T A),
    every block is unitary when A^T A = B^T B = 1 and A^T B is symmetric;
    raises UnitarityError if any of the three deviates by more than 1e-12.
    """
    values = np.unique(op.theta_y)
    if len(values) > 1:
        raise ValueError(f"momentum blocks need a y-independent walk: the "
                         f"theta_y table holds {len(values)} values")
    A, B = (_dense_term(op.theta_x, values[0], Y)
            for Y in (np.eye(4), SHIFT_Y_Q_CELL))
    eye, AtB = np.eye(A.shape[0]), A.T @ B
    dev = max(np.max(np.abs(A.T @ A - eye)), np.max(np.abs(B.T @ B - eye)),
              np.max(np.abs(AtB - AtB.T)))
    if not dev <= 1e-12:
        raise UnitarityError(f"momentum block is not unitary "
                             f"(max deviation {dev:.3g})")
    return A, B


def _combine(terms, k_y):
    # complex even at k_y = 0: a real block would take LAPACK's real
    # routines and move the printed k_y = 0 spectra
    A, B = terms
    return np.cos(k_y) * A + 1j * np.sin(k_y) * B


def momentum_block(op, k_y):
    """The dense 4*L_x x 4*L_x unitary U(k_y) = S_y(k_y) C_y S_x C_x.

    Index layout: 4*(x + half_x) + c.  Requires y-translation invariance,
    a theta_y table with one value; the theta_x table may hold any values,
    noise included.  Built as cos(k_y) A + i sin(k_y) B from the
    k-independent real terms, so U(-k_y) = conj U(k_y) exactly; raises if
    the block is not unitary.
    """
    return _combine(_block_terms(op), k_y)


def _wrap_pi(E):
    """Read E = -pi as +pi (in place), so quasi-energies lie in (-pi, pi]."""
    E[E == -np.pi] = np.pi
    return E


def _quasi_energy(lam):
    """E = 0.0 - arg(lam) in (-pi, pi], +0.0 at lam = 1, for lam = exp(-iE).

    Raises if any |lam| drifts from 1 by more than 1e-10: the matrix (or
    subspace) they came from was not unitary enough for eigenphases.
    """
    drift = np.max(np.abs(np.abs(lam) - 1.0))
    if not drift <= 1e-10:
        raise UnitarityError(f"eigenvalue modulus drifts from 1 by "
                             f"{drift:.3g}; matrix is not unitary enough")
    return _wrap_pi(0.0 - np.angle(lam))


# W eigenvalues closer than this are one cluster; the cut keeps each
# cluster's W eigenvectors a U-invariant subspace to ~1e-11 (see the
# residual guard); clusters have 2-4 members on walls, 8 at wall corners
_CLUSTER_GAP = 1e-5
_RESIDUAL_TOL = 1e-9


def _check_residuals(resid):
    """Raise UnitarityError if any eigenpair residual ||U x - e^{-iE} x||
    exceeds _RESIDUAL_TOL (U not unitary enough)."""
    worst = float(np.max(resid))
    if not worst <= _RESIDUAL_TOL:
        raise UnitarityError(f"eigenpair residual {worst:.3g} exceeds "
                             f"{_RESIDUAL_TOL:g}; matrix is not unitary "
                             "enough")


def quasi_energies(U):
    """Quasi-energies E in (-pi, pi] of one unitary matrix, sorted ascending.

    eigh of W = (U + U^dag)/2, cut into clusters wherever its eigenvalues
    step by more than _CLUSTER_GAP; W commutes with U, so each cluster
    spans a U-invariant subspace, and V_c^dag U V_c is diagonalized inside
    each, batched over clusters of equal size.  The clusters are gathered
    as rows, (clusters, m, n), so the residual norms run over the
    contiguous axis.  Raises UnitarityError on an eigenpair residual above
    1e-9 or an eigenvalue modulus that drifts from 1.
    """
    U = np.asarray(U)
    w, V = np.linalg.eigh((U + U.conj().T) * 0.5)
    n = len(w)
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > _CLUSTER_GAP)
    sizes = np.diff(starts, append=n)
    Vt, UVt = V.T, (U @ V).T
    lam = np.empty(n, dtype=complex)
    resid = np.empty(n)
    for m in np.unique(sizes):
        idx = starts[sizes == m][:, None] + np.arange(m)   # (clusters, m)
        Vc, UVc = Vt[idx], UVt[idx]                        # (clusters, m, n)
        mu, C = np.linalg.eig(Vc.conj() @ UVc.swapaxes(1, 2))
        Ct = C.swapaxes(1, 2)
        Xc = Ct @ Vc                                       # eigenvectors, rows
        resid[idx] = (np.linalg.norm(Ct @ UVc - Xc * mu[..., None], axis=2)
                      / np.linalg.norm(Xc, axis=2))
        lam[idx] = mu
    _check_residuals(resid)
    return np.sort(_quasi_energy(lam))


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
            E[i] = np.sort(_wrap_pi(0.0 - E[j]))
    return k, E


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


def _band_cosines(theta_x, theta_y, k_x, k_y):
    """cos E of the uniform walk's bands at (k_x, k_y) in closed form.

    Returns (c_1, c_2), c_1 <= c_2, broadcast over the arguments; the four
    quasi-energies of bulk_bands are +-arccos(c_1) and +-arccos(c_2).

    Derivation.  Every factor of the 4x4 Bloch unitary
    U = S_y(k_y) C_y S_x(k_x) C_x has determinant 1, and expanding the
    trace over the factor table gives the real
    t = tr U = 4 cos k_x cos k_y cos theta_x cos theta_y.  For a unitary
    matrix the characteristic coefficients obey e_3 = det U conj(e_1) and
    e_2 = det U conj(e_2), so det(lam - U) = lam^4 - t lam^3 + e_2 lam^2
    - t lam + 1 with e_2 real: a real palindromic polynomial, whose roots
    pair as lam and 1/lam = conj(lam).  The spectrum is therefore
    exp(+-i E_1), exp(+-i E_2), and det(lam - U) = (lam^2 - 2 c_1 lam + 1)
    (lam^2 - 2 c_2 lam + 1) with c_j = cos E_j.  Matching coefficients,
    c_1 + c_2 = t/2 and, from tr U^2 = 4(c_1^2 + c_2^2) - 4,
    (c_1 - c_2)^2 = (tr U^2 + 4)/2 - t^2/4 = D with

        D = 4 [a b (c + d - 3 c d) + c d (a + b)],
        a = sin^2 k_x, b = sin^2 k_y, c = sin^2 theta_x, d = sin^2 theta_y,

    once tr U^2 is expanded over the factor table as well.  Hence
    c_{1,2} = cos k_x cos k_y cos theta_x cos theta_y -+ sqrt(D)/2.  D is
    a square, so it is clipped at 0 against roundoff.

    Precision.  c_j carries roundoff dc of a few eps, which arccos turns
    into dE ~ dc / |sin E|: past 1e-12 only within about 1e-3 of E = 0 or
    +-pi, and up to sqrt(2 dc) ~ 1e-8 there.  The opening edges of the
    preset grids stay at least 0.25 away from both, where they match
    bulk_bands, the eigvals route, to roundoff.
    """
    a, b, c, d = (np.sin(v) ** 2 for v in (k_x, k_y, theta_x, theta_y))
    D = 4.0 * (a * b * (c + d - 3.0 * c * d) + c * d * (a + b))
    mid = np.cos(k_x) * np.cos(k_y) * np.cos(theta_x) * np.cos(theta_y)
    half = 0.5 * np.sqrt(np.maximum(D, 0.0))
    return mid - half, mid + half


def _band_ranges(theta_x, theta_y, k_y):
    """The exact cos E range of each band of _band_cosines over all k_x.

    Returns (lo, hi), each shaped (2,) + the arguments' broadcast shape:
    band j covers [lo[j], hi[j]].  With u = cos k_x and b, c, d as there,
    the bands are c_-+ = alpha u -+ sqrt(beta (1 - u^2) + gamma), where
    alpha = cos k_y cos theta_x cos theta_y, beta = b (c + d - 3 c d) + c d
    >= 0 and gamma = b c d.  c_+ is concave in u and c_- convex, so their
    extrema lie at u = +-1 or at the stationary points
    u^2 = alpha^2 (beta + gamma) / (beta (beta + alpha^2)), clamped to 1;
    with beta = 0 the bands are linear in u and only u = +-1 count.
    """
    b, c, d = (np.sin(v) ** 2 for v in (k_y, theta_x, theta_y))
    alpha2 = (np.cos(k_y) * np.cos(theta_x) * np.cos(theta_y)) ** 2
    beta = b * (c + d - 3.0 * c * d) + c * d
    with np.errstate(divide="ignore", invalid="ignore"):
        u2 = alpha2 * (beta + b * c * d) / (beta * (beta + alpha2))
    u = np.sqrt(np.where(beta > 0.0, np.minimum(u2, 1.0), 1.0))
    k_x = np.arccos(np.stack(np.broadcast_arrays(1.0, -1.0, u, -u)))
    bands = np.array(_band_cosines(theta_x, theta_y, k_x, k_y))
    return bands.min(axis=1), bands.max(axis=1)


# cos E ranges this close touch: _band_cosines' roundoff opens gaps up to
# 2.2e-16 wide in cos E; true openings were >= 1e-6 over a scan of angles
_COS_TOUCH = 1e-14


def bulk_openings(theta_media, theta_y, k_y):
    """Quasi-energy openings of the projected bulk bands at fixed k_y.

    The bands of every medium in `theta_media` (an iterable of theta_x,
    e.g. the two sides of a domain wall) cover E = +-arccos of their exact
    cos E ranges (_band_ranges), joined within _COS_TOUCH; the openings
    are the rest of the circle.  Returns a list of (lo, hi) with hi > lo,
    ascending; an opening across E = +-pi comes last, with hi > pi.
    """
    lo, hi = np.clip(_band_ranges(np.asarray(theta_media, float), theta_y,
                                  k_y), -1.0, 1.0).reshape(2, -1)
    order = np.argsort(lo)
    # uncovered cos E: under each range, down to all lower ranges' top
    below = np.concatenate(([-1.0], np.maximum.accumulate(hi[order])))
    above = np.concatenate((lo[order], [1.0]))
    keep = above - below > _COS_TOUCH
    near, far = np.arccos((above[keep], below[keep]))   # E descending
    # each gap opens (near, far) and (-far, -near), one opening across
    # E = 0 where near = 0 and across +-pi where far = pi
    mid, rim = near == 0.0, far == np.pi
    side = ~(mid | rim)
    lo_E = np.concatenate((-far[side], -far[mid], near[side][::-1],
                           near[rim]))
    hi_E = np.concatenate((-near[side], far[mid], far[side][::-1],
                           2.0 * np.pi - near[rim]))
    return list(zip(lo_E.tolist(), hi_E.tolist()))


def states_in_openings(energies, openings, margin=0.0):
    """Energies strictly inside any (lo, hi) opening, `margin` off the edges,
    as an array in their input order.

    Energies and openings follow the bulk_openings convention (openings
    may extend past +pi to describe the wrap-around gap).
    """
    E = np.asarray(energies, dtype=float)
    hit = np.zeros(E.shape, dtype=bool)
    for lo, hi in openings:
        e_eff = np.where(E < lo - np.pi, E + 2.0 * np.pi, E)
        hit |= (lo + margin < e_eff) & (e_eff < hi - margin)
    return E[hit]


def enclosed_states(k, E, theta_media, theta_y):
    """The (k_y, E) entries of a spectrum_scan table inside the bulk
    openings at their own k_y, at least 0.01 off the opening edges, as an
    (m, 2) array in row-major order."""
    hits = [states_in_openings(row, bulk_openings(theta_media, theta_y, k_y),
                               margin=0.01) for k_y, row in zip(k, E)]
    return np.column_stack((np.repeat(k, [len(h) for h in hits]),
                            np.concatenate(hits)))


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
    edge = np.arccos(_band_ranges(theta, 0.0, k)[1][1])
    mask = (np.abs(k_rows) <= k_window) & (np.abs(E) < edge[:, None] * 0.95)
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


def walk_matrix_sparse(op):
    """Sparse CSR matrix of U, written from the per-site blocks.

    Same index layout as ``state.reshape(-1)``.  All factors are real, so
    U is real.  Row (x, y, c) holds the 16 entries of its block rows
    toward y' = y +- 1 and x - s = x -+ 1: the larger y' first, each y'
    in the paths' order.  That is the order in which scipy's CSR product
    of the column-sorted factor matrices S_y, C_y, S_x and C_x lists a
    row, so U @ v sums each row in that order.  Entries that are exactly
    zero, as at a zero angle, are dropped.  scipy.sparse is imported
    here, only to wrap the arrays.
    """
    from scipy import sparse

    lattice = op.lattice
    y = np.arange(lattice.L_y)
    up = (y + 1) % lattice.L_y
    to = np.sort(np.stack((up, (y - 1) % lattice.L_y), axis=1))[:, ::-1]
    sign = np.where(to == up[:, None], 1.0, -1.0)
    Y = 0.5 * (np.eye(4) + sign[..., None, None] * SHIFT_Y_Q_CELL)
    values, x_to = _block_entries(op.theta_x, op.theta_y[to], Y)
    index = np.int32 if values.size <= np.iinfo(np.int32).max else np.int64
    columns = ((4 * lattice.L_y * x_to + _C3).astype(index)[:, None, :, None]
               + (4 * to).astype(index)[:, None, :, None])
    n = lattice.size
    U = sparse.csr_matrix(
        (values.reshape(-1), columns.reshape(-1),
         np.arange(0, values.size + 1, values[0, 0, 0].size, dtype=index)),
        shape=(n, n))
    U.eliminate_zeros()
    return U


def eigsh(*args, **kwargs):
    """ARPACK's eigsh, imported when called.  No package code calls it:
    the benchmark tracer wraps dtqw.spectral.eigsh by name, and this
    forwarder goes together with that tracer target (ROADMAP R9)."""
    from scipy.sparse.linalg import eigsh
    return eigsh(*args, **kwargs)


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
    """The span V (orthonormal columns) of the top W eigenvectors, down
    to the first W gap wider than _CLUSTER_GAP at or past `count`.

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
            return X[:, :j]
        else:
            _chebyshev_filter(W, X, Y, w, j)
    raise ConvergenceError(
        f"Chebyshev filter left a W residual of {worst:.3g} after "
        f"{_MAX_PASSES} passes", best_residual=worst)


def _span_eigenpairs(U, V):
    """(E, unit eigenvectors as columns) of U on a U-invariant span V with
    orthonormal columns, from one eig of V^T U V."""
    lam, C = np.linalg.eig(V.T @ (U @ V))
    return _quasi_energy(lam), V @ C


def _canonical_pairs(U, E, X, d, count):
    """(E, states as columns, residuals) of the `count` eigenpairs (E, X)
    nearest E = 0, in a basis that does not depend on the solver.

    Sorts the pairs by E, orthonormalizes them with one QR in that order
    (so states of different groups come out orthogonal to rounding, not
    only to eps / (E spacing)), and groups them wherever E steps by more
    than _RESIDUAL_TOL; each group is rotated to the basis that
    diagonalizes the key d (one value per vector component).  Rows run by
    |E| group, the negative group of a +-E pair first, then by <d>; each
    residual ||U psi - e^{-iE} psi|| uses its row's E, and raises
    UnitarityError above _RESIDUAL_TOL.
    """
    order = np.argsort(E, kind="stable")
    E, X = E[order], np.linalg.qr(X[:, order])[0]
    g = np.cumsum(np.diff(E, prepend=-np.inf) > _RESIDUAL_TOL) - 1
    for cols in np.split(np.arange(len(E)), np.flatnonzero(np.diff(g)) + 1):
        Q = X[:, cols]
        X[:, cols] = Q @ np.linalg.eigh(Q.conj().T @ (d[:, None] * Q))[1]
    E_group = np.bincount(g, E) / np.bincount(g)
    # a +-E pair ties on |E| up to roundoff: the tolerance decides it
    key = np.abs(E_group) - _RESIDUAL_TOL * (E_group < 0)
    rows = np.argsort(key[g], kind="stable")[:count]
    E, X = E[rows], X[:, rows]
    resid = np.linalg.norm(U @ X - X * np.exp(-1j * E), axis=0)
    _check_residuals(resid)
    return E, X, resid


def _near_zero_pairs(U, d, count):
    """_canonical_pairs of a real unitary U over the top of its W."""
    E, X = _span_eigenpairs(U, _top_of_w((U + U.T) * 0.5, count))
    return _canonical_pairs(U, E, X, d, count)


def near_unity_states(op, count):
    """The `count` walk eigenpairs with quasi-energy closest to zero.

    Works on the Hermitian surrogate W = (U + U^T)/2 (real symmetric since
    the walk matrix is real): its largest eigenvalues are cos(E) for the E
    nearest zero.  A Chebyshev-filtered block iteration (_top_of_w) finds
    their span, down to the next W gap wider than 1e-5, which makes it
    U-invariant; _span_eigenpairs resolves U on it, and _canonical_pairs
    gives a basis of each degenerate group that does not depend on the
    solver.  Raises ConvergenceError when the iteration runs out of passes
    and UnitarityError on an eigenpair residual above 1e-9.

    Returns (E, states, residuals), shaped (count,), (count, L_x, L_y, 4)
    and (count,), ordered by |E| group (the negative group of a +-E pair
    first), then by <d>, d = x + y/sqrt(2) + [c = 0]: position separates
    the four wall crossings, the coin term the two states at each.
    """
    lattice = op.lattice
    n = lattice.size
    if count < 1 or count > n:
        raise ValueError(f"count must be in 1..{n}")
    x, y = np.meshgrid(lattice.coords_x, lattice.coords_y, indexing="ij")
    d = (x[..., None] + y[..., None] / np.sqrt(2.0)
         + (np.arange(4) == 0)).ravel()
    E, X, resid = _near_zero_pairs(walk_matrix_sparse(op), d, count)
    return E, X.T.reshape((count,) + lattice.shape), resid


def zero_mode_profiles(op):
    """The four k_y = 0 eigenstates nearest E = 0 and their site profiles.

    The real block A = U(k_y = 0) is solved as near_unity_states solves
    the walk, with d = x, so each degenerate zero mode sits at one wall,
    and in its row order.  Returns (E, P), P[i, x] = sum_c |psi_i(x, c)|^2.
    """
    E, X, _ = _near_zero_pairs(_block_terms(op)[0],
                               np.repeat(op.lattice.coords_x, 4), 4)
    return E, np.sum(np.abs(X.T.reshape(4, -1, 4)) ** 2, axis=2)


def corner_weight(P, L_wall_x, L_wall_y):
    """Share of a site-probability map within Manhattan radius 5 of the
    four wall crossings (+-L_wall_x, +-L_wall_y).

    P has shape (L_x, L_y) with centred coordinates, x = -(L_x // 2) ..
    L_x // 2 along axis 0 and y likewise along axis 1.  The nearest
    crossing to (x, y) is (sign(x) L_wall_x, sign(y) L_wall_y), so the
    union of the four balls is one test on (|x|, |y|).
    """
    L_x, L_y = P.shape
    x = np.abs(np.arange(L_x) - L_x // 2)[:, None]
    y = np.abs(np.arange(L_y) - L_y // 2)[None, :]
    near = np.abs(x - L_wall_x) + np.abs(y - L_wall_y) <= 5
    return float(P[near].sum() / P.sum())
