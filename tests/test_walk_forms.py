"""Cross-route property tests: every matrix form of the walk unitary.

The matrix-free kernel (`StepOperator2D.apply` / `apply_adjoint`) and the
probed dense matrix are written independently of the factor table that
the sparse, momentum-block and Bloch forms are assembled from, so these
properties compare independent encodings of U = S_y C_y S_x C_x.  The
per-site derivation of the sparse and momentum-block forms is also held
bit for bit to scipy's product of the four sparse factor matrices.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import angles
from dtqw.lattice import LatticeSpec
from dtqw.operators import (COIN_GENERATORS, SHIFT_X_STEPS, SHIFT_Y_Q_CELL,
                            StepOperator2D, walk_matrix_dense)
from dtqw.spectral import (_block_terms, _quasi_energy, bulk_bands,
                           commensurate_grid, momentum_block, quasi_energies,
                           walk_matrix_sparse)
from dtqw.symmetry import _phase_multiset_distance

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)

odd_L = st.sampled_from([3, 5, 7, 9, 11])
angle = st.floats(-np.pi, np.pi, allow_nan=False)


def tables(L):
    """Tables of L finite angles; walls, ramps and noise are all among
    them, since the walk takes any table."""
    return arrays(float, L, elements=angle)


@st.composite
def walks(draw):
    """A walk on a drawn lattice with drawn theta_x and theta_y tables."""
    lat = LatticeSpec(draw(odd_L), draw(odd_L))
    return StepOperator2D(lat, draw(tables(lat.L_x)), draw(tables(lat.L_y)))


@st.composite
def y_uniform_walks(draw):
    """A walk with a drawn theta_x table and a theta_y table of one
    value, which is 0 about half of the time."""
    lat = LatticeSpec(draw(odd_L), draw(odd_L))
    theta_y = draw(st.just(0.0) | angle)
    return StepOperator2D(lat, draw(tables(lat.L_x)),
                          np.full(lat.L_y, theta_y))


def _rand_state(lat, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)


@PROPERTY
@given(walks(), st.integers(0, 2 ** 16))
def test_apply_matches_sparse_and_dense(op, seed):
    psi = _rand_state(op.lattice, seed)
    step = op.apply(psi).reshape(-1)
    assert np.allclose(walk_matrix_sparse(op) @ psi.reshape(-1), step,
                       rtol=0, atol=1e-13)
    assert np.allclose(walk_matrix_dense(op) @ psi.reshape(-1), step,
                       rtol=0, atol=1e-13)
    assert np.allclose(op.apply_adjoint(op.apply(psi)), psi,
                       rtol=0, atol=1e-13)


@PROPERTY
@given(y_uniform_walks())
@example(StepOperator2D(LatticeSpec(9, 5),
                        angles("wall:pi/3:-pi/3:2+noise:0.25:11", 9),
                        np.zeros(5)))
def test_k_blocks_tile_the_dense_spectrum(op):
    # the dense side takes the general eigensolver, so the W kernel that
    # solves the blocks is checked against an independent route
    dense = _quasi_energy(np.linalg.eigvals(walk_matrix_dense(op)))
    tiled = np.concatenate([quasi_energies(momentum_block(op, k))
                            for k in commensurate_grid(op.lattice.L_y)])
    assert _phase_multiset_distance(dense, tiled) < 1e-10


@PROPERTY
@given(odd_L, angle, angle, st.floats(-np.pi, np.pi))
def test_uniform_blocks_equal_bloch_bands(L_x, theta_x, theta_y, k_y):
    op = StepOperator2D(LatticeSpec(L_x), np.full(L_x, theta_x),
                        np.full(L_x, theta_y))
    block = quasi_energies(momentum_block(op, k_y))
    bands = bulk_bands(theta_x, theta_y, commensurate_grid(L_x), k_y)
    assert bands.shape == (L_x, 4)
    assert _phase_multiset_distance(block, bands.ravel()) < 1e-12


@PROPERTY
@given(walks(), st.integers(0, 2 ** 16))
def test_apply_adjoint_is_the_sparse_transpose(op, seed):
    # U is real, so U^dag = U^T: checks the adjoint on its own, not only
    # through apply_adjoint(apply(psi)) = psi
    psi = _rand_state(op.lattice, seed)
    assert np.allclose(walk_matrix_sparse(op).T @ psi.reshape(-1),
                       op.apply_adjoint(psi).reshape(-1), rtol=0, atol=1e-13)


@pytest.mark.parametrize("L_x", [3, 5, 7])
@pytest.mark.parametrize("L_y", [3, 5, 7])
def test_kernel_matches_sparse_on_every_small_lattice(L_x, L_y):
    # at L = 3 only one row (column) lies between the two wrap rows
    # (columns) the kernel's shifts patch, the case a flat-offset kernel
    # gets wrong first; the derandomized properties above need not draw
    # it, so all nine small shapes are checked here
    lat = LatticeSpec(L_x, L_y)
    op = StepOperator2D(lat, angles("wall:pi/3:-pi/4:0+noise:0.3:7", L_x),
                        angles("linear:0.4:1:1.2+noise:0.2:8", L_y))
    U = walk_matrix_sparse(op)
    psi = _rand_state(lat, L_x * 10 + L_y)
    flat = psi.reshape(-1)
    assert np.allclose(op.apply(psi).reshape(-1), U @ flat,
                       rtol=0, atol=1e-13)
    assert np.allclose(op.apply_adjoint(psi).reshape(-1), U.T @ flat,
                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta_y", [0.0, np.pi / 3])
def test_momentum_blocks_match_the_kernel_on_plane_waves(theta_y):
    # the kernel maps psi(x, y, c) = [x = x0, c = c0] e^{i k y} to column
    # (x0, c0) of U(k) times e^{i k y}, at every y.  This checks U(k)
    # entry by entry: B -> -B maps U(k) to U(-k), which the spectral
    # tiling above cannot tell apart
    lat = LatticeSpec(11, 9)
    op = StepOperator2D(lat, angles("wall:pi/3:-pi/3:3+noise:0.25:5", 11),
                        np.full(9, theta_y))
    for k in commensurate_grid(lat.L_y):
        wave = np.exp(1j * k * lat.coords_y)
        U_k = momentum_block(op, k)
        for j in range(U_k.shape[0]):
            psi = np.zeros(lat.shape, dtype=complex)
            psi[j // 4, :, j % 4] = wave
            # one row per y, each in the block's (x, c) layout
            columns = (op.apply(psi) / wave[:, None]).transpose(1, 0, 2)
            assert np.max(np.abs(columns.reshape(lat.L_y, -1)
                                 - U_k[:, j])) <= 1e-13


def _roll(L, s):
    # (M psi)(i) = psi(i + s) with wraparound
    i = np.arange(L)
    return sparse.csr_matrix((np.ones(L), (i, (i + s) % L)), shape=(L, L))


def _factor_product(tx, ty, P_y, Q_y):
    """U = S_y C_y S_x C_x as scipy's CSR product of the four sparse
    factor matrices, each with sorted rows and no stored zeros.

    tx, ty are the angle tables and P_y, Q_y the half-shift operators on
    the y axis, of size len(ty).  Index layout 4*(len(ty)*x + y) + c.
    """
    I_x, I_y, I4 = (sparse.identity(n) for n in (len(tx), len(ty), 4))
    kron = sparse.kron
    C_x = sum(kron(sparse.diags(f(tx)), kron(I_y, M))
              for f, M in ((np.cos, I4), (np.sin, COIN_GENERATORS["x"])))
    C_y = kron(I_x, sum(kron(sparse.diags(f(ty)), M)
                        for f, M in ((np.cos, I4),
                                     (np.sin, COIN_GENERATORS["y"]))))
    S_x = sum(kron(_roll(len(tx), -s),
                   kron(I_y, np.diag((SHIFT_X_STEPS == s).astype(float))))
              for s in (-1, +1))
    S_y = kron(I_x, kron(P_y, I4) + kron(Q_y, SHIFT_Y_Q_CELL))
    S_y, C_y, S_x, C_x = map(_canonical, (S_y, C_y, S_x, C_x))
    return S_y @ C_y @ S_x @ C_x


def _canonical(F):
    """F as CSR with sorted rows and no stored zeros."""
    F = sparse.csr_matrix(F)
    F.eliminate_zeros()
    F.sort_indices()
    return F


@pytest.mark.parametrize("L_x, L_y, theta_x, theta_y", [
    (11, 11, "wall:pi/3:-pi/3:3", "wall:pi/3:-pi/3:3"),
    (21, 21, "wall:pi/3:-pi/3:5+noise:0.25:7",
     "wall:pi/3:-pi/3:5+noise:0.25:9"),
    (3, 5, "wall:pi/3:-pi/4:0+noise:0.3:7", "linear:0.4:1:1.2+noise:0.2:8"),
    (13, 7, "constant:0", "wall:0:pi/2:1+noise:0.3:2"),
    (9, 7, "wall:pi/3:-pi/3:2", "constant:0")])
def test_per_site_forms_equal_the_factor_product(L_x, L_y, theta_x,
                                                 theta_y):
    # the same arrays, bit for bit and in the same order within each row,
    # so U @ v sums every row as the factor product does; zero angles
    # (the last two walks) drop the entries they zero
    op = StepOperator2D(LatticeSpec(L_x, L_y), angles(theta_x, L_x),
                        angles(theta_y, L_y))
    up, down = _roll(L_y, +1), _roll(L_y, -1)
    U = walk_matrix_sparse(op)
    ref = _factor_product(op.theta_x, op.theta_y, (up + down) * 0.5,
                          (up - down) * 0.5)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(U, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if len(np.unique(op.theta_y)) == 1:
        one, zero = sparse.csr_matrix([[1.0]]), sparse.csr_matrix((1, 1))
        terms = [_factor_product(op.theta_x, op.theta_y[:1], P, Q).toarray()
                 for P, Q in ((one, zero), (zero, one))]
        for got, want in zip(_block_terms(op), terms):
            assert got.tobytes() == want.tobytes()
