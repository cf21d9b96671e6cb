"""Cross-route property tests: every matrix form of the walk unitary.

The matrix-free kernel (`StepOperator2D.apply` / `apply_adjoint`) and the
probed dense matrix are written independently of the factor table that
the sparse, momentum-block and Bloch forms are assembled from, so these
properties compare independent encodings of U = S_y C_y S_x C_x.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.lattice import LatticeSpec
from dtqw.operators import StepOperator2D, walk_matrix_dense
from dtqw.profiles import Constant, DomainWall, LinearSaturated
from dtqw.spectral import (_quasi_energy, bulk_bands, commensurate_grid,
                           momentum_block, quasi_energies, walk_matrix_sparse)
from dtqw.symmetry import _phase_multiset_distance

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)

odd_L = st.sampled_from([3, 5, 7, 9, 11])
angle = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def profiles(draw):
    """A wall or a linear profile, with seeded noise half of the time."""
    if draw(st.booleans()):
        prof = DomainWall(draw(angle), draw(angle),
                          draw(st.integers(0, 5)))
    else:
        x_c = draw(st.integers(1, 5))
        theta_sat = draw(st.floats(0.0, np.pi, allow_nan=False))
        b = draw(st.floats(-1.0, 1.0)) * theta_sat / x_c
        prof = LinearSaturated(b, x_c, theta_sat)
    if draw(st.booleans()):
        prof = prof.with_noise(draw(st.floats(0.01, 0.5)),
                               draw(st.integers(0, 2 ** 16)))
    return prof


def _rand_state(lat, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)


@PROPERTY
@given(odd_L, odd_L, profiles(), profiles(), st.integers(0, 2 ** 16))
def test_apply_matches_sparse_and_dense(L_x, L_y, px, py, seed):
    lat = LatticeSpec(L_x, L_y)
    op = StepOperator2D(lat, px, py)
    psi = _rand_state(lat, seed)
    step = op.apply(psi).reshape(-1)
    assert np.allclose(walk_matrix_sparse(op) @ psi.reshape(-1), step,
                       rtol=0, atol=1e-13)
    assert np.allclose(walk_matrix_dense(op) @ psi.reshape(-1), step,
                       rtol=0, atol=1e-13)
    assert np.allclose(op.apply_adjoint(op.apply(psi)), psi,
                       rtol=0, atol=1e-13)


@PROPERTY
@given(odd_L, odd_L, profiles(), angle)
def test_k_blocks_tile_the_dense_spectrum(L_x, L_y, px, theta_y):
    op = StepOperator2D(LatticeSpec(L_x, L_y), px, Constant(theta_y))
    # the dense side takes the general eigensolver, so the W kernel that
    # solves the blocks is checked against an independent route
    dense = _quasi_energy(np.linalg.eigvals(walk_matrix_dense(op)))
    tiled = np.concatenate([quasi_energies(momentum_block(op, k))
                            for k in commensurate_grid(L_y)])
    assert _phase_multiset_distance(dense, tiled) < 1e-10


@PROPERTY
@given(odd_L, angle, angle, st.floats(-np.pi, np.pi))
def test_uniform_blocks_equal_bloch_bands(L_x, theta_x, theta_y, k_y):
    op = StepOperator2D(LatticeSpec(L_x), Constant(theta_x),
                        Constant(theta_y))
    block = quasi_energies(momentum_block(op, k_y))
    bands = bulk_bands(theta_x, theta_y, commensurate_grid(L_x), k_y)
    assert bands.shape == (L_x, 4)
    assert _phase_multiset_distance(block, bands.ravel()) < 1e-12


@PROPERTY
@given(odd_L, odd_L, profiles(), profiles(), st.integers(0, 2 ** 16))
def test_apply_adjoint_is_the_sparse_transpose(L_x, L_y, px, py, seed):
    # U is real, so U^dag = U^T: checks the adjoint on its own, not only
    # through apply_adjoint(apply(psi)) = psi
    lat = LatticeSpec(L_x, L_y)
    op = StepOperator2D(lat, px, py)
    psi = _rand_state(lat, seed)
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
    op = StepOperator2D(
        lat, DomainWall(np.pi / 3, -np.pi / 4, 0).with_noise(0.3, 7),
        LinearSaturated(0.4, 1, 1.2).with_noise(0.2, 8))
    U = walk_matrix_sparse(op)
    psi = _rand_state(lat, L_x * 10 + L_y)
    flat = psi.reshape(-1)
    assert np.allclose(op.apply(psi).reshape(-1), U @ flat,
                       rtol=0, atol=1e-13)
    assert np.allclose(op.apply_adjoint(psi).reshape(-1), U.T @ flat,
                       rtol=0, atol=1e-13)
