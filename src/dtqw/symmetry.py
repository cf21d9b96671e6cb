"""Executable symmetry checks for the Hamiltonians and the walk unitary.

The 2D Dirac Hamiltonian with m_y = 0 carries the antiunitary pair
Theta = (sigma^x (x) tau^y) K (time reversal, squares to -1; its matrix
part is the constant THETA) and Xi = K (particle-hole, squares to +1),
whose product is the chiral involution Pi = sigma^x (x) tau^y: the DIII
class.  diii_residuals measures the three relations on a dense H; a
nonzero m_y breaks Theta and Pi but leaves Xi intact.  The walk unitary
is real in position space (all four factors are real), which is the
operator form of the particle-hole symmetry: quasi-energy spectra are
symmetric under E -> -E.

The S_y half-shift structure also gives an exact sublattice relation: the
block at k_y + pi is minus the block at k_y, so the spectrum at k_y + pi
is the spectrum at k_y shifted by pi (mod 2 pi).  check_sublattice_shift
verifies that shifted agreement.
"""

import numpy as np

from .continuum import SIGMA_X, SIGMA_Y
from .operators import walk_matrix_dense


# Theta = (sigma^x (x) tau^y) K, whose matrix part is kron(tau^y, sigma^x)
# in the c = 2*tau + sigma basis; Theta^2 = THETA THETA* = -1
THETA = np.kron(SIGMA_Y, SIGMA_X)


def diii_residuals(H):
    """Max-norm residuals of the three DIII relations on H.

    H is a dense 4-component matrix such as build_dirac(m_x, m_y) returns;
    THETA is extended by the identity over the site factors to W.  Returns
    {"time_reversal": |W H* W^dag - H|, "particle_hole": |H* + H|,
    "chiral": |W H W^dag + H|}, the relations of Theta = W K, Xi = K and
    Pi = W.
    """
    n_sites, rem = divmod(H.shape[0], 4)
    if rem:
        raise ValueError(f"H of size {H.shape[0]} is not compatible with "
                         f"the 4-dimensional internal space")
    W = np.kron(np.eye(n_sites), THETA)
    return {
        "time_reversal": float(np.max(np.abs(W @ H.conj() @ W.conj().T
                                             - H))),
        "particle_hole": float(np.max(np.abs(H.conj() + H))),
        "chiral": float(np.max(np.abs(W @ H @ W.conj().T + H))),
    }


def check_walk_particle_hole(op):
    """Maximum imaginary part of the dense position-space walk matrix.

    Reality of U is equivalent to the particle-hole relation Xi U Xi = U
    with Xi = K, forcing the E -> -E spectral symmetry.  Assembled by
    applying the step to every basis vector, so this measures the
    implementation, not the algebraic identity.  Small lattices only.
    """
    if op.lattice.L_x > 15 or op.lattice.L_y > 15:
        raise ValueError("dense reality check is meant for L <= 15")
    U = walk_matrix_dense(op)
    return float(np.max(np.abs(U.imag)))


def _phase_multiset_distance(E1, E2):
    """Bottleneck distance between the phase multisets {e^{-iE1}}, {e^{-iE2}}.

    Comparing on the unit circle avoids the branch-cut artifact where a
    state at E = pi - eps negates to -pi + eps and shifts every rank of a
    sorted real-line comparison.  Both multisets are sorted by angle (the
    cyclic order is branch-cut independent) and matched under the best
    cyclic alignment; the optimal non-crossing matching on a circle is a
    cyclic shift, so taking the best of all shifts (one index matrix, row s
    the shift by s) gives the true bottleneck distance.  For small
    distances the chord equals the angle difference.
    """
    a = np.sort(np.mod(np.asarray(E1, dtype=float), 2.0 * np.pi))
    b = np.sort(np.mod(np.asarray(E2, dtype=float), 2.0 * np.pi))
    if a.shape != b.shape:
        raise ValueError("phase multisets must have equal size")
    n = len(b)
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    return float(np.min(np.max(
        np.abs(np.exp(-1j * a) - np.exp(-1j * b)[shifts]), axis=1)))


def spectral_particle_hole_residual(E):
    """Max multiset distance between {E} and {-E} over the rows of a
    spectrum_scan table E (one row per k_y)."""
    return max(_phase_multiset_distance(row, -row) for row in E)


def _pi_partners(k):
    """Index of the k_y + pi partner (mod 2 pi) of every grid point."""
    two_pi = 2.0 * np.pi
    target = np.mod(k + np.pi + np.pi, two_pi) - np.pi  # wrap to (-pi,pi]
    d = np.abs(np.mod(k[None, :] - target[:, None] + np.pi, two_pi) - np.pi)
    j = np.argmin(d, axis=1)
    lonely = d[np.arange(len(k)), j] > 1e-9
    if lonely.any():
        raise ValueError("k grid is not pi-pairable: no partner for "
                         f"k_y={k[np.argmax(lonely)]:.6g}")
    return j


def check_sublattice_shift(k, E):
    """Residual of the sublattice relation E(k_y + pi) = E(k_y) - pi.

    (k, E) is a spectrum_scan table.  Pairs every grid point with its
    k_y + pi partner (mod 2 pi; the grid must close under that map) and
    compares the energies at k_y against the pi-shifted energies at
    k_y + pi.  Returns the max multiset distance; exact up to rounding for
    any walk with the S_y half-shift structure, noise included.
    """
    return max(_phase_multiset_distance(row, E[j] + np.pi)
               for row, j in zip(E, _pi_partners(k)))

