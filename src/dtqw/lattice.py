"""Lattice geometry, spinor-field storage and position-space observables.

The walk lives on a periodic L_x x L_y square lattice with odd side lengths,
so site coordinates run over the symmetric range -floor(L/2) .. +floor(L/2).
Internal (coin) states are ordered LD=0, RD=1, LU=2, RU=3 everywhere; a state
is a complex ndarray of shape (L_x, L_y, 4) indexed by
``psi[x + L_x//2, y + L_y//2, c]``.

Lattice constant and time step are both 1.
"""

import numpy as np

# fixed internal basis order; every matrix in the package uses this
LD, RD, LU, RU = 0, 1, 2, 3
N_COMP = 4

NORM_TOL_INPUT = 1e-6   # validation of user-supplied states


class LatticeSpec:
    """Geometry of the periodic simulation lattice.

    Parameters
    ----------
    L_x, L_y : int
        Side lengths in sites.  Must be odd and >= 3 so that the coordinate
        range -floor(L/2)..floor(L/2) is symmetric about the origin.
    """

    def __init__(self, L_x, L_y=None):
        if L_y is None:
            L_y = L_x
        for name, L in (("L_x", L_x), ("L_y", L_y)):
            if L < 3 or L % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {L}")
        self.L_x = int(L_x)
        self.L_y = int(L_y)
        self.half_x = self.L_x // 2
        self.half_y = self.L_y // 2

    @property
    def coords_x(self):
        """Site coordinates along x, ascending (-half_x .. +half_x)."""
        return np.arange(-self.half_x, self.half_x + 1)

    @property
    def coords_y(self):
        return np.arange(-self.half_y, self.half_y + 1)

    @property
    def shape(self):
        return (self.L_x, self.L_y, N_COMP)

    @property
    def size(self):
        return self.L_x * self.L_y * N_COMP

    def __eq__(self, other):
        return (isinstance(other, LatticeSpec)
                and self.L_x == other.L_x and self.L_y == other.L_y)

    def __repr__(self):
        return f"LatticeSpec(L_x={self.L_x}, L_y={self.L_y})"


def allocate_state(lattice):
    """Zero-filled spinor field on the lattice."""
    return np.zeros(lattice.shape, dtype=complex)


def normalize(state):
    n = np.linalg.norm(state)
    if not n > 0:
        raise ValueError(f"cannot normalize a state of norm {n:g}")
    return state / n


def probability_map(state):
    """Site probability P(x, y) = sum_c |psi(x, y, c)|^2.

    Sums to the squared norm of the state.  The four component planes are
    added in order: the same bits as ``sum(axis=2)``, without the cost of
    a reduction over a length-4 axis.
    """
    sq = np.abs(state) ** 2
    return sq[..., LD] + sq[..., RD] + sq[..., LU] + sq[..., RU]


def position_moments(state, lattice):
    """Mean and standard deviation of the position distribution.

    Parameters
    ----------
    state : ndarray
        Normalized spinor field (norm checked to 1e-6).
    lattice : LatticeSpec

    Returns
    -------
    (mean_x, mean_y, std_x, std_y) : tuple of floats, site units
    """
    P = probability_map(state)
    n = np.sqrt(P.sum())
    if not abs(n - 1.0) <= NORM_TOL_INPUT:
        raise ValueError(
            f"state norm {n:.12g} deviates from 1 by more than "
            f"{NORM_TOL_INPUT:g}; normalize before calling")
    return map_moments(P, lattice)


def map_moments(P, lattice):
    """position_moments of a site-probability map P (shape (L_x, L_y),
    summing to 1), without the norm check: for callers that check the
    norm of the same |psi|^2 pass themselves."""
    px = P.sum(axis=1)          # marginal over y
    py = P.sum(axis=0)
    xs = lattice.coords_x
    ys = lattice.coords_y
    mean_x = float(xs @ px)
    mean_y = float(ys @ py)
    # clip tiny negative round-off under the sqrt
    var_x = max(float((xs ** 2) @ px) - mean_x ** 2, 0.0)
    var_y = max(float((ys ** 2) @ py) - mean_y ** 2, 0.0)
    return mean_x, mean_y, float(np.sqrt(var_x)), float(np.sqrt(var_y))


def apply_phase_kick(state, k_x, k_y, lattice):
    """Multiply by the plane-wave phase e^{i(k_x x + k_y y)} site-wise.

    Imprints momentum (an initial velocity) without changing probabilities.
    """
    phase_x = np.exp(1j * k_x * lattice.coords_x)[:, None, None]
    phase_y = np.exp(1j * k_y * lattice.coords_y)[None, :, None]
    return state * phase_x * phase_y


def translate(state, dx, dy):
    """Rigid shift by (dx, dy) sites with periodic wraparound."""
    return np.roll(state, (dx, dy), axis=(0, 1))
