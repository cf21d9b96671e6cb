"""Coin and shift operators and the composite one-step walk unitary.

One time step of the 2D walk is

    U = S_y C_y S_x C_x

applied right-to-left.  In the fixed basis (LD, RD, LU, RU):

* ``C_x`` rotates the (LD,RD) and (LU,RU) pairs by the site angle
  theta_x(x):  [[c,-s],[s,c]] on each pair.
* ``S_x`` moves the L components (LD, LU) one site toward -x and the R
  components (RD, RU) toward +x, periodically.
* ``C_y`` is the real 4x4 matrix with diagonal c = cos(theta_y(y)) and
  off-diagonal entries -s at (LD,RU) and (RD,LU), +s at (LU,RD) and
  (RU,LD); it mixes the D and U sectors.
* ``S_y`` acts through the half-shift combinations
  P f(y) = (f(y+1) + f(y-1))/2 and Q f(y) = (f(y+1) - f(y-1))/2:

      LD' =  P LD + Q RD        LU' =  P LU - Q RU
      RD' =  Q LD + P RD        RU' = -Q LU + P RU

All four factors are real, so the assembled position-space matrix of U is
real for any angle profiles.

At theta_y = 0 on y-uniform states, C_y = S_y = 1, so U is S_x C_x on
each tau pair (LD,RD) and (LU,RU): the 1D split-step walk on (L, R).

The factor table below (COIN_GENERATORS, SHIFT_X_STEPS, SHIFT_Y_Q_CELL) is
the one description of the four factors from which `spectral` derives the
sparse, momentum-block and Bloch forms of U.  The matrix-free kernel here
and `walk_matrix_dense` (which probes that kernel) are written out
independently, so the derived forms can be tested against them.
"""

import numpy as np

from .lattice import LD, RD, LU, RU, allocate_state

# The walk factors in the fixed (LD, RD, LU, RU) order:
# C_axis(theta) = cos(theta) 1 + sin(theta) COIN_GENERATORS[axis];
# S_x moves component c by SHIFT_X_STEPS[c] sites;
# S_y = P 1 + Q SHIFT_Y_Q_CELL with the half-shift combinations P and Q.
COIN_GENERATORS = {
    "x": np.array([[0.0, -1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, -1], [0, 0, 1, 0]]),
    "y": np.array([[0.0, 0, 0, -1], [0, 0, -1, 0],
                   [0, 1, 0, 0], [1, 0, 0, 0]]),
}
SHIFT_X_STEPS = np.array([-1, +1, -1, +1])
SHIFT_Y_Q_CELL = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, -1, 0]])


def coin_matrix(axis, theta):
    """The 4x4 coin for one axis at a single angle.

    axis='x': block-diagonal rotation on (LD,RD) and (LU,RU).
    axis='y': the D/U-mixing real matrix described in the module docstring.
    Both are orthogonal.
    """
    if axis not in COIN_GENERATORS:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return np.cos(theta) * np.eye(4) + np.sin(theta) * COIN_GENERATORS[axis]


def _apply_coin_x(state, c, s):
    # c, s have shape (L_x, 1); state (L_x, L_y, 4)
    out = np.empty_like(state)
    out[:, :, LD] = c * state[:, :, LD] - s * state[:, :, RD]
    out[:, :, RD] = s * state[:, :, LD] + c * state[:, :, RD]
    out[:, :, LU] = c * state[:, :, LU] - s * state[:, :, RU]
    out[:, :, RU] = s * state[:, :, LU] + c * state[:, :, RU]
    return out


def _apply_coin_y(state, c, s):
    # c, s have shape (1, L_y)
    out = np.empty_like(state)
    out[:, :, LD] = c * state[:, :, LD] - s * state[:, :, RU]
    out[:, :, RD] = c * state[:, :, RD] - s * state[:, :, LU]
    out[:, :, LU] = s * state[:, :, RD] + c * state[:, :, LU]
    out[:, :, RU] = s * state[:, :, LD] + c * state[:, :, RU]
    return out


def _apply_shift_x(state, sign=+1):
    # sign=+1: the forward shift; sign=-1: its adjoint (directions swapped)
    out = np.empty_like(state)
    out[:, :, LD] = np.roll(state[:, :, LD], -sign, axis=0)
    out[:, :, LU] = np.roll(state[:, :, LU], -sign, axis=0)
    out[:, :, RD] = np.roll(state[:, :, RD], sign, axis=0)
    out[:, :, RU] = np.roll(state[:, :, RU], sign, axis=0)
    return out


def _apply_shift_y(state, sign=+1):
    up = np.roll(state, -1, axis=1)    # f(y+1)
    down = np.roll(state, 1, axis=1)   # f(y-1)
    P = 0.5 * (up + down)
    Q = 0.5 * sign * (up - down)       # adjoint flips the sign of Q
    out = np.empty_like(state)
    out[:, :, LD] = P[:, :, LD] + Q[:, :, RD]
    out[:, :, RD] = Q[:, :, LD] + P[:, :, RD]
    out[:, :, LU] = P[:, :, LU] - Q[:, :, RU]
    out[:, :, RU] = -Q[:, :, LU] + P[:, :, RU]
    return out


class StepOperator2D:
    """The one-step walk unitary U = S_y C_y S_x C_x for given angle profiles.

    Coins are evaluated lazily per site from the profiles (matrix-free
    application, O(N) per step).  The operator is immutable after
    construction.
    """

    def __init__(self, lattice, profile_x, profile_y):
        self.lattice = lattice
        self.profile_x = profile_x
        self.profile_y = profile_y
        tx = profile_x.table(lattice.half_x)
        ty = profile_y.table(lattice.half_y)
        self._cx = np.cos(tx)[:, None]
        self._sx = np.sin(tx)[:, None]
        self._cy = np.cos(ty)[None, :]
        self._sy = np.sin(ty)[None, :]

    def _check(self, state):
        if state.shape != self.lattice.shape:
            raise ValueError(f"state shape {state.shape} does not match "
                             f"lattice {self.lattice!r}")

    def apply(self, state):
        """One walk step: S_y C_y S_x C_x |psi>."""
        self._check(state)
        psi = _apply_coin_x(state, self._cx, self._sx)
        psi = _apply_shift_x(psi)
        psi = _apply_coin_y(psi, self._cy, self._sy)
        psi = _apply_shift_y(psi)
        return psi

    def apply_adjoint(self, state):
        """One inverse step: C_x^T S_x^T C_y^T S_y^T |psi>."""
        self._check(state)
        psi = _apply_shift_y(state, sign=-1)
        psi = _apply_coin_y(psi, self._cy, -self._sy)
        psi = _apply_shift_x(psi, sign=-1)
        psi = _apply_coin_x(psi, self._cx, -self._sx)
        return psi

    def __repr__(self):
        return (f"StepOperator2D({self.lattice!r}, "
                f"x={self.profile_x.to_spec_string()}, "
                f"y={self.profile_y.to_spec_string()})")


def walk_matrix_dense(op):
    """Explicit matrix of U by applying the step to every basis vector.

    Index layout matches ``state.reshape(-1)``: (x, y, c) with c fastest.
    Intended for small lattices (tests, symmetry checks); O(N^2) memory.
    """
    n = op.lattice.size
    if n > 40000:
        raise ValueError(f"dense walk matrix with {n} rows is too large; "
                         "use the sparse builder or the matrix-free operator")
    U = np.empty((n, n), dtype=complex)
    basis = allocate_state(op.lattice)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        U[:, j] = op.apply(basis).reshape(-1)
        flat[j] = 0.0
    return U

