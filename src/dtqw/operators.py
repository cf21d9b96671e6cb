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

The matrix-free kernel (`StepOperator2D.apply` / `apply_adjoint`) takes
and returns states in the public (L_x, L_y, 4) layout of `lattice`.
Inside, it works on the component-major (4, L_x, L_y) view, so each
component is one (L_x, L_y) plane: the coins pair planes, and both shifts
are slice copies with the periodic wrap done as a one-row or one-column
copy.  Every factor writes into a workspace that the operator allocates
once, and only the returned state is a new array.
"""

import numpy as np

from .lattice import N_COMP, allocate_state

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


# the component pairs each coin rotates, as (first, second) slices of the
# component axis: C_x on (LD, RD) and (LU, RU), C_y on (LD, RU) and (RD, LU)
_COIN_PAIRS = {"C_x": (slice(0, 4, 2), slice(1, 4, 2)),
               "C_y": (slice(0, 2), slice(3, 1, -1))}
_FACTORS = ("C_x", "S_x", "C_y", "S_y")    # U applies them left to right
_MOVERS = (slice(0, 4, 2), slice(1, 4, 2))  # (LD, LU) and (RD, RU)


class StepOperator2D:
    """The one-step walk unitary U = S_y C_y S_x C_x for given angle profiles.

    The coin angles are tabulated once per site from the profiles, and
    `apply` / `apply_adjoint` act matrix-free, O(N) per step.  Both take
    and return states in the public (L_x, L_y, 4) layout.  Internally the
    kernel works component-major, on (4, L_x, L_y) planes held in a
    workspace the constructor allocates once; each call returns a fresh
    array.  Because calls share that workspace, one operator must not be
    applied from two threads at once.
    """

    def __init__(self, lattice, profile_x, profile_y):
        self.lattice = lattice
        self.profile_x = profile_x
        self.profile_y = profile_y
        tx = profile_x.table(lattice.half_x)
        ty = profile_y.table(lattice.half_y)
        # (cos, sin) of each coin, shaped to broadcast over (L_x, L_y)
        self._coins = {"C_x": (np.cos(tx)[:, None], np.sin(tx)[:, None]),
                       "C_y": (np.cos(ty)[None, :], np.sin(ty)[None, :])}
        planes = (lattice.L_x, lattice.L_y)
        self._work = np.empty((2, N_COMP) + planes, dtype=complex)
        self._q = np.empty((N_COMP,) + planes, dtype=complex)
        self._t = np.empty((2,) + planes, dtype=complex)

    def _step(self, state, sign):
        """U (sign = +1) or U^T = U^dag (sign = -1) applied to `state`.

        The adjoint runs the factors in reverse order, each transposed:
        -s in the coins, the shift directions swapped, -Q in S_y.  Each
        factor reads `src` and writes the next workspace plane set.
        """
        if state.shape != self.lattice.shape:
            raise ValueError(f"state shape {state.shape} does not match "
                             f"lattice {self.lattice!r}")
        t, q = self._t, self._q
        src = state.transpose(2, 0, 1)      # a view; the input is not written
        for i, factor in enumerate(_FACTORS[::sign]):
            dst = self._work[i % 2]
            if factor in _COIN_PAIRS:
                # each pair (a, b) -> (c a - s b, s a + c b)
                a, b = _COIN_PAIRS[factor]
                c, s = self._coins[factor]
                s = sign * s
                np.multiply(c, src[a], out=dst[a])
                np.multiply(s, src[b], out=t)
                np.subtract(dst[a], t, out=dst[a])
                np.multiply(s, src[a], out=dst[b])
                np.multiply(c, src[b], out=t)
                np.add(dst[b], t, out=dst[b])
            elif factor == "S_x":
                # `ahead` takes f(x + 1), `behind` f(x - 1): the L movers
                # step toward -x, and the adjoint swaps the roles
                ahead, behind = _MOVERS[::sign]
                dst[ahead, :-1] = src[ahead, 1:]
                dst[ahead, -1] = src[ahead, 0]
                dst[behind, 1:] = src[behind, :-1]
                dst[behind, 0] = src[behind, -1]
            else:
                # P = (f(y+1) + f(y-1))/2 into dst, Q = +-(f(y+1) - f(y-1))/2
                for out, combine in ((dst, np.add), (q, np.subtract)):
                    combine(src[..., 2:], src[..., :-2], out=out[..., 1:-1])
                    combine(src[..., 1], src[..., -1], out=out[..., 0])
                    combine(src[..., 0], src[..., -2], out=out[..., -1])
                np.multiply(0.5, dst, out=dst)
                np.multiply(0.5 * sign, q, out=q)
                # (LD, RD) += Q (RD, LD);  (LU, RU) -= Q (RU, LU)
                np.add(dst[0:2], q[1::-1], out=dst[0:2])
                np.subtract(dst[2:4], q[3:1:-1], out=dst[2:4])
            src = dst
        return src.transpose(1, 2, 0).copy()

    def apply(self, state):
        """One walk step: S_y C_y S_x C_x |psi>."""
        return self._step(state, +1)

    def apply_adjoint(self, state):
        """One inverse step: C_x^T S_x^T C_y^T S_y^T |psi>."""
        return self._step(state, -1)

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

