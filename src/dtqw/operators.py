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
real for any angle tables.

At theta_y = 0 on y-uniform states, C_y = S_y = 1, so U is S_x C_x on
each tau pair (LD,RD) and (LU,RU): the 1D split-step walk on (L, R).

The factor table below (COIN_GENERATORS, SHIFT_X_STEPS, SHIFT_Y_Q_CELL) is
the one description of the four factors from which `spectral` derives the
other forms of U.  The sparse matrix and the momentum-block terms are
written from per-site 4x4 blocks Y C_y D_s C_x, the walk taken from each
site to its neighbours (x - s, y'), with D_s keeping the components that
move by s and Y the y cell of the term toward y'; the Bloch form is the
4x4 product at (k_x, k_y).  The matrix-free kernel here
and `walk_matrix_dense` (which probes that kernel) are written out
independently, so the derived forms can be tested against them.

The matrix-free kernel is `StepOperator2D`.  Inside, each component is
one plane of L_x L_y complex numbers, site (x, y) at flat index
x L_y + y.  The four planes sit in mover order (LD, LU, RD, RU), each
padded with one wrap row at each end: the row planes.  `apply` /
`apply_adjoint` take and return states in the public (L_x, L_y, 4)
layout of `lattice`; the input is read and the output written through
strided views of the planes.  `evolution.run_dynamics` instead loads its
state into the row planes once and steps it there in place, taking each
recorded |psi|^2 map straight from the planes, so a walked state is not
re-laid out between steps.  A step is two stages.

* The x stage rotates each (L, R) pair by C_x into the row planes, in
  place when the state is held there.  S_x is folded into the next
  stage's reads: the L movers are read one row ahead (x + 1) and the R
  movers one row behind (x - 1), flat offsets of +-L_y, once the wrap
  row each read crosses has been copied in.
* The y stage folds C_y and S_y together.  From the x-stage output b it
  forms the sums and differences

      s1 = LD + RD,  s2 = LU + RU,  d1 = LD - RD,  d2 = LU - RU,

  rotates them by the y coin (c, s = cos, sin theta_y(y)) with S_y's 1/2
  folded into the coefficients,

      g = (c s1 - s s2)/2        q = (s s1 + c s2)/2
      h = (c d1 + s d2)/2        p = (c d2 - s d1)/2,

  and applies S_y as a two-term stencil:

      LD' = g(y+1) + h(y-1)      LU' = p(y+1) + q(y-1)
      RD' = g(y+1) - h(y-1)      RU' = q(y-1) - p(y+1).

  This is S_y C_y b written out.  With d = C_y b, g and h are
  (d_LD +- d_RD)/2 and q and p are (d_LU +- d_RU)/2, and the S_y rows
  read P f + Q f' = (f + f')(y+1)/2 + (f - f')(y-1)/2.  The y shift is a
  flat offset of +-1; on the two wrap columns, where that offset crosses
  into the next row, the stencil is applied again with the periodic
  neighbours.  The stencil writes the new state back into the row
  planes' interior when the state is held there.

The adjoint U^T = C_x^T S_x^T C_y^T S_y^T runs the transposed stages in
reverse in the same form.  The transposed stencil reads sums and
differences of the input across the shift,

    G = s1(y-1),  P = d2(y-1),  Q = s2(y+1),  H = d1(y+1);

the transposed rotation gives S1 = (c G + s Q)/2, S2 = (c Q - s G)/2,
D1 = (c H - s P)/2 and D2 = (c P + s H)/2; the movers are (LD, LU) =
(S1 + D1, S2 + D2) and (RD, RU) = (S1 - D1, S2 - D2); then S_x^T reads
the L movers at x - 1 and the R movers at x + 1, and C_x^T rotates each
pair back by theta_x(x).  The coin coefficients are tabulated once per
site, every stage writes into planes the operator allocates once, and
only the returned state is a new array.  That workspace is shared by
`apply`, `apply_adjoint` and the held state's steps, so an operator is
not re-entrant.
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
    """The 4x4 coin for one axis, shaped theta.shape + (4, 4).

    axis='x': block-diagonal rotation on (LD,RD) and (LU,RU).
    axis='y': the D/U-mixing real matrix described in the module docstring.
    Both are orthogonal.
    """
    if axis not in COIN_GENERATORS:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * np.eye(4) + np.sin(theta) * COIN_GENERATORS[axis]


def _rotate(c, s, a, b, out_a, out_b, t, sign):
    """out_a = c a - sign s b and out_b = c b + sign s a, through the
    scratch stacks t[0] and t[1].

    c and s are coefficient planes that broadcast against the plane stacks
    a and b; sign = +1 applies a coin, -1 its transpose.  Both products
    with s are taken first, so out_a and out_b may be a and b themselves.
    """
    minus, plus = (np.subtract, np.add)[::sign]
    np.multiply(s, b, out=t[0])
    np.multiply(s, a, out=t[1])
    np.multiply(c, a, out=out_a)
    minus(out_a, t[0], out=out_a)
    np.multiply(c, b, out=out_b)
    plus(out_b, t[1], out=out_b)


def _read_rows(planes, step):
    """Planes (k, L_x + 2, L_y) holding rows x = 0..L_x-1 in 1..L_x, read at
    x + step (step = +-1) as flat (k, L_x L_y) views.  The wrap row that
    read crosses is copied in first."""
    if step > 0:
        planes[:, -1] = planes[:, 1]
    else:
        planes[:, 0] = planes[:, -2]
    return planes[:, 1 + step:planes.shape[1] - 1 + step].reshape(
        len(planes), -1)


def _stencil(out, up, down):
    """S_y on the rotated planes (g, p, q, h) into the mover stacks `out`
    ((LD, LU), (RD, RU)) from `up`, those planes read at y + 1, and
    `down`, read at y - 1."""
    np.add(up[0:2], down[3:1:-1], out=out[0])      # g+ + h-,  p+ + q-
    np.subtract(up[0], down[3], out=out[1, 0])     # g+ - h-
    np.subtract(down[2], up[1], out=out[1, 1])     # q- - p+


def _stencil_transpose(out, up, down):
    """The transpose of `_stencil`: (G, P, Q, H) into `out` from the mover
    stacks ((LD, LU), (RD, RU)) read at y + 1 (`up`) and y - 1 (`down`)."""
    np.add(down[0, 0], down[1, 0], out=out[0])       # s1 at y - 1
    np.subtract(down[0, 1], down[1, 1], out=out[1])  # d2 at y - 1
    np.add(up[0, 1], up[1, 1], out=out[2])           # s2 at y + 1
    np.subtract(up[0, 0], up[1, 0], out=out[3])      # d1 at y + 1


def _shift_y(stencil, out, planes, L_y):
    """stencil(out, up, down) over stacks of flat L_x L_y planes, with `up`
    read at y + 1 and `down` at y - 1.  The flat offsets of +-1 are right
    everywhere but on the two wrap columns, which are done again."""
    stencil(out[..., 1:-1], planes[..., 2:], planes[..., :-2])
    out = out.reshape(out.shape[:-1] + (-1, L_y))
    planes = planes.reshape(planes.shape[:-1] + (-1, L_y))
    stencil(out[..., 0], planes[..., 1], planes[..., -1])
    stencil(out[..., -1], planes[..., 0], planes[..., -2])


def _mover_view(state):
    """A public (L_x, L_y, 4) state as its mover stacks: a (2, 2, L_x L_y)
    view indexed (L/R, D/U, site), so [0] is (LD, LU) and [1] (RD, RU)."""
    return state.reshape(-1, 2, 2).transpose(2, 1, 0)


def _angle_table(name, values, n):
    """A float copy of the angle table `name`, refused unless it holds n
    finite values."""
    table = np.array(values, dtype=float)
    if table.shape != (n,):
        raise ValueError(f"{name} must be a table of {n} angles, got shape "
                         f"{table.shape}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name} holds a value that is not finite")
    return table


class StepOperator2D:
    """The one-step walk unitary U = S_y C_y S_x C_x for given angle tables.

    `theta_x` holds L_x angles and `theta_y` L_y, site coordinates
    ascending (``profiles.profile_table`` gives them from the profile
    grammar); the walk keeps float copies under the same names, and
    everything built from it reads these tables.  The kernel's coin
    coefficients come from them as flat planes stored complex so that
    every product is one same-dtype loop.  `apply` / `apply_adjoint` act
    matrix-free, O(N) per step, in the two stages of the module
    docstring.  Both take and return states in the public (L_x, L_y, 4)
    layout; the input is only read, and each call returns a fresh
    C-contiguous array.

    The operator also holds a walked state itself, in the interior of its
    row planes in mover order (LD, LU, RD, RU): `_load` copies a state
    in, `_step` advances it by one U in place through the same two
    stages as `apply`, and `_probability_map` gives its |psi|^2 map.
    `evolution.run_dynamics` steps this way, so its state is laid out
    once per run, not once per step.  `apply`, `apply_adjoint` and the
    held state share the one workspace the constructor allocates: a call
    of `apply` or `apply_adjoint` overwrites a held state, and an
    operator is not re-entrant (not from two threads at once, and not
    from inside a `run_dynamics` loop on it).
    """

    def __init__(self, lattice, theta_x, theta_y):
        self.lattice = lattice
        L_x, L_y = lattice.L_x, lattice.L_y
        n = L_x * L_y
        self.theta_x = tx = _angle_table("theta_x", theta_x, L_x)
        self.theta_y = ty = _angle_table("theta_y", theta_y, L_y)
        # (cos, sin) theta_x(x), and (cos, sin) theta_y(y) with S_y's 1/2
        self._cx, self._sx = (np.repeat(f(tx), L_y).astype(complex)
                              for f in (np.cos, np.sin))
        self._cy, self._sy = (np.tile(0.5 * f(ty), L_x).astype(complex)
                              for f in (np.cos, np.sin))
        # the row planes ((LD, LU), (RD, RU)), with a wrap row at each end,
        # their interior as mover stacks, and a stack of four flat planes
        # for the y stage
        self._rows = np.empty((2, 2, L_x + 2, L_y), dtype=complex)
        self._movers = self._rows[:, :, 1:-1].reshape(2, 2, n)  # a view
        self._flat = np.empty((N_COMP, n), dtype=complex)
        # between steps the y stage's planes hold |psi|^2 and its map
        floats = self._flat.reshape(-1).view(float)
        self._squares = floats[:N_COMP * n].reshape(2, 2, n)
        self._map = floats[N_COMP * n:(N_COMP + 1) * n].reshape(L_x, L_y)

    def _components(self, state):
        """`state` as its (2, 2, L_x L_y) mover stacks (`_mover_view`)."""
        if state.shape != self.lattice.shape:
            raise ValueError(f"state shape {state.shape} does not match "
                             f"lattice {self.lattice!r}")
        return _mover_view(np.asarray(state, dtype=complex))

    def _x_stage(self, L, R):
        """C_x on the mover pairs L = (LD, LU) and R = (RD, RU) into the
        row planes, which L and R may be themselves."""
        _rotate(self._cx, self._sx, L, R, self._movers[0], self._movers[1],
                self._flat.reshape(2, 2, -1), +1)

    def _y_stage(self, out):
        """S_y C_y S_x of the row planes into the mover stacks `out`, which
        may be the planes' interior itself."""
        sums = self._flat
        # S_x: the L movers step toward -x, so site x reads x + 1
        ahead = _read_rows(self._rows[0], +1)
        behind = _read_rows(self._rows[1], -1)
        # (s1, d2, s2, d1), rotated in place into (g, p, q, h)
        np.add(ahead, behind, out=sums[0::2])
        np.subtract(ahead, behind, out=sums[3:0:-2])
        _rotate(self._cy, self._sy, sums[0:2], sums[2:4],
                sums[0:2], sums[2:4], self._movers, +1)
        _shift_y(_stencil, out, sums, self.lattice.L_y)

    def apply(self, state):
        """One walk step: S_y C_y S_x C_x |psi>."""
        self._x_stage(*self._components(state))
        out = np.empty(self.lattice.shape, dtype=complex)
        self._y_stage(_mover_view(out))
        return out

    def _load(self, state):
        """Hold `state` in the row planes, for `_step`."""
        self._movers[...] = self._components(state)

    def _step(self):
        """Advance the held state by one walk step, in place."""
        self._x_stage(*self._movers)
        self._y_stage(self._movers)

    def _probability_map(self):
        """The (L_x, L_y) map |psi|^2 of the held state, with the bits of
        ``lattice.probability_map``: a view into the y stage's planes,
        valid until the next step."""
        sq, P = self._squares, self._map.reshape(-1)
        np.abs(self._movers, out=sq)
        np.square(sq, out=sq)
        np.add(sq[0, 0], sq[1, 0], out=P)    # LD + RD
        np.add(P, sq[0, 1], out=P)           # + LU
        np.add(P, sq[1, 1], out=P)           # + RU
        return self._map

    def apply_adjoint(self, state):
        """One inverse step: C_x^T S_x^T C_y^T S_y^T |psi>."""
        psi = self._components(state)
        sums = self._flat
        movers = self._movers
        # y stage transposed: (G, P, Q, H), rotated in place into
        # (S1, D2, S2, D1)
        _shift_y(_stencil_transpose, sums, psi, self.lattice.L_y)
        _rotate(self._cy, self._sy, sums[0:2], sums[2:4],
                sums[0:2], sums[2:4], movers, -1)
        # the movers (L, R) = (S1, S2) +- (D1, D2)
        np.add(sums[0::2], sums[3:0:-2], out=movers[0])
        np.subtract(sums[0::2], sums[3:0:-2], out=movers[1])
        # S_x^T reads the L movers at x - 1, then C_x^T
        out = np.empty(self.lattice.shape, dtype=complex)
        o = _mover_view(out)
        _rotate(self._cx, self._sx, _read_rows(self._rows[0], -1),
                _read_rows(self._rows[1], +1), o[0], o[1],
                sums.reshape(2, 2, -1), -1)
        return out


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

