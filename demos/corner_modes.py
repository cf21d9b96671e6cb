#!/usr/bin/env python3
"""Corner-localized zero modes of crossed domain walls.

With sign-flipping walls in both coin angles, the four points where the
walls cross each trap a pair of modes pinned near quasi-energy zero.
These are the walk's second-order topological states: products of two
1D wall-bound states, with no dispersing direction left.
"""

import numpy as np

from dtqw import LatticeSpec, StepOperator2D, near_unity_states
from dtqw.lattice import probability_map
from dtqw.spectral import corner_weight

LW = 6
lat = LatticeSpec(25)
# pi/3 for |x| <= LW, -pi/3 beyond, on both axes
wall = np.where(np.abs(lat.coords_x) <= LW, np.pi / 3, -np.pi / 3)
op = StepOperator2D(lat, wall, wall)

E, states, resid = near_unity_states(op, 8)
corners = [(sx * LW, sy * LW) for sx in (1, -1) for sy in (1, -1)]

print(f"{'E':>13}  {'residual':>9}  {'corner weight':>13}")
for e, s, r in zip(E, states, resid):
    w = corner_weight(probability_map(s), LW, LW)
    print(f"{e:+13.3e}  {r:9.1e}  {w:13.3f}")

print(f"\nwall crossings at {corners}; weight measured within "
      f"Manhattan radius 5 of any crossing")
