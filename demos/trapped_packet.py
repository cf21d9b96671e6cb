#!/usr/bin/env python3
"""Launch a wave packet in the linear-angle trap and watch it orbit.

The coin angle grows linearly away from the center, which acts on the
walker like a harmonic potential acts on a massive particle.  A packet
prepared off-center with a small momentum kick settles onto a closed
orbit instead of spreading ballistically.  Desk-scale version of the
`dtqw fig1` preset; runs in a couple of seconds.
"""

import numpy as np

from dtqw import (LatticeSpec, StepOperator2D, prepare_initial_state,
                  run_dynamics)
from dtqw.continuum import BETA, analytic_zero_mode_2d
from dtqw.io import svg_polyline

lat = LatticeSpec(61)
# theta = (pi/20) x, saturating at +-pi/4 beyond |x| = 5
profile = np.clip(np.pi / 20 * lat.coords_x, -np.pi / 4, np.pi / 4)
op = StepOperator2D(lat, profile, profile)

psi = prepare_initial_state(op, analytic_zero_mode_2d(BETA, op.lattice),
                            refine_iters=30, shift=(2, 0),
                            kick=(0.0, np.pi / 10),
                            band_pass=(0.2565, 8.0, 2))
T, mean_x, mean_y, std_x, std_y = run_dynamics(op, psi, T_max=300).T

r = np.hypot(mean_x, mean_y)
late = (T >= 100) & (T <= 300)
print(f"orbit radius: min {r.min():.3f}  max {r.max():.3f}  "
      f"mean {r.mean():.3f} sites")
print(f"packet width (late time): std_x {np.mean(std_x[late]):.2f}  "
      f"std_y {np.mean(std_y[late]):.2f} sites")
print(f"width drift over the last 200 steps: "
      f"{np.std(std_x[late]) / np.mean(std_x[late]):.2%}")

svg_polyline("orbit.svg", mean_x, mean_y, "mean_x", "mean_y")
print("wrote orbit.svg")
