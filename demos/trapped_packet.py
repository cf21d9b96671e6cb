#!/usr/bin/env python3
"""Launch a wave packet in the linear-angle trap and watch it orbit.

The coin angle grows linearly away from the center, which acts on the
walker like a harmonic potential acts on a massive particle.  A packet
prepared off-center with a small momentum kick settles onto a closed
orbit instead of spreading ballistically.  Desk-scale version of the
`dtqw fig1` preset; runs in a couple of seconds.
"""

import numpy as np

from dtqw import DynamicsSpec, LatticeSpec, StepOperator2D, run_dynamics
from dtqw.io import svg_polyline
from dtqw.profiles import LinearSaturated

profile = LinearSaturated(np.pi / 20, 5, np.pi / 4)
op = StepOperator2D(LatticeSpec(61), profile, profile)

spec = DynamicsSpec(op, T_max=300, refine_iters=30,
                    shift=(2, 0), kick=(0.0, np.pi / 10),
                    band_pass=(0.2565, 8.0, 2))
series = run_dynamics(spec)

r = np.hypot(series.mean_x, series.mean_y)
late = series.window(100, 300)
print(f"orbit radius: min {r.min():.3f}  max {r.max():.3f}  "
      f"mean {r.mean():.3f} sites")
print(f"packet width (late time): std_x {np.mean(late.std_x):.2f}  "
      f"std_y {np.mean(late.std_y):.2f} sites")
print(f"width drift over the last 200 steps: "
      f"{np.std(late.std_x) / np.mean(late.std_x):.2%}")

svg_polyline("orbit.svg", series.mean_x, series.mean_y, "mean_x", "mean_y")
print("wrote orbit.svg")
