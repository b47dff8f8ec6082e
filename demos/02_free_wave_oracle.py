"""The free-wave quadrature oracle against the grid solver.

The 2D Poisson representation, evaluated by clipped quadrature with exact
bump derivatives, serves as the reference solution.  A short Cartesian free
run is compared against it at a handful of spacetime points, and halving the
grid shows the expected second-order error decay.

Run:  python demos/02_free_wave_oracle.py
"""

import math

import numpy as np

from wavelab import (BumpSpec, InitialData, ScenarioConfig, field_value,
                     free_field, run_simulation)

data = InitialData(
    f1=(BumpSpec((0.0, 0.0), 1.8, 1.0),),
    g1=(BumpSpec((0.0, 0.0), 1.5, -0.5),),
    epsilon=1.0,
)
T = 1.0
points = [(0.5, 0.4, 0.2), (1.0, 0.9, -0.3), (1.0, 0.1, 0.1), (0.5, -1.2, 0.8)]

print("oracle values:")
oracle = {}
for (t, x, y) in points:
    p = free_field(data, t, np.array([x, y]))
    oracle[(t, x, y)] = p.u[0]
    print(f"  t={t} x=({x},{y}):  u={p.u[0]: .6f}  u_t={p.ut[0]: .6f}")

print("\ngrid solver against the oracle under refinement:")
# dt = cfl * h divides the check times and halves exactly with h
n0 = math.ceil(0.25 / (0.45 / 16))
for h in (1 / 16, 1 / 32, 1 / 64):
    cfg = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                         T=T, h=h, cfl=0.25 / (n0 / 16))
    errs = []

    def check(state):
        errs.extend(abs(field_value(state, (x, y))[0] - oracle[(t, x, y)])
                    for (t, x, y) in points if abs(t - state.t) < 1e-9)

    run_simulation(cfg, nonlinear=False, samplers=[((0.5, 1.0), check)])
    err = max(errs)
    print(f"  h = 1/{round(1/h)}: max error {err:.3e}   error/h^2 = {err / h / h:.2f}")

print("\nthe error/h^2 ratio is flat: clean second-order convergence")
