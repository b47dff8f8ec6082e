"""Engineering data so that neither component's energy can decay.

If |dF1| > |dF2| somewhere and |dF2| > |dF1| somewhere else, the invariant
m takes both signs, so each component keeps a non-trivial radiating part.
A wide bump against a narrow one separates the two derivative profiles in
sigma; the crossing is checked from the radiation table before any PDE is
solved, and the run then shows both energies holding their floor.

Run:  python demos/06_energy_nondecay.py
"""

import numpy as np

from wavelab import (BumpSpec, EnergyTrace, InitialData, ScenarioConfig,
                     radiation_table, run_simulation)

data = InitialData(
    g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),     # wide
    g2=(BumpSpec((0.0, 0.0), 0.5, 1.6),),     # narrow, amplified
    epsilon=0.2,
)
grid = np.arange(-2.0, data.support_radius + 0.2, 0.02)
table = radiation_table(data, grid, [0.0])
gap = np.abs(table.dF[0, :, 0]) - np.abs(table.dF[1, :, 0])
i_hi, i_lo = int(np.argmax(gap)), int(np.argmin(gap))
print("crossing condition from the radiation table:")
print(f"  |dF1| - |dF2| = {gap[i_hi]:+.4f} at sigma = {grid[i_hi]:.2f}  (component 1 wins)")
print(f"  |dF1| - |dF2| = {gap[i_lo]:+.4f} at sigma = {grid[i_lo]:.2f}  (component 2 wins)")

T = 4.0 / data.epsilon
config = ScenarioConfig(name="nondecay-demo", data=data, mode="radial", T=T)
print(f"\nnonlinear run to T = {T} ...")
trace = EnergyTrace(config)
run_simulation(config, nonlinear=True, samplers=[(trace.times, trace)])

late = trace.t >= T / 2
print(f"E1^2: initial {trace.E1sq[0]:.5f}, floor on [T/2, T]: "
      f"{np.min(trace.E1sq[late]) / trace.E1sq[0]:.3f} of the initial value")
print(f"E2^2: initial {trace.E2sq[0]:.5f}, floor on [T/2, T]: "
      f"{np.min(trace.E2sq[late]) / trace.E2sq[0]:.3f} of the initial value")
print("\nboth components keep almost all of their energy: neither scatters to zero")
