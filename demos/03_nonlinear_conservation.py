"""The two conservation laws of the coupled cubic system.

The system dissipates total energy at rate 2 * int (u1_t)^2 (u2_t)^2 dx
while keeping the difference E1^2 - E2^2 exactly constant.  A radial
nonlinear run shows both: the trace's difference column stays put at the
discretization floor while the total follows the accumulated dissipation.

Run:  python demos/03_nonlinear_conservation.py
"""

import numpy as np

from wavelab import BumpSpec, InitialData, ScenarioConfig, run_simulation

data = InitialData(
    f1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
    g1=(BumpSpec((0.0, 0.0), 0.7, -0.5),),
    f2=(BumpSpec((0.0, 0.0), 0.8, 0.3),),
    g2=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
    epsilon=0.3,
)
config = ScenarioConfig(name="conservation", data=data, mode="radial", T=40.0)
print(f"radial nonlinear run: eps={data.epsilon}, T={config.T}, h={config.h:.5f}")

trace = run_simulation(config, nonlinear=True)

print("\n   t      E1^2       E2^2       diff        total      cum 2*D")
for i in range(0, len(trace.t), len(trace.t) // 10):
    print(f"{trace.t[i]:6.2f}  {trace.E1sq[i]:.6f}  {trace.E2sq[i]:.6f}  "
          f"{trace.diff[i]:+.6f}  {trace.total[i]:.6f}  {2 * trace.cum_D[i]:.6f}")

drift = np.max(np.abs(trace.diff - trace.diff[0])) / trace.E1sq[0]
balance = np.max(np.abs(trace.total - trace.total[0] + 2 * trace.cum_D)) / trace.total[0]
print(f"\ndifference-law relative drift: {drift:.2e}")
print(f"energy-balance relative residual: {balance:.2e}")
print(f"fraction of the total energy dissipated: {1 - trace.total[-1] / trace.total[0]:.2%}")
