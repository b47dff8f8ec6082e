"""Null-ray profiles, the reduced system and the scattering invariant.

Along outgoing rays the field's rescaled derivative amplitudes (V1, V2)
follow the reduced system  dV_j/dt = -V_j V_k^2 / (2t) + remainder, whose
truncation conserves m = V1^2 - V2^2.  The demo extracts V along rays from
a nonlinear run, compares the measured invariant against both the corrected
estimator (remainder integral added back) and the radiation-field leading
term eps^2 (dF1^2 - dF2^2), and shows the reduced system's closed form.

Run:  python demos/04_ray_profiles_and_invariant.py
"""

import numpy as np

from wavelab import (BumpSpec, InitialData, ScenarioConfig, closed_form_profile,
                     corrected_invariant, leading_invariant, radiation_table,
                     run_simulation, solve_reduced_ode)
from wavelab.profile import RayTraceCollector

# reduced system: integrator against the closed form
print("reduced system, (V10, V20) = (0.4, 0.15), t in [2, 2e5]:")
tev = np.geomspace(2.0, 2e5, 7)
_, v1, v2 = solve_reduced_ode(0.4, 0.15, 2.0, 2e5, t_eval=tev)
c1, c2 = closed_form_profile(0.4, 0.15, 2.0, tev)
for t, a, b, c, d in zip(tev, v1, v2, c1, c2):
    print(f"  t={t:10.1f}  V1={a:.8f} ({c:.8f})  V2={b:.8f} ({d:.8f})")
print("  (closed-form values in parentheses; V2 dies, V1^2 -> m)")

# invariant from a nonlinear run
data = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                   g2=(BumpSpec((0.0, 0.0), 1.0, 0.6),), epsilon=0.2)
eps = data.epsilon
T = 4.0 / eps
config = ScenarioConfig(name="conservation", data=data, mode="radial", T=T)
sigmas = [-2.0, -1.0, 0.0, 0.5]
collector = RayTraceCollector(sigmas)
times = np.append(np.arange(0.0, T, 4 * config.dt), T)
print(f"\nnonlinear radial run to T = 4/eps = {T} ...")
run_simulation(config, nonlinear=True, samplers=[(times, collector)])

grid = np.arange(-2.6, data.support_radius + 0.2, 0.02)
table = radiation_table(data, grid, [0.0])

print("\n sigma   m_direct      m_corrected   eps^2(dF1^2-dF2^2)   resid/leading")
for tr in collector.traces():
    m_direct = tr.invariant_at(T)
    m_corr = corrected_invariant(tr, T)
    m_lead = leading_invariant(table, eps, tr.sigma)
    rel = (m_direct - m_lead) / m_lead if m_lead else float("nan")
    print(f"{tr.sigma:6.2f}  {m_direct: .6e}  {m_corr: .6e}  {m_lead: .6e}   {rel:+.2%}")
print("(the leading term captures the invariant to a few percent at eps = 0.2)")
