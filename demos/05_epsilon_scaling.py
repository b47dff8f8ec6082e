"""Scaling of the invariant's residual in the amplitude parameter.

The leading term of the invariant is eps^2 (dF1^2 - dF2^2); the remainder
is of higher order in eps.  Measuring m directly at T = 4/eps over a ladder
of amplitudes and fitting the residual against eps exposes that exponent
(contract: slope >= 2.2; the full-accuracy study lives in the
epsilon-scaling scenario).

Run:  python demos/05_epsilon_scaling.py    (about ten seconds)
"""

import numpy as np

from wavelab import (BumpSpec, InitialData, ScenarioConfig, fit_power_law,
                     leading_invariant, radiation_table, run_simulation)
from wavelab.profile import RayTraceCollector

data0 = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                    g2=(BumpSpec((0.0, 0.0), 1.0, 0.6),), epsilon=0.4)
sigmas = [-2.0, -1.0, 0.0, 0.5]
grid = np.arange(-2.6, data0.support_radius + 0.2, 0.02)
table = radiation_table(data0, grid, [0.0])

eps_ladder = [0.4, 0.4 / np.sqrt(2), 0.2, 0.2 / np.sqrt(2), 0.1]
residuals = []
print("  eps      T      max |m_direct - m_leading|")
for eps in eps_ladder:
    data = data0.with_epsilon(eps)
    T = 4.0 / eps
    cfg = ScenarioConfig(name="conservation", data=data, mode="radial", T=T)
    col = RayTraceCollector(sigmas)
    times = np.append(np.arange(0.0, T, 4 * cfg.dt), T)
    # a light-cone window: advance only the cells rays at sigma >= -2 can see
    run_simulation(cfg, nonlinear=True, samplers=[(times, col)], cone=min(sigmas))
    worst = max(abs(tr.invariant_at(T) - leading_invariant(table, eps, tr.sigma))
                for tr in col.traces())
    residuals.append(worst)
    print(f"  {eps:.4f}  {T:5.1f}   {worst:.3e}")

fit = fit_power_law(eps_ladder, residuals)
print(f"\nfitted residual exponent: {fit.slope:.3f}  (r^2 = {fit.r_squared:.4f})")
print("halving eps cuts the residual by ~2^2.4: the eps^2 term is the whole story")
