"""wavelab: a desk-scale laboratory for a cubic semilinear wave system in 2D.

The package simulates the two-component system

    u1_tt - Lap u1 = -(d_t u2)^2 d_t u1,
    u2_tt - Lap u2 = -(d_t u1)^2 d_t u2,

with small compactly supported data (eps f, eps g), extracts the outgoing
null-ray profiles V_j and checks that the scattering invariant
m = V_1^2 - V_2^2 is reproduced, to leading order in eps, by the squared
sigma-derivatives of the radiation fields of the data.
"""

from .bumps import (BumpSpec, InitialData, eval_sum, initial_values,
                    sum_value_grad_hess)
from .config import (ConfigParseError, ConfigValidationError, ScenarioConfig,
                     parse_scenario)
from .fitting import PowerLawFit, fit_power_law
from .free_wave import free_field
from .profile import (MEstimate, ProfileTrace, RayTraceCollector,
                      closed_form_profile, corrected_invariant, leading_invariant,
                      profile_invariant, solve_reduced_ode)
from .radiation import (RadiationTable, fit_sigma_decay, half_order_integral,
                        radiation_pair, radiation_table)
from .solver import (EnergyTrace, InstabilityError, WaveState, init_state,
                     run_simulation)

__version__ = "0.1.0"

__all__ = [
    "BumpSpec", "InitialData", "eval_sum", "sum_value_grad_hess", "initial_values",
    "ScenarioConfig", "parse_scenario",
    "ConfigParseError", "ConfigValidationError",
    "PowerLawFit", "fit_power_law",
    "free_field",
    "RadiationTable", "radiation_table", "radiation_pair",
    "half_order_integral", "fit_sigma_decay",
    "WaveState", "EnergyTrace", "InstabilityError", "init_state",
    "run_simulation",
    "ProfileTrace", "RayTraceCollector", "MEstimate",
    "solve_reduced_ode", "closed_form_profile", "profile_invariant",
    "corrected_invariant", "leading_invariant",
    "__version__",
]
