"""Named experiments: each runs a study, writes CSVs and asserts its contract.

Every scenario returns a summary dict (also written to summary.json in the
output directory) whose "assertions" block lists named pass/fail checks with
measured values and thresholds.  A scenario passes iff all assertions pass.

The seven scenarios:

  conservation     difference law E1^2 - E2^2 constant and energy balance,
                   with an h-refinement order check
  free-validation  Cartesian free solver against the Poisson-formula oracle,
                   plus radiation-field approximation decay along rays
  radiation-decay  sigma-decay rate of d_sigma F and exact support
  profile-oracle   reduced ODE against the closed form, invariant drift,
                   and the sign trichotomy of the invariant
  epsilon-scaling  residual of the invariant against its leading term over
                   an epsilon ladder; fitted power and pointwise agreement
  nondecay-demo    radiation-field crossing condition, then energy floors
                   for both components
  symmetric-decay  identical components, monotone total energy, profile
                   decay against the zero-invariant closed form
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .bumps import BumpSpec, InitialData
from .config import ScenarioConfig
from .fitting import fit_power_law
from .free_wave import free_field
from .profile import (ProfileTrace, RayTraceCollector, closed_form_profile,
                      corrected_invariant, field_value, leading_invariant,
                      profile_invariant, solve_reduced_ode, write_mestimates,
                      MEstimate)
from .radiation import fit_sigma_decay, radiation_pair, radiation_table
from .reporting import Assertion, write_csv, write_summary
from .solver import run_simulation

__all__ = ["SCENARIOS", "READS", "EPS_LIST", "UsageError",
           "default_config", "run_scenario"]


class UsageError(ValueError):
    """Unknown scenario or unusable invocation (CLI exit code 2)."""


def _b(radius, amplitude, center=(0.0, 0.0)):
    return BumpSpec(center=center, radius=radius, amplitude=amplitude)


def _eps_ladder():
    return (0.4, 0.4 / math.sqrt(2.0), 0.2, 0.2 / math.sqrt(2.0), 0.1)


def default_config(name: str) -> ScenarioConfig:
    """Built-in configuration for each named scenario."""
    if name == "conservation":
        data = InitialData(f1=(_b(1.0, 1.0),), g1=(_b(0.7, -0.5),),
                           f2=(_b(0.8, 0.3),), g2=(_b(1.0, 1.0),), epsilon=0.3)
        return ScenarioConfig(name=name, data=data, mode="radial", T=40.0)
    if name == "free-validation":
        data = InitialData(f1=(_b(1.8, 1.0),), g1=(_b(1.5, -0.5),),
                           f2=(_b(1.8, 0.7),), g2=(_b(1.6, 0.4),), epsilon=1.0)
        return ScenarioConfig(name=name, data=data, mode="cartesian-2d",
                              T=1.0, h=1.0 / 16.0)
    if name == "radiation-decay":
        data = InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 1.0),), epsilon=0.2)
        return ScenarioConfig(name=name, data=data, mode="radial", T=1.0)
    if name == "profile-oracle":
        data = InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 1.0),), epsilon=0.2)
        return ScenarioConfig(name=name, data=data, mode="radial", T=1.0)
    if name == "epsilon-scaling":
        data = InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 0.6),), epsilon=0.4)
        return ScenarioConfig(name=name, data=data, mode="radial",
                              eps_list=_eps_ladder(),
                              sigma_samples=(-2.0, -1.0, 0.0, 0.5))
    if name == "nondecay-demo":
        data = InitialData(g1=(_b(1.0, 1.0),), g2=(_b(0.5, 1.6),), epsilon=0.2)
        return ScenarioConfig(name=name, data=data, mode="radial", T=20.0)
    if name == "symmetric-decay":
        data = InitialData(g1=(_b(1.0, 2.0),), g2=(_b(1.0, 2.0),), epsilon=0.4)
        return ScenarioConfig(name=name, data=data, mode="radial", T=40.0,
                              sigma_samples=(0.0,))
    raise UsageError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")


# -- individual scenarios -------------------------------------------------------


def _trace_times(T: float, dt: float, stride: int = 4):
    return np.append(np.arange(0.0, T, stride * dt), T)


def _scenario_conservation(config, out_dir):
    runtimes = {}
    results = {}
    for label, cfg in (("base", config), ("half", replace(config, h=config.h / 2))):
        t0 = time.perf_counter()
        trace = run_simulation(cfg, nonlinear=True)
        runtimes[f"run_{label}"] = time.perf_counter() - t0
        scale = max(trace.E1sq[0], 1e-30)
        drift = float(np.max(np.abs(trace.diff - trace.diff[0])) / scale)
        balance = float(np.max(np.abs(trace.total - trace.total[0]
                                      + 2.0 * trace.cum_D)) / trace.total[0])
        results[label] = (drift, balance)
        trace.to_csv(os.path.join(out_dir, f"energy_trace_{label}.csv"))

    drift, balance = results["base"]
    drift_h, balance_h = results["half"]
    order_d = math.log2(drift / drift_h)
    order_b = math.log2(balance / balance_h)
    assertions = [
        Assertion.le("difference_law_drift", drift, 5e-3),
        Assertion.le("energy_balance_residual", balance, 5e-3),
        Assertion.ge("difference_law_order", order_d, 1.8),
        Assertion.ge("energy_balance_order", order_b, 1.8),
    ]
    values = {"drift_base": drift, "drift_half": drift_h,
              "balance_base": balance, "balance_half": balance_h,
              "h": config.h, "epsilon": config.data.epsilon, "T": config.T}
    return assertions, values, runtimes


def _free_validation_points(data, T, count=20, seed=7):
    rng = np.random.default_rng(seed)
    pts = []
    times = np.linspace(0.25 * T, T, 4)
    per = count // len(times)
    r0 = data.support_radius
    for tv in times:
        for _ in range(per):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = rng.uniform(0.0, 0.9 * (r0 + tv))
            pts.append((float(tv), float(rad * np.cos(ang)), float(rad * np.sin(ang))))
    return pts


def _scenario_free_validation(config, out_dir):
    if config.mode != "cartesian-2d":
        raise UsageError("free-validation runs in cartesian-2d mode")
    data = config.data
    T = config.T
    runtimes = {}

    pts = _free_validation_points(data, T)
    t0 = time.perf_counter()
    oracle = {p: free_field(data, p[0], np.array([p[1], p[2]])).u for p in pts}
    runtimes["oracle"] = time.perf_counter() - t0

    by_time = {}
    for p in pts:
        by_time.setdefault(p[0], []).append(p)

    def sample(grid, points, state):
        for p in points:
            grid[p] = field_value(state, p[1:])

    # dt = cfl * h divides the check cadence T/4 and, for a power-of-two h,
    # halves exactly across refinements; min() keeps a quotient that rounds
    # up past config.cfl (cadence / (cfl h) a whole number) inside its bound
    levels = [config.h / (2 ** i) for i in range(3)]
    cadence = 0.25 * T
    n0 = math.ceil(cadence / (config.cfl * levels[0]))
    cfl = min(cadence / (n0 * levels[0]), config.cfl)
    errs = []
    t0 = time.perf_counter()
    for h in levels:
        grid = {}
        samplers = [((tv,), partial(sample, grid, points))
                    for tv, points in by_time.items()]
        run_simulation(replace(config, h=h, cfl=cfl), nonlinear=False,
                       samplers=samplers)
        errs.append(max(abs(grid[p][c] - oracle[p][c]) for p in pts for c in (0, 1)))
    runtimes["refinement_runs"] = time.perf_counter() - t0
    rows = [(*p, grid[p][0], oracle[p][0], abs(grid[p][0] - oracle[p][0]))
            for p in pts]
    write_csv(os.path.join(out_dir, "free_validation_points.csv"),
              ("t", "x", "y", "u_grid", "u_oracle", "abs_err"), rows)

    fit = fit_power_law(levels, errs)
    assertions = [
        Assertion.ge("solver_convergence_order", fit.slope, 1.9),
    ]
    for h, e in zip(levels, errs):
        assertions.append(Assertion.le(f"oracle_error_h={h:.6g}", e, 5.0 * h * h))

    # radiation-field approximation along rays: |x|^{1/2} d_a u - omega_a dF
    ray_data = InitialData(f1=(_b(0.9, 1.0, (0.3, 0.15)),),
                           g1=(_b(0.8, -0.6, (-0.1, 0.2)),), epsilon=1.0)
    theta = 0.7
    omega = np.array([np.cos(theta), np.sin(theta)])
    t0 = time.perf_counter()
    ray_rows = []
    for sigma in (-0.5, 0.1):
        _, dfv = radiation_pair(ray_data, sigma, omega, 1)
        ts = np.geomspace(4.0, 64.0, 9)
        dev = np.zeros(len(ts))
        for i, tv in enumerate(ts):
            r = tv + sigma
            p = free_field(ray_data, tv, r * omega)
            sq = math.sqrt(r)
            comps = (sq * p.ut[0] + dfv,
                     sq * p.grad[0][0] - omega[0] * dfv,
                     sq * p.grad[0][1] - omega[1] * dfv)
            dev[i] = float(np.hypot(np.hypot(comps[0], comps[1]), comps[2]))
            ray_rows.append((sigma, tv, *comps, dev[i]))
        slope = fit_power_law(ts, dev).slope
        assertions.append(Assertion.le(f"ray_approx_slope_sigma={sigma}", slope, -0.8))

    # free-field decay weights bounded along rays t = |x| + c
    for c, order in ((2.0, 0), (2.0, 1)):
        ts = np.geomspace(4.0 + c, 80.0, 9)
        q = []
        for tv in ts:
            r = tv - c
            p = free_field(ray_data, tv, r * omega)
            w = math.hypot(1.0, tv + r) ** 0.5 * math.hypot(1.0, tv - r) ** (order + 0.5)
            val = abs(p.u[0]) if order == 0 else max(
                abs(p.ut[0]), abs(p.grad[0][0]), abs(p.grad[0][1]))
            q.append(val * w)
        slope = fit_power_law(ts, np.array(q)).slope
        assertions.append(Assertion.le(f"ray_bound_growth_order={order}", slope, 0.05))
    runtimes["ray_checks"] = time.perf_counter() - t0
    write_csv(os.path.join(out_dir, "ray_decay.csv"),
              ("sigma", "t", "dev_t", "dev_x", "dev_y", "dev_norm"), ray_rows)

    values = {"errors": dict(zip((f"h={h:.6g}" for h in levels), errs)),
              "order": fit.slope, "r_squared": fit.r_squared}
    return assertions, values, runtimes


def _theta_grid(config) -> tuple[float, ...]:
    """config.theta_samples as the angle grid of a radiation table, which
    must be strictly increasing."""
    thetas = config.theta_samples
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise UsageError(f"{config.name}: theta_samples must be strictly increasing, "
                         f"got {', '.join(f'{t:g}' for t in thetas)}")
    return thetas


def _scenario_radiation_decay(config, out_dir):
    data = config.data
    r0 = data.support_radius
    runtimes = {}
    sigma_grid = np.arange(-50.0, r0 + 1.0 + 1e-9, 0.05)
    t0 = time.perf_counter()
    table = radiation_table(data, sigma_grid, _theta_grid(config))
    runtimes["table"] = time.perf_counter() - t0
    table.to_csv(os.path.join(out_dir, "radiation_table.csv"))

    slopes = fit_sigma_decay(table, (-40.0, -10.0))
    tail = sigma_grid > r0
    support_max = float(max(np.max(np.abs(table.F[:, tail, :]), initial=0.0),
                            np.max(np.abs(table.dF[:, tail, :]), initial=0.0)))
    assertions = [Assertion.le("support_tail_max", support_max, 0.0)]
    for comp in (0, 1):
        s = float(np.max(np.abs(slopes[comp] + 1.5)))
        assertions.append(Assertion.le(f"decay_slope_gap_component{comp + 1}", s, 0.15))
    values = {"slopes": slopes.ravel().tolist(), "support_radius": r0}
    return assertions, values, runtimes


def _scenario_profile_oracle(config, out_dir):
    runtimes = {}
    t_start, t_end = 2.0, 2.0e6
    t_eval = np.geomspace(t_start, t_end, 40)
    worst_rel = 0.0
    worst_drift = 0.0
    rows = []
    t0 = time.perf_counter()
    for v10 in np.linspace(0.05, 0.5, 5):
        for v20 in np.linspace(0.05, 0.5, 5):
            _, v1, v2 = solve_reduced_ode(v10, v20, t_start, t_end, t_eval=t_eval)
            c1, c2 = closed_form_profile(v10, v20, t_start, t_eval)
            mag = np.hypot(c1, c2)
            rel = float(np.max(np.abs(np.hypot(v1, v2) - mag) / mag))
            drift = float(np.max(np.abs(profile_invariant(v1, v2)
                                        - profile_invariant(v10, v20))))
            worst_rel = max(worst_rel, rel)
            worst_drift = max(worst_drift, drift)
            rows.append((v10, v20, rel, drift))
    runtimes["ode_grid"] = time.perf_counter() - t0
    write_csv(os.path.join(out_dir, "profile_oracle.csv"),
              ("V10", "V20", "max_rel_err", "invariant_drift"), rows)

    assertions = [
        Assertion.le("closed_form_rel_err", worst_rel, 1e-8),
        Assertion.le("invariant_drift", worst_drift, 1e-9),
    ]

    # sign trichotomy with terminal limits
    t0 = time.perf_counter()
    tri_rows = []
    for v10, v20 in ((0.9, 0.1), (0.1, 0.9), (0.4, 0.4)):
        m = profile_invariant(v10, v20)
        ts, v1, v2 = solve_reduced_ode(v10, v20, t_start, t_end,
                                       t_eval=np.geomspace(t_start, t_end, 24))
        if m > 0:
            lim = abs(v1[-1] ** 2 - m)
            env = float(np.max(np.abs(v2) / (abs(v20) * (ts / t_start) ** (-m / 2))))
            assertions.append(Assertion.le("trichotomy_limit_m_pos", lim, 1e-6))
            assertions.append(Assertion.le("trichotomy_envelope_m_pos", env, 1.0 + 1e-9))
        elif m < 0:
            lim = abs(v2[-1] ** 2 + m)
            env = float(np.max(np.abs(v1) / (abs(v10) * (ts / t_start) ** (m / 2))))
            assertions.append(Assertion.le("trichotomy_limit_m_neg", lim, 1e-6))
            assertions.append(Assertion.le("trichotomy_envelope_m_neg", env, 1.0 + 1e-9))
        else:
            pred = v10 ** 2 / (1.0 + v10 ** 2 * math.log(t_end / t_start))
            lim = abs(v1[-1] ** 2 - pred) / pred
            assertions.append(Assertion.le("trichotomy_log_decay_m_zero", lim, 1e-6))
        tri_rows.append((v10, v20, m, v1[-1], v2[-1]))
    runtimes["trichotomy"] = time.perf_counter() - t0
    write_csv(os.path.join(out_dir, "trichotomy.csv"),
              ("V10", "V20", "m", "V1_final", "V2_final"), tri_rows)
    values = {"worst_rel_err": worst_rel, "worst_drift": worst_drift}
    return assertions, values, runtimes


def _run_scaling_case(config, eps, sigmas, with_remainder=True, h=None):
    T = 4.0 / eps
    cfg = replace(config, data=config.data.with_epsilon(eps), eps_list=(eps,), T=T,
                  h=(h if h is not None else config.h))
    collector = RayTraceCollector(sigmas, config.theta_samples[0], with_remainder)
    times = _trace_times(T, cfg.cfl * cfg.h)
    run_simulation(cfg, nonlinear=True, samplers=[(times, collector)],
                   cone=min(sigmas))
    return collector.traces()


def _scenario_epsilon_scaling(config, out_dir):
    if len(config.eps_list) < 3:
        raise UsageError("epsilon-scaling needs at least 3 epsilon values")
    if config.mode != "radial":
        raise UsageError("epsilon-scaling runs in radial mode")
    eps_list = tuple(sorted(config.eps_list, reverse=True))
    sigmas = list(config.sigma_samples)
    theta = config.theta_samples[0]
    runtimes = {}

    r0 = config.data.support_radius
    lo = math.floor((min(sigmas) - 0.6) / 0.02) * 0.02
    sigma_grid = np.arange(lo, r0 + 0.2 + 1e-9, 0.02)
    t0 = time.perf_counter()
    table = radiation_table(config.data, sigma_grid, _theta_grid(config))
    runtimes["radiation_table"] = time.perf_counter() - t0
    table.to_csv(os.path.join(out_dir, "radiation_table.csv"))

    estimates = []
    t0 = time.perf_counter()
    for eps in eps_list:
        t_case = time.perf_counter()
        traces = _run_scaling_case(config, eps, sigmas)
        runtimes[f"eps={eps:.4g}"] = time.perf_counter() - t_case
        T = 4.0 / eps
        for tr in traces:
            md = tr.invariant_at(T)
            mc = corrected_invariant(tr, T)
            ml = leading_invariant(table, eps, tr.sigma, theta)
            estimates.append(MEstimate(sigma=tr.sigma, theta=theta, eps=eps,
                                       m_direct=md, m_corrected=mc, m_leading=ml))
    runtimes["eps_runs"] = time.perf_counter() - t0
    write_mestimates(os.path.join(out_dir, "m_estimates.csv"), estimates)

    max_resid = {}
    for e in estimates:
        max_resid[e.eps] = max(max_resid.get(e.eps, 0.0), abs(e.residual))
    fit = fit_power_law(list(max_resid.keys()), list(max_resid.values()))

    # discretization floor at the smallest eps from one h-halved rerun
    eps_min = eps_list[-1]
    t0 = time.perf_counter()
    traces_half = _run_scaling_case(config, eps_min, sigmas,
                                    with_remainder=False, h=config.h / 2)
    runtimes["floor_run"] = time.perf_counter() - t0
    floor = {}
    base = {e.sigma: e for e in estimates if e.eps == eps_min}
    for tr in traces_half:
        md_half = tr.invariant_at(4.0 / eps_min)
        floor[tr.sigma] = abs(base[tr.sigma].m_direct - md_half)

    assertions = [Assertion.ge("residual_scaling_slope", fit.slope, 2.2)]
    pointwise = {}
    for sigma in sigmas:
        est = base[sigma]
        eligible = abs(est.m_leading) > 10.0 * floor[sigma]
        if eligible:
            rel = abs(est.m_direct - est.m_leading) / abs(est.m_leading)
            pointwise[sigma] = rel
            assertions.append(Assertion.le(f"pointwise_rel_sigma={sigma}", rel, 0.15))
        else:
            pointwise[sigma] = None

    write_csv(os.path.join(out_dir, "scaling_report.csv"),
              ("eps", "max_abs_residual"),
              sorted(max_resid.items(), reverse=True))
    values = {"slope": fit.slope, "r_squared": fit.r_squared,
              "max_residuals": {f"{k:.4g}": v for k, v in max_resid.items()},
              "floor": {f"{k}": v for k, v in floor.items()},
              "pointwise_rel": {f"{k}": v for k, v in pointwise.items()}}
    return assertions, values, runtimes


def _scenario_nondecay(config, out_dir):
    data = config.data
    runtimes = {}
    r0 = data.support_radius
    sigma_grid = np.arange(-2.0, r0 + 0.2 + 1e-9, 0.02)
    t0 = time.perf_counter()
    table = radiation_table(data, sigma_grid, _theta_grid(config))
    runtimes["table"] = time.perf_counter() - t0
    table.to_csv(os.path.join(out_dir, "radiation_table.csv"))

    gap = np.abs(table.dF[0, :, 0]) - np.abs(table.dF[1, :, 0])
    margin = 0.05
    # the crossing condition must hold before any solve happens
    assertions = [
        Assertion.ge("crossing_dF1_dominates", float(np.max(gap)), margin),
        Assertion.le("crossing_dF2_dominates", float(np.min(gap)), -margin),
    ]
    if not (assertions[0].passed and assertions[1].passed):
        values = {"gap_max": float(np.max(gap)), "gap_min": float(np.min(gap))}
        return assertions, values, runtimes

    t0 = time.perf_counter()
    trace = run_simulation(config, nonlinear=True)
    runtimes["run"] = time.perf_counter() - t0
    trace.to_csv(os.path.join(out_dir, "energy_trace.csv"))
    late = trace.t >= config.T / 2.0
    floor1 = float(np.min(trace.E1sq[late]) / trace.E1sq[0])
    floor2 = float(np.min(trace.E2sq[late]) / trace.E2sq[0])
    assertions += [
        Assertion.ge("energy_floor_component1", floor1, 0.2),
        Assertion.ge("energy_floor_component2", floor2, 0.2),
    ]
    values = {"gap_max": float(np.max(gap)), "gap_min": float(np.min(gap)),
              "floor1": floor1, "floor2": floor2}
    return assertions, values, runtimes


def _scenario_symmetric_decay(config, out_dir):
    data = config.data
    if data.f1 != data.f2 or data.g1 != data.g2:
        raise UsageError("symmetric-decay requires identical component data")
    runtimes = {}
    sigma = config.sigma_samples[0]
    t_ref = ProfileTrace.reference_time(sigma)
    if config.T < t_ref:
        raise UsageError(f"symmetric-decay needs T >= {t_ref:g}, the profile "
                         f"reference time for sigma={sigma:g}; got T={config.T:g}")
    collector = RayTraceCollector([sigma], config.theta_samples[0], with_remainder=False)
    sym_gap = [0.0]

    def check_symmetry(state):
        gap = float(np.max(np.abs(state.u_curr[0] - state.u_curr[1])))
        sym_gap[0] = max(sym_gap[0], gap)

    times = np.append(np.arange(0.0, config.T, 0.25), config.T)
    t0 = time.perf_counter()
    trace = run_simulation(config, nonlinear=True,
                           samplers=[(times, collector), (times, check_symmetry)])
    runtimes["run"] = time.perf_counter() - t0
    trace.to_csv(os.path.join(out_dir, "energy_trace.csv"))

    onset = int(np.argmax(trace.D > 1e-14))
    monotone = bool(np.all(np.diff(trace.total[onset:]) < 0.0))

    tr = collector.traces()[0]
    tr.to_csv(os.path.join(out_dir, "profile_trace.csv"))
    v0 = tr.values_at(t_ref)[0]
    mask = tr.t >= t_ref
    cf1, _ = closed_form_profile(v0, v0, t_ref, tr.t[mask])
    shape_dev = float(np.max(np.abs(tr.V1[mask] ** 2 - cf1 ** 2) / cf1 ** 2))

    assertions = [
        Assertion.le("component_symmetry_gap", sym_gap[0], 1e-12),
        Assertion.ge("total_energy_monotone_decay", float(monotone), 1.0),
        Assertion.le("profile_shape_rel_dev", shape_dev, 0.2),
    ]
    values = {"symmetry_gap": sym_gap[0],
              "dissipated_fraction": float(1.0 - trace.total[-1] / trace.total[0]),
              "V0": v0, "shape_dev": shape_dev}
    return assertions, values, runtimes


SCENARIOS = {
    "conservation": _scenario_conservation,
    "free-validation": _scenario_free_validation,
    "radiation-decay": _scenario_radiation_decay,
    "profile-oracle": _scenario_profile_oracle,
    "epsilon-scaling": _scenario_epsilon_scaling,
    "nondecay-demo": _scenario_nondecay,
    "symmetric-decay": _scenario_symmetric_decay,
}

# The optional config keys each scenario reads; the CLI rejects any other key
# a file sets and the key behind any other `wavelab scenario` option.
# "data.epsilon" is the first epsilon (required in a file, so only --eps is
# checked) and EPS_LIST more than one.  epsilon-scaling runs each rung to
# 4/eps, radiation-decay tabulates per unit amplitude without a solve (its
# mode picks the default theta_samples and which bump centres validate),
# and profile-oracle reads no config field.
EPS_LIST = "data.epsilon with more than one value"
_SOLVE = frozenset({"scenario.mode", "scenario.T", "grid.h", "grid.cfl", "data.epsilon"})
READS = {
    "conservation": _SOLVE,
    "free-validation": _SOLVE,
    "radiation-decay": frozenset({"scenario.mode", "data.theta_samples"}),
    "profile-oracle": frozenset(),
    "epsilon-scaling": (_SOLVE - {"scenario.T"}) | {EPS_LIST, "data.sigma_samples",
                                                    "data.theta_samples"},
    "nondecay-demo": _SOLVE | {"data.theta_samples"},
    "symmetric-decay": _SOLVE | {"data.sigma_samples", "data.theta_samples"},
}


def run_scenario(config: ScenarioConfig, out_dir=None) -> dict:
    """Run the scenario named in the config; returns the summary dict.

    Writes summary.json plus scenario CSVs into out_dir.  Raises UsageError
    for unknown scenario names.
    """
    if config.name not in SCENARIOS:
        raise UsageError(f"unknown scenario {config.name!r}; "
                         f"choose from {sorted(SCENARIOS)}")
    out_dir = out_dir or config.out_dir or f"out/{config.name}"
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    assertions, values, runtimes = SCENARIOS[config.name](config, out_dir)
    runtimes["total"] = time.perf_counter() - t0
    return write_summary(os.path.join(out_dir, "summary.json"),
                         config.name, assertions, values, runtimes)
