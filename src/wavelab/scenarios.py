"""Named experiments: each runs a study, returns its CSVs and asserts its contract.

run_scenario writes summary.json and the CSVs, all or none, into the output
directory.  The summary's "assertions" block lists named pass/fail checks with
measured values and thresholds.  A scenario passes iff all assertions pass.

Each is one Scenario record in SCENARIOS: its run function, the optional
config keys it reads, its default config and the one grid mode it runs in.
A ray's refusals take its sample steps from solver.sample_steps, as its run
does, and epsilon-scaling builds each rung's config once, in _rung.  Each
scenario sizes its runs (solver.run_size) and its radiation tables and
free-field oracle (_size_quadrature) before the first of them starts.

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
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .bumps import BumpSpec, InitialData
from .config import ScenarioConfig
from .fitting import fit_power_law
from .free_wave import NODE_BYTES, free_field, oracle_nodes
from .profile import (ProfileTrace, RayTraceCollector, closed_form_profile,
                      corrected_invariant, leading_invariant,
                      profile_invariant, solve_reduced_ode, MEstimate)
from .radiation import (TAU_NODE_BYTES, fit_sigma_decay, radiation_pair, radiation_table,
                        table_nodes)
from .reporting import Assertion, render_csv, render_summary, write_csv, write_summary
from .solver import EnergyTrace, fit_memory, run_simulation, run_size, sample_steps

__all__ = ["Scenario", "SCENARIOS", "EPS_LIST", "UsageError", "scenario",
           "default_config", "run_scenario"]


class UsageError(ValueError):
    """Unknown scenario or unusable invocation (CLI exit code 2)."""


@dataclass(frozen=True)
class Scenario:
    """run(config, runtimes) returns (assertions, values, reports), timing its
    phases into runtimes; reports maps each CSV file name to its (header,
    rows).  reads: the optional config keys it reads; data and settings
    (ScenarioConfig fields): its default config; mode: the one grid mode it
    runs in, None for either."""

    run: Callable
    reads: frozenset
    data: InitialData
    settings: dict = field(default_factory=dict)
    mode: str | None = None


def scenario(name: str) -> Scenario:
    """The record of the named scenario; UsageError for an unknown name."""
    if name not in SCENARIOS:
        raise UsageError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def default_config(name: str) -> ScenarioConfig:
    """Built-in configuration for each named scenario."""
    record = scenario(name)
    mode = {"mode": record.mode} if record.mode else {}
    return ScenarioConfig(name, record.data, **mode, **record.settings)


def _b(radius, amplitude, center=(0.0, 0.0)):
    return BumpSpec(center=center, radius=radius, amplitude=amplitude)


@contextmanager
def _timed(runtimes: dict, key: str):
    """Store the wall time of the with-block in runtimes[key]."""
    t0 = time.perf_counter()
    yield
    runtimes[key] = time.perf_counter() - t0


def _nonzero_bumps(data: InitialData):
    """Each component's nonzero bumps as multisets (f, g): two components
    whose bumps sum, in any order, to the same fields compare equal."""
    return [tuple(Counter(b for b in bumps if b.amplitude) for bumps in pair)
            for pair in ((data.f1, data.g1), (data.f2, data.g2))]


def _size_quadrature(data: InitialData, rule: str, nodes: float, node_bytes: int) -> None:
    """Refuse a quadrature whose largest rule, of nodes, would exceed physical
    memory: ConfigValidationError("radius") naming the data's smallest bump
    radius, whose inverse sets the node density, and the nodes."""
    radius = min((b.radius for b in data.all_bumps()), default=0.0)
    fit_memory(nodes * node_bytes, "radius", f"the smallest bump radius {radius:g} and "
               f"R0={data.support_radius:g} need {nodes:.3g} {rule} nodes, whose buffers")


def _size_table(data: InitialData, sigma_grid) -> None:
    _size_quadrature(data, "radiation quadrature", table_nodes(data, sigma_grid), TAU_NODE_BYTES)


def _sigma_grid(data: InitialData, start: float, stop: float, step: float) -> np.ndarray:
    """np.arange(start, stop, step), a radiation table's sigma grid, whose
    stop grows with R0.  Its values are counted in floating point first and
    refused, ConfigValidationError("radius") naming R0 and the count, when
    they would exceed physical memory (8 bytes each)."""
    count = (stop - start) / step
    fit_memory(count * 8, "radius", f"R0={data.support_radius:g} needs {count:.3g} "
               f"sigma grid values, whose buffers")
    return np.arange(start, stop, step)


# -- individual scenarios -------------------------------------------------------


def _trace_times(cfg):
    """Every fourth step time of cfg's run, and its horizon T."""
    return np.append(np.arange(0.0, cfg.T, 4 * cfg.dt), cfg.T)


def _scenario_conservation(config, runtimes):
    component1, component2 = _nonzero_bumps(config.data)
    if component1 == component2:
        raise UsageError("conservation needs different component data: with identical "
                         "components the difference law E1^2 - E2^2 is identically 0")
    runs = (("base", config), ("half", replace(config, h=config.h / 2)))
    for _, cfg in runs:
        run_size(cfg)               # both grids' refusals before either run
    results, reports = {}, {}
    for label, cfg in runs:
        with _timed(runtimes, f"run_{label}"):
            trace = EnergyTrace(cfg)
            run_simulation(cfg, nonlinear=True, samplers=[(trace.times, trace)])
        scale = max(trace.E1sq[0], 1e-30)
        drift = float(np.max(np.abs(trace.diff - trace.diff[0])) / scale)
        balance = float(np.max(np.abs(trace.total - trace.total[0]
                                      + 2.0 * trace.cum_D)) / trace.total[0])
        results[label] = (drift, balance)
        reports[f"energy_trace_{label}.csv"] = trace.to_csv()

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
    return assertions, values, reports


def _free_validation_points(data, T):
    """Five seeded points at each of four check times."""
    rng = np.random.default_rng(7)
    pts = []
    r0 = data.support_radius
    for tv in np.linspace(0.25 * T, T, 4):
        for _ in range(5):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = rng.uniform(0.0, 0.9 * (r0 + tv))
            pts.append((float(tv), float(rad * np.cos(ang)), float(rad * np.sin(ang))))
    return pts


def _scenario_free_validation(config, runtimes):
    data = config.data
    T = config.T
    levels = [config.h / (2 ** i) for i in range(3)]
    run_size(replace(config, h=levels[-1]))     # the finest level's refusals, before n0
    # dt = cfl * h divides the check cadence T/4 and, for a power-of-two h,
    # halves exactly across refinements; min() keeps a quotient that rounds
    # up past config.cfl (cadence / (cfl h) a whole number) inside its bound
    cadence = 0.25 * T
    n0 = math.ceil(cadence / config.dt)
    cfl = min(cadence / (n0 * levels[0]), config.cfl)
    runs = [replace(config, h=h, cfl=cfl) for h in levels]
    for cfg in runs:
        run_size(cfg)               # every run's refusals before the oracle

    pts = _free_validation_points(data, T)
    _size_quadrature(data, "free-field oracle",
                     max(oracle_nodes(data, p[0], p[1:]) for p in pts), NODE_BYTES)
    with _timed(runtimes, "oracle"):
        oracle = {p: free_field(data, p[0], np.array([p[1], p[2]]))[0] for p in pts}

    by_time = {}
    for p in pts:
        by_time.setdefault(p[0], []).append(p)

    def sample(grid, points, state):
        u = state.sample([p[1:] for p in points])[0]       # (2, points)
        grid.update(zip(points, u.T.tolist()))

    errs = []
    with _timed(runtimes, "refinement_runs"):
        for cfg in runs:
            grid = {}
            samplers = [((tv,), partial(sample, grid, points))
                        for tv, points in by_time.items()]
            run_simulation(cfg, nonlinear=False, samplers=samplers)
            errs.append(max(abs(grid[p][c] - oracle[p][c]) for p in pts for c in (0, 1)))
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
    with _timed(runtimes, "ray_checks"):
        ray_rows = []
        for sigma in (-0.5, 0.1):
            dfv = float(radiation_pair(ray_data, sigma, omega)[1][0])    # component 1
            ts = np.geomspace(4.0, 64.0, 9)
            dev = np.zeros(len(ts))
            for i, tv in enumerate(ts):
                r = tv + sigma
                _, ut, grad = free_field(ray_data, tv, r * omega)
                sq = math.sqrt(r)
                comps = (sq * ut[0] + dfv,
                         sq * grad[0, 0] - omega[0] * dfv,
                         sq * grad[0, 1] - omega[1] * dfv)
                dev[i] = float(np.hypot(np.hypot(comps[0], comps[1]), comps[2]))
                ray_rows.append((sigma, tv, *comps, dev[i]))
            slope = fit_power_law(ts, dev).slope
            assertions.append(Assertion.le(f"ray_approx_slope_sigma={sigma}", slope, -0.8))

        # free-field decay weights bounded along the ray t = |x| + c: order 0
        # weights |u|, order 1 the largest first derivative, one oracle per point
        c = 2.0
        ts = np.geomspace(4.0 + c, 80.0, 9)
        q = ([], [])
        for tv in ts:
            r = tv - c
            u, ut, grad = free_field(ray_data, tv, r * omega)
            vals = (abs(u[0]), max(abs(ut[0]), abs(grad[0, 0]), abs(grad[0, 1])))
            for order, val in enumerate(vals):
                w = math.hypot(1.0, tv + r) ** 0.5 * math.hypot(1.0, tv - r) ** (order + 0.5)
                q[order].append(val * w)
        for order in (0, 1):
            slope = fit_power_law(ts, np.array(q[order])).slope
            assertions.append(Assertion.le(f"ray_bound_growth_order={order}", slope, 0.05))

    values = {"errors": dict(zip((f"h={h:.6g}" for h in levels), errs)),
              "order": fit.slope, "r_squared": fit.r_squared}
    rows = [(*p, grid[p][0], oracle[p][0], abs(grid[p][0] - oracle[p][0])) for p in pts]
    return assertions, values, {
        "free_validation_points.csv": (("t", "x", "y", "u_grid", "u_oracle", "abs_err"), rows),
        "ray_decay.csv": (("sigma", "t", "dev_t", "dev_x", "dev_y", "dev_norm"), ray_rows)}


# the far-field window of the sigma-decay fit, which needs sigma < -2 R0
_DECAY_FIT_WINDOW = (-40.0, -10.0)


def _scenario_radiation_decay(config, runtimes):
    data = config.data
    r0 = data.support_radius
    lo, hi = _DECAY_FIT_WINDOW
    if hi >= -2.0 * r0:
        raise UsageError(f"radiation-decay fits the decay on sigma in [{lo:g}, {hi:g}], "
                         f"which must lie below -2 R0; the data's support radius is "
                         f"R0={r0:g}, so R0 must be below {-hi / 2:g}")
    for comp, bumps in enumerate(_nonzero_bumps(data), 1):
        if not any(bumps):
            raise UsageError(f"radiation-decay fits the decay of both components, "
                             f"but component {comp} has no nonzero data")
    sigma_grid = _sigma_grid(data, -50.0, r0 + 1.0 + 1e-9, 0.05)
    _size_table(data, sigma_grid)
    with _timed(runtimes, "table"):
        table = radiation_table(data, sigma_grid, config.theta_samples)

    slopes = fit_sigma_decay(table, _DECAY_FIT_WINDOW)
    tail = sigma_grid > r0
    support_max = float(max(np.max(np.abs(table.F[:, tail, :]), initial=0.0),
                            np.max(np.abs(table.dF[:, tail, :]), initial=0.0)))
    assertions = [Assertion.le("support_tail_max", support_max, 0.0)]
    for comp in (0, 1):
        s = float(np.max(np.abs(slopes[comp] + 1.5)))
        assertions.append(Assertion.le(f"decay_slope_gap_component{comp + 1}", s, 0.15))
    values = {"slopes": slopes.ravel().tolist(), "support_radius": r0}
    return assertions, values, {"radiation_table.csv": table.to_csv()}


def _scenario_profile_oracle(config, runtimes):
    t_start, t_end = 2.0, 2.0e6
    t_eval = np.geomspace(t_start, t_end, 40)
    worst_rel = 0.0
    worst_drift = 0.0
    rows = []
    with _timed(runtimes, "ode_grid"):
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

    assertions = [
        Assertion.le("closed_form_rel_err", worst_rel, 1e-8),
        Assertion.le("invariant_drift", worst_drift, 1e-9),
    ]

    # sign trichotomy with terminal limits
    tri_rows = []
    with _timed(runtimes, "trichotomy"):
        for v10, v20 in ((0.9, 0.1), (0.1, 0.9), (0.4, 0.4)):
            m = profile_invariant(v10, v20)
            ts, v1, v2 = solve_reduced_ode(v10, v20, t_start, t_end,
                                           t_eval=np.geomspace(t_start, t_end, 24))
            if m:       # V1 <-> V2 with m -> -m: a^2 tends to |m|, b decays
                a, b, b0, sign = (v1, v2, v20, "pos") if m > 0 else (v2, v1, v10, "neg")
                lim = abs(a[-1] ** 2 - abs(m))
                env = float(np.max(np.abs(b) / (abs(b0) * (ts / t_start) ** (-abs(m) / 2))))
                assertions.append(Assertion.le(f"trichotomy_limit_m_{sign}", lim, 1e-6))
                assertions.append(Assertion.le(f"trichotomy_envelope_m_{sign}", env, 1.0 + 1e-9))
            else:
                pred = v10 ** 2 / (1.0 + v10 ** 2 * math.log(t_end / t_start))
                lim = abs(v1[-1] ** 2 - pred) / pred
                assertions.append(Assertion.le("trichotomy_log_decay_m_zero", lim, 1e-6))
            tri_rows.append((v10, v20, m, v1[-1], v2[-1]))
    values = {"worst_rel_err": worst_rel, "worst_drift": worst_drift}
    return assertions, values, {
        "profile_oracle.csv": (("V10", "V20", "max_rel_err", "invariant_drift"), rows),
        "trichotomy.csv": (("V10", "V20", "m", "V1_final", "V2_final"), tri_rows)}


def _check_rays(config, sigmas, times) -> None:
    """Refuse a sigma > R0, whose profile vanishes (finite speed of propagation),
    one first sampled (the collector's foot-point rule at the sample_steps of
    times) more than one step after its reference time, and one sampled once."""
    r0, h, dt = config.data.support_radius, config.h, config.dt
    steps = sample_steps(config, times) * dt
    for s in sigmas:
        if s > r0:
            raise UsageError(f"{config.name}: sigma={s:g} exceeds the data's support "
                             f"radius R0={r0:g}, where every ray profile is 0")
        t_ref = ProfileTrace.reference_time(s)
        sampled = steps[RayTraceCollector.samples_at(steps, s, h)]
        first = min(sampled, default=math.inf)
        if first > t_ref + dt:
            raise UsageError(f"{config.name}: with h={h:g} the first profile sample of "
                             f"sigma={s:g} lands at t={first:.4g}, more than one step "
                             f"past its reference time max(2, -2 sigma) = {t_ref:g}")
        if sampled[-1] == first:
            raise UsageError(f"{config.name}: with h={h:g} sigma={s:g} gets one profile "
                             f"sample, at t={first:.4g}, up to its horizon; it needs two")


def _rung(config, eps, h=None):
    """The config of the epsilon-scaling run at eps, to its horizon T = 4/eps."""
    return replace(config, data=config.data.with_epsilon(eps), eps_list=(eps,),
                   T=4.0 / eps, h=config.h if h is None else h)


def _run_rung(cfg, sigmas):
    collector = RayTraceCollector(sigmas)
    run_simulation(cfg, nonlinear=True, samplers=[(_trace_times(cfg), collector)],
                   cone=min(sigmas))
    return collector.traces()


def _scenario_epsilon_scaling(config, runtimes):
    if len(config.eps_list) < 3:
        raise UsageError("epsilon-scaling needs at least 3 epsilon values")
    if len(set(config.eps_list)) < len(config.eps_list):
        raise UsageError("epsilon-scaling needs distinct epsilon values, got "
                         + ", ".join(f"{e:g}" for e in config.eps_list))
    eps_list = tuple(sorted(config.eps_list, reverse=True))
    sigmas = list(config.sigma_samples)
    theta = 0.0                 # radial mode: every angle gives the same profiles
    rungs = [_rung(config, eps) for eps in eps_list]
    floor_rung = _rung(config, eps_list[-1], h=config.h / 2)
    for rung in (*rungs, floor_rung):
        run_size(rung)              # every run's refusals before any run or table
    shortest = rungs[0]
    for s in sigmas:
        if ProfileTrace.reference_time(s) > shortest.T:
            raise UsageError(f"epsilon-scaling: the reference time max(2, -2 sigma) of "
                             f"sigma={s:g} exceeds the shortest rung's horizon "
                             f"4/eps = {shortest.T:g}")
    _check_rays(shortest, sigmas, _trace_times(shortest))

    r0 = config.data.support_radius
    lo = math.floor((min(sigmas) - 0.6) / 0.02) * 0.02
    sigma_grid = _sigma_grid(config.data, lo, r0 + 0.2 + 1e-9, 0.02)
    _size_table(config.data, sigma_grid)
    with _timed(runtimes, "radiation_table"):
        table = radiation_table(config.data, sigma_grid, (theta,))

    estimates = []
    with _timed(runtimes, "eps_runs"):
        for eps, rung in zip(eps_list, rungs):
            with _timed(runtimes, f"eps={eps:.4g}"):
                traces = _run_rung(rung, sigmas)
            for tr in traces:
                md = tr.invariant_at(rung.T)
                mc = corrected_invariant(tr, rung.T)
                ml = leading_invariant(table, eps, tr.sigma)
                estimates.append(MEstimate(sigma=tr.sigma, theta=theta, eps=eps,
                                           m_direct=md, m_corrected=mc, m_leading=ml))

    max_resid = {}
    for e in estimates:
        max_resid[e.eps] = max(max_resid.get(e.eps, 0.0), abs(e.residual))
    fit = fit_power_law(list(max_resid.keys()), list(max_resid.values()))

    # discretization floor at the smallest eps from one h-halved rerun
    eps_min = eps_list[-1]
    with _timed(runtimes, "floor_run"):
        traces_half = _run_rung(floor_rung, sigmas)
    base = {e.sigma: e for e in estimates if e.eps == eps_min}
    floor = {tr.sigma: abs(base[tr.sigma].m_direct - tr.invariant_at(floor_rung.T))
             for tr in traces_half}

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

    values = {"slope": fit.slope, "r_squared": fit.r_squared,
              "max_residuals": {f"{k:.4g}": v for k, v in max_resid.items()},
              "floor": {f"{k}": v for k, v in floor.items()},
              "pointwise_rel": {f"{k}": v for k, v in pointwise.items()}}
    return assertions, values, {
        "radiation_table.csv": table.to_csv(),
        "m_estimates.csv": (("sigma", "theta", "eps", "m_direct", "m_corrected", "m_leading",
                             "residual"), [(*astuple(e), e.residual) for e in estimates]),
        "scaling_report.csv": (("eps", "max_abs_residual"),
                               sorted(max_resid.items(), reverse=True))}


def _scenario_nondecay(config, runtimes):
    data = config.data
    r0 = data.support_radius
    sigma_grid = _sigma_grid(data, -2.0, r0 + 0.2 + 1e-9, 0.02)
    run_size(config)                # the run's refusals before the table
    _size_table(data, sigma_grid)
    with _timed(runtimes, "table"):
        table = radiation_table(data, sigma_grid, config.theta_samples)
    reports = {"radiation_table.csv": table.to_csv()}

    gap = np.abs(table.dF[0]) - np.abs(table.dF[1])      # every (sigma, theta)
    margin = 0.05
    # the crossing condition must hold before any solve happens
    assertions = [
        Assertion.ge("crossing_dF1_dominates", float(np.max(gap)), margin),
        Assertion.le("crossing_dF2_dominates", float(np.min(gap)), -margin),
    ]
    if not (assertions[0].passed and assertions[1].passed):
        values = {"gap_max": float(np.max(gap)), "gap_min": float(np.min(gap))}
        return assertions, values, reports

    with _timed(runtimes, "run"):
        trace = EnergyTrace(config)
        run_simulation(config, nonlinear=True, samplers=[(trace.times, trace)])
    reports["energy_trace.csv"] = trace.to_csv()
    late = trace.t >= config.T / 2.0
    floor1 = float(np.min(trace.E1sq[late]) / trace.E1sq[0])
    floor2 = float(np.min(trace.E2sq[late]) / trace.E2sq[0])
    assertions += [
        Assertion.ge("energy_floor_component1", floor1, 0.2),
        Assertion.ge("energy_floor_component2", floor2, 0.2),
    ]
    values = {"gap_max": float(np.max(gap)), "gap_min": float(np.min(gap)),
              "floor1": floor1, "floor2": floor2}
    return assertions, values, reports


def _scenario_symmetric_decay(config, runtimes):
    component1, component2 = _nonzero_bumps(config.data)
    if component1 != component2:
        raise UsageError("symmetric-decay requires identical component data")
    if not any(component1):
        raise UsageError("symmetric-decay needs nonzero data")
    if len(config.sigma_samples) != 1:
        raise UsageError("symmetric-decay samples one ray: set one sigma_samples "
                         "value, got " + ", ".join(f"{s:g}" for s in config.sigma_samples))
    (sigma,) = config.sigma_samples
    run_size(config)                # the run's refusals before its horizon check
    t_ref = ProfileTrace.reference_time(sigma)
    t_last = sample_steps(config, [config.T])[0] * config.dt
    if config.T < t_ref or t_last < t_ref:
        raise UsageError(f"symmetric-decay needs a profile sample at t >= {t_ref:g}, the "
                         f"reference time for sigma={sigma:g}; with T={config.T:g} the last "
                         f"lands at t={t_last:.7g}")
    times = np.append(np.arange(0.0, config.T, 0.25), config.T)
    _check_rays(config, [sigma], times)
    collector = RayTraceCollector([sigma])
    sym_gap = [0.0]

    def check_symmetry(state):
        gap = float(np.max(np.abs(state.u_curr[0] - state.u_curr[1])))
        sym_gap[0] = max(sym_gap[0], gap)

    with _timed(runtimes, "run"):
        trace = EnergyTrace(config)
        run_simulation(config, nonlinear=True, samplers=[
            (trace.times, trace), (times, collector), (times, check_symmetry)])

    onset = int(np.argmax(trace.D > 1e-14))
    monotone = bool(np.all(np.diff(trace.total[onset:]) < 0.0))

    tr = collector.traces()[0]
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
    return assertions, values, {"energy_trace.csv": trace.to_csv(),
                                "profile_trace.csv": tr.to_csv()}


# "data.epsilon" in reads is the first epsilon (required in a file, so only
# --eps is checked) and EPS_LIST more than one.  Ray profiles are sampled in
# radial mode, where every angle gives the same profiles; radiation-decay
# tabulates per unit amplitude without a solve (its mode picks the default
# theta_samples and which bump centres validate).
EPS_LIST = "data.epsilon with more than one value"
_SOLVE = frozenset({"scenario.mode", "scenario.T", "grid.h", "grid.cfl", "data.epsilon"})
SCENARIOS = {
    "conservation": Scenario(
        _scenario_conservation, _SOLVE,
        InitialData(f1=(_b(1.0, 1.0),), g1=(_b(0.7, -0.5),),
                    f2=(_b(0.8, 0.3),), g2=(_b(1.0, 1.0),), epsilon=0.3), {"T": 40.0}),
    "free-validation": Scenario(
        _scenario_free_validation, _SOLVE,
        InitialData(f1=(_b(1.8, 1.0),), g1=(_b(1.5, -0.5),),
                    f2=(_b(1.8, 0.7),), g2=(_b(1.6, 0.4),), epsilon=1.0),
        {"T": 1.0, "h": 1.0 / 16.0}, mode="cartesian-2d"),
    "radiation-decay": Scenario(
        _scenario_radiation_decay, frozenset({"scenario.mode", "data.theta_samples"}),
        InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 1.0),), epsilon=0.2)),
    "profile-oracle": Scenario(
        _scenario_profile_oracle, frozenset(),
        InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 1.0),), epsilon=0.2)),
    "epsilon-scaling": Scenario(
        _scenario_epsilon_scaling,
        (_SOLVE - {"scenario.T"}) | {EPS_LIST, "data.sigma_samples"},
        InitialData(g1=(_b(1.0, 1.0),), g2=(_b(1.0, 0.6),), epsilon=0.4),
        {"eps_list": (0.4, 0.4 / math.sqrt(2.0), 0.2, 0.2 / math.sqrt(2.0), 0.1)},
        mode="radial"),
    "nondecay-demo": Scenario(
        _scenario_nondecay, _SOLVE | {"data.theta_samples"},
        InitialData(g1=(_b(1.0, 1.0),), g2=(_b(0.5, 1.6),), epsilon=0.2), {"T": 20.0}),
    "symmetric-decay": Scenario(
        _scenario_symmetric_decay, _SOLVE | {"data.sigma_samples"},
        InitialData(g1=(_b(1.0, 2.0),), g2=(_b(1.0, 2.0),), epsilon=0.4), {"T": 40.0},
        mode="radial"),
}


def run_scenario(config: ScenarioConfig, out_dir=None) -> dict:
    """Run the scenario named in the config; returns the summary dict.

    Writes summary.json plus the scenario's CSVs into out_dir, all or none:
    the run and the rendering of every report come before out_dir is made,
    so a UsageError (an unknown name, a mode the scenario does not run in or
    a refusal of its config), a run that raises or a NaN or inf in a report
    (NonFiniteReportError) leaves no directory behind and an existing one as
    it was.  Only an OSError while writing can leave part of the files.
    """
    record = scenario(config.name)
    if record.mode not in (None, config.mode):
        raise UsageError(f"{config.name} runs in {record.mode} mode")
    out_dir = out_dir or config.out_dir or f"out/{config.name}"
    runtimes = {}
    with _timed(runtimes, "total"):
        assertions, values, reports = record.run(config, runtimes)
    texts = {}
    for name, (header, rows) in reports.items():
        path = os.path.join(out_dir, name)
        texts[path] = render_csv(path, header, rows)
    path = os.path.join(out_dir, "summary.json")
    summary = render_summary(path, config.name, assertions, values, runtimes)
    os.makedirs(out_dir, exist_ok=True)
    for csv_path, text in texts.items():
        write_csv(csv_path, text)
    write_summary(path, summary)
    return summary
