"""Radial windows: a run steps only its numerical support, a light-cone run
only the cells its rays see."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab import (BumpSpec, InitialData, InstabilityError, ScenarioConfig, field_value,
                     init_state, run_simulation)
from wavelab.profile import RayTraceCollector
from wavelab.solver import CONE_REACH

H = 1.0 / 32.0


def scaling_rung(eps, cfl=0.9):
    """One epsilon-scaling rung at smoke size: T = 4/eps, h = 1/32, R0 = 1."""
    data = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       g2=(BumpSpec((0.0, 0.0), 1.0, 0.6),), epsilon=eps)
    return ScenarioConfig(name="epsilon-scaling", data=data, mode="radial",
                          T=4.0 / eps, h=H, cfl=cfl)


def ray_traces(cfg, sigmas, cone, with_remainder=True, extra=()):
    collector = RayTraceCollector(sigmas, 0.7, with_remainder=with_remainder)
    times = np.append(np.arange(0.0, cfg.T, 4 * cfg.cfl * cfg.h), cfg.T)
    result = run_simulation(cfg, nonlinear=True, cone=cone,
                            samplers=[(times, collector), *extra])
    return result, collector.traces()


def assert_equal_traces(full, windowed):
    for a, b in zip(full, windowed, strict=True):
        for name in ("t", "V1", "V2", "K1", "K2"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.sigma, name)


def test_windowed_run_equals_full_run():
    """With the remainder on, every trace value is bit-identical, also at foot
    points past the window's outer edge (sigma > R0 = 1)."""
    cfg = scaling_rung(0.6)
    sigmas = [0.0, 0.5, 1.1, 1.6]
    lows = []
    trace, full = ray_traces(cfg, sigmas, cone=None)
    assert trace is not None
    result, windowed = ray_traces(cfg, sigmas, cone=0.0,
                                  extra=[((cfg.T,), lambda s: lows.append(s.lo))])
    assert result is None
    assert lows[0] > 0                        # the inner edge has moved
    assert_equal_traces(full, windowed)
    assert windowed[3].V1[0] == 0.0 and windowed[0].V1[-1] != 0.0


@settings(max_examples=10, deadline=None)
@given(sigmas=st.lists(st.floats(-2.0, 1.2), min_size=1, max_size=4, unique=True),
       eps=st.floats(0.6, 1.0), cfl=st.sampled_from([0.3, 0.45, 0.9]))
def test_windowed_equals_full_for_random_sigmas(sigmas, eps, cfl):
    cfg = scaling_rung(eps, cfl)
    _, full = ray_traces(cfg, sigmas, cone=None, with_remainder=False)
    _, windowed = ray_traces(cfg, sigmas, cone=min(sigmas), with_remainder=False)
    assert_equal_traces(full, windowed)


@pytest.mark.parametrize("cone", [0.5, None])
def test_window_invariant_every_step(cone):
    """The last two held cells are 0.0 at the levels a step reads, or hi is the
    domain; hi grows by at most one cell per step.  A light-cone window's lo
    moves up one cell per step once it leaves the origin; a whole-disk
    window's lo stays there."""
    cfg = scaling_rung(0.6)
    n_domain = math.ceil((cfg.data.support_radius + cfg.T) / H) + 3
    seen = []

    def check(state):
        edge_zero = not (state.u_next[:, -2:].any() or state.u_curr[:, -2:].any())
        assert edge_zero or state.hi == n_domain
        assert state.hi - state.lo == len(state.xs)
        assert state.xs[0] == (state.lo + 0.5) * H
        assert state.u_curr.shape == state.dt_u.shape == (2, len(state.xs))
        seen.append((state.lo, state.hi))

    steps = np.arange(0.0, cfg.T, cfg.cfl * cfg.h)
    run_simulation(cfg, nonlinear=True, cone=cone, samplers=[(steps, check)])
    assert len(seen) == len(steps)
    assert seen[0][1] < n_domain and seen[-1][1] <= n_domain
    assert all(0 <= b[1] - a[1] <= 1 for a, b in zip(seen, seen[1:]))
    if cone is None:
        assert all(lo == 0 for lo, _ in seen)
        return
    # at the last step lo stands CONE_REACH cells below the stencil at t + cone
    assert (cfg.T + cone) / H - 1.5 - CONE_REACH - 1 <= seen[-1][0] \
        <= (cfg.T + cone) / H - 1.5 - CONE_REACH + 1
    assert all(b[0] - a[0] == (a[0] > 0 or b[0] > 0) for a, b in zip(seen, seen[1:]))


def _reference_laplacian(u, rinv, h):
    """The radial Laplacian over every cell of the domain, Dirichlet at the wall."""
    h2 = h * h
    lap = np.zeros_like(u)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 \
        + (u[2:] - u[:-2]) * (rinv[1:-1] / (2.0 * h))
    lap[0] = 2.0 * (u[1] - u[0]) / h2
    lap[-1] = (-2.0 * u[-1] + u[-2]) / h2 + (-u[-2]) * (rinv[-1] / (2.0 * h))
    return lap


def _reference_energies(u, dt_u, measure, h):
    out = []
    for j in range(2):
        ext = np.concatenate([u[j, 1::-1], u[j], [0.0, 0.0]])
        grad = (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / (12.0 * h)
        out.append(0.5 * float(np.sum((dt_u[j] ** 2 + grad ** 2) * measure)))
    return tuple(out)


def _reference_step(top, mid, lap, dt, nonlinear):
    """One leapfrog step component by component: (new level, d_t u at top)."""
    dt2 = dt * dt
    lin = np.empty_like(top)
    for j in range(2):
        lin[j] = 2.0 * top[j] - mid[j] + dt2 * lap(top[j])
    if not nonlinear:
        return lin, (lin - mid) / (2.0 * dt)
    v = (top - mid) / dt
    new = np.empty_like(top)
    for _ in range(3):
        new[0] = lin[0] - dt2 * (v[1] * v[1]) * v[0]
        new[1] = lin[1] - dt2 * (v[0] * v[0]) * v[1]
        v = (new - mid) / (2.0 * dt)
    return new, v


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
def test_whole_disk_window_steps_like_every_cell(radial_data, nonlinear):
    """A whole-disk run equals, at every step, a reference loop that steps
    every cell of the domain, until and after its support reaches the wall."""
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=3.0, h=1.0 / 16.0)
    state = init_state(cfg, nonlinear=nonlinear)
    h, dt = state.h, state.dt
    n = math.ceil((radial_data.support_radius + cfg.T) / h) + 3
    xs = (np.arange(n) + 0.5) * h
    rinv, measure = 1.0 / xs, 2.0 * np.pi * xs * h

    def padded(a):
        full = np.zeros((2, n))
        full[:, :state.hi] = a
        return full

    mid, top, dt_u = padded(state.u_curr), padded(state.u_next), padded(state.dt_u)
    prod = dt_u[0] * dt_u[1]
    D = float(np.sum(prod * prod * measure))
    cum = 0.0
    his = []
    for _ in range(math.ceil(cfg.T / dt)):
        new, dt_u = _reference_step(top, mid, lambda u: _reference_laplacian(u, rinv, h),
                                    dt, nonlinear)
        mid, top = top, new
        prod = dt_u[0] * dt_u[1]
        D_new = float(np.sum(prod * prod * measure))
        cum += 0.5 * dt * (D + D_new)
        D = D_new

        state.step()
        his.append(state.hi)
        assert state.lo == 0
        assert np.array_equal(padded(state.u_curr), mid)
        assert np.array_equal(padded(state.u_next), top)
        assert np.array_equal(padded(state.dt_u), dt_u)
        assert state.D == D and state.cum_dissipation == cum
        assert state.energies() == _reference_energies(mid, dt_u, measure, h)
    assert his[0] < n and his[-1] == n          # the support reached the wall


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
def test_cartesian_step_equals_component_loop(nonlinear):
    """A Cartesian run equals, at every step, the 5-point Laplacian and the
    leapfrog update applied to one component at a time."""
    data = InitialData(f1=(BumpSpec((0.3, 0.15), 0.9, 1.0),),
                       g1=(BumpSpec((-0.1, 0.2), 0.8, -0.6),),
                       f2=(BumpSpec((-0.2, 0.1), 0.7, 0.8),),
                       g2=(BumpSpec((0.1, -0.25), 0.9, 1.2),), epsilon=1.0)
    cfg = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                         T=1.0, h=1.0 / 16.0)
    state = init_state(cfg, nonlinear=nonlinear)
    h2, dt = state.h * state.h, state.dt

    def laplacian(u):
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1] = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                           + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]) / h2
        return lap

    mid, top = state.u_curr.copy(), state.u_next.copy()
    prod = state.dt_u[0] * state.dt_u[1]
    D = float(np.sum(prod * prod * h2))
    assert state.D == D
    cum = 0.0
    for _ in range(math.ceil(cfg.T / dt)):
        new, dt_u = _reference_step(top, mid, laplacian, dt, nonlinear)
        mid, top = top, new
        prod = dt_u[0] * dt_u[1]
        D_new = float(np.sum(prod * prod * h2))
        cum += 0.5 * dt * (D + D_new)
        D = D_new

        state.step()
        assert np.array_equal(state.u_curr, mid)
        assert np.array_equal(state.u_next, top)
        assert np.array_equal(state.dt_u, dt_u)
        assert state.D == D and state.cum_dissipation == cum
    assert cum > 0


def test_window_ends_at_its_horizon():
    cfg = scaling_rung(1.0)
    state = init_state(cfg, nonlinear=True, cone=0.0)
    for _ in range(int(np.ceil(cfg.T / state.dt))):
        state.step()
    with pytest.raises(ValueError, match="step count"):
        state.step()


def test_instability_location_is_global():
    state = init_state(scaling_rung(1.0), nonlinear=False, cone=0.5)
    while state.lo < 10:
        state.step()
    state.u_next[0, 5] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(InstabilityError) as err:
            state.step()
    assert state.lo + 4 <= err.value.location[0] <= state.lo + 6


@pytest.mark.parametrize("value", [-np.inf, np.nan])
def test_instability_in_second_component(value):
    state = init_state(scaling_rung(1.0), nonlinear=True, cone=0.5)
    while state.lo < 10:
        state.step()
    state.u_next[1, 5] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(InstabilityError) as err:
            state.step()
    assert state.lo + 4 <= err.value.location[0] <= state.lo + 6


def test_windowed_state_has_no_energies():
    state = init_state(scaling_rung(1.0), nonlinear=True, cone=0.0)
    state.step()
    with pytest.raises(ValueError, match="window"):
        state.energies()
    with pytest.raises(ValueError, match="window"):
        state.dissipation()


def test_cone_rejected_in_cartesian(offset_data):
    cfg = ScenarioConfig(name="conservation", data=offset_data,
                         mode="cartesian-2d", T=0.5, h=1.0 / 8.0)
    with pytest.raises(ValueError, match="radial"):
        run_simulation(cfg, nonlinear=False, cone=0.0)


def test_collector_sigma_below_cone_rejected():
    cfg = scaling_rung(1.0)
    with pytest.raises(ValueError, match="light-cone window"):
        ray_traces(cfg, [-1.0, 0.0], cone=-0.5)


def test_sample_inside_the_cone_rejected():
    state = init_state(scaling_rung(1.0), nonlinear=True, cone=0.5)
    while state.lo == 0:
        state.step()
    edge = state.t + state.cone
    field_value(state, (edge, 0.0))
    with pytest.raises(ValueError, match="light-cone window"):
        field_value(state, (edge - 0.5 * H, 0.0))
