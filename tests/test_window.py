"""Radial windows: a run steps only its numerical support, a light-cone run
only the cells its rays see."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import energy_run
from wavelab import (BumpSpec, EnergyTrace, InitialData, InstabilityError, ScenarioConfig,
                     WaveState, init_state, run_simulation)
from wavelab.bumps import initial_values
from wavelab.profile import RayTraceCollector
from wavelab.scenarios import default_config
from wavelab.solver import CONE_REACH, TINY, TRACE_DT, run_size

H = 1.0 / 32.0


def scaling_rung(eps, cfl=0.9):
    """One epsilon-scaling rung at smoke size: T = 4/eps, h = 1/32, R0 = 1."""
    data = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       g2=(BumpSpec((0.0, 0.0), 1.0, 0.6),), epsilon=eps)
    return ScenarioConfig(name="epsilon-scaling", data=data, mode="radial",
                          T=4.0 / eps, h=H, cfl=cfl)


def ray_traces(cfg, sigmas, cone, extra=(), t_end=None):
    """Traces sampled every fourth step up to t_end (default cfg.T)."""
    t_end = cfg.T if t_end is None else t_end
    collector = RayTraceCollector(sigmas)
    times = np.append(np.arange(0.0, t_end, 4 * cfg.dt), t_end)
    result = run_simulation(cfg, nonlinear=True, cone=cone,
                            samplers=[(times, collector), *extra])
    return result, collector.traces()


def assert_equal_traces(full, windowed):
    for a, b in zip(full, windowed, strict=True):
        for name in ("t", "V1", "V2", "K1", "K2"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.sigma, name)


def test_windowed_run_equals_full_run():
    """Every trace value, the remainder's too, is bit-identical, also at foot
    points past the window's outer edge (sigma > R0 = 1).  Sampling stops
    0.6 time units before T, so that the foot point at sigma = 1.6 stays on
    the grid."""
    cfg = scaling_rung(0.6)
    sigmas = [0.0, 0.5, 1.1, 1.6]
    lows = []
    trace = EnergyTrace(cfg)
    result, full = ray_traces(cfg, sigmas, cone=None, t_end=cfg.T - 0.6,
                              extra=[(trace.times, trace)])
    assert result is None and trace.t[-1] >= cfg.T
    result, windowed = ray_traces(cfg, sigmas, cone=0.0, t_end=cfg.T - 0.6,
                                  extra=[((cfg.T,), lambda s: lows.append(s.lo))])
    assert result is None
    assert lows[0] > 0                        # the inner edge has moved
    assert_equal_traces(full, windowed)
    assert windowed[3].V1[0] == 0.0 and windowed[0].V1[-1] != 0.0


@settings(max_examples=10, deadline=None)
@given(sigmas=st.lists(st.floats(-2.0, 1.0), min_size=1, max_size=4, unique=True),
       eps=st.floats(0.6, 1.0), cfl=st.sampled_from([0.3, 0.45, 0.9]))
def test_windowed_equals_full_for_random_sigmas(sigmas, eps, cfl):
    cfg = scaling_rung(eps, cfl)
    _, full = ray_traces(cfg, sigmas, cone=None)
    _, windowed = ray_traces(cfg, sigmas, cone=min(sigmas))
    assert_equal_traces(full, windowed)


@pytest.mark.parametrize("cone", [0.5, None])
def test_window_invariant_every_step(cone):
    """The last two held cells are 0.0 at the levels a step reads, or hi is the
    domain; hi grows by at most one cell per step.  The window holds 4 cells
    or more, which the kernel assumes.  A light-cone window's lo moves up one
    cell per step once it leaves the origin; a whole-disk window's lo stays
    there.  The six views span the held cells after every step, the three
    levels are three buffers, and the step's top level is the next step's
    diagnosed one, in the same memory."""
    cfg = scaling_rung(0.6)
    n_domain = math.ceil((cfg.data.support_radius + cfg.T) / H) + 3
    seen, tops = [], []

    def check(state):
        edge_zero = not (state.u_next[:, -2:].any() or state.u_curr[:, -2:].any())
        assert edge_zero or state.hi == n_domain
        assert state.hi - state.lo == len(state.xs) >= 4
        assert state.xs[0] == (state.lo + 0.5) * H
        assert state.u_curr.shape == state.dt_u.shape == (2, len(state.xs))
        levels = state.u_prev, state.u_curr, state.u_next
        for view in (*levels, state.dt_u, state.xs, state.measure):
            assert view.shape[-1] == state.hi - state.lo
        assert not any(np.shares_memory(a, b) for a, b in combinations(levels, 2))
        assert not tops or np.shares_memory(state.u_curr, tops[-1])
        seen.append((state.lo, state.hi))
        tops.append(state.u_next)

    steps = np.arange(0.0, cfg.T, cfg.dt)
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


def _reference_cartesian_energies(u, dt_u, h):
    out = []
    for j in range(2):
        gx, gy = np.zeros_like(u[j]), np.zeros_like(u[j])
        gx[2:-2, :] = (u[j, :-4, :] - 8.0 * u[j, 1:-3, :] + 8.0 * u[j, 3:-1, :]
                       - u[j, 4:, :]) / (12.0 * h)
        gy[:, 2:-2] = (u[j, :, :-4] - 8.0 * u[j, :, 1:-3] + 8.0 * u[j, :, 3:-1]
                       - u[j, :, 4:]) / (12.0 * h)
        out.append(0.5 * float(np.sum((dt_u[j] ** 2 + gx * gx + gy * gy) * (h * h))))
    return tuple(out)


def _radial_coefficients(xs, h, dt):
    """A, cp and cm of the folded radial update, built as the solver builds them."""
    k = dt * dt / (h * h)
    c = dt * dt / (2.0 * h * xs)
    cp, cm = k + c, k - c
    cp[0], cm[0] = 2.0 * k, 0.0
    return 2.0 - 2.0 * k, cp, cm


def _radial_fold(xs, h, dt):
    """fold(u, m): one component's folded radial update over every cell of
    the domain of cell centres xs, even ghost at the origin, Dirichlet wall."""
    A, cp, cm = _radial_coefficients(xs, h, dt)

    def fold(u, m):
        ext = np.concatenate([u[:1], u, [0.0]])
        return (A * u - m + cp * ext[2:]) + cm * ext[:-2]
    return fold


def _cartesian_fold(h, dt):
    """fold(u, m): one component's folded 5-point update at the interior
    nodes; the Dirichlet ring stays 0.0."""
    k = dt * dt / (h * h)
    A = 2.0 - 4.0 * k

    def fold(u, m):
        lin = np.zeros_like(u)
        lin[1:-1, 1:-1] = (A * u[1:-1, 1:-1] - m[1:-1, 1:-1]) + k * (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2])
        return lin
    return fold


def _assert_trace_integrates(cfg, nonlinear, Ds):
    """An EnergyTrace sampler holds, at its rows, the reference
    dissipation Ds (one value per level from t = 0) and its step-resolution
    trapezoid."""
    dt = cfg.dt
    cums = [0.0]
    for D_prev, D in zip(Ds, Ds[1:]):
        cums.append(cums[-1] + 0.5 * dt * (D_prev + D))
    stride = max(1, round(TRACE_DT / dt))
    rows = [n for n in range(len(Ds)) if n % stride == 0 or n == len(Ds) - 1]
    trace = energy_run(cfg, nonlinear)
    assert trace.D.tolist() == [Ds[n] for n in rows]
    assert trace.cum_D.tolist() == [cums[n] for n in rows]
    return cums[-1]


def _reference_step(top, mid, fold, dt, nonlinear, flush):
    """One leapfrog step component by component: (new level, d_t u at top).

    fold(u, m) is one component's linear update A*u - m + dt^2 (neighbour
    terms); flush(new) zeroes the subnormal values of the new level.  The
    cubic term dt^2 v_k^2 v_j is built from the increment w = dt v / s, the
    lagged one-sided difference (s = 1) or the centred one (s = 2), as
    c (w_0 w_1) w_k with c = 1 / (s^3 dt)."""
    lin = np.empty_like(top)
    for j in range(2):
        lin[j] = fold(top[j], mid[j])
    new = lin
    if nonlinear:
        w, c = top - mid, 1.0 / dt
        new = np.empty_like(top)
        for i in range(3):
            if i:
                w, c = new - mid, 0.125 / dt
            P = (w[0] * c) * w[1]
            new[0] = lin[0] - P * w[1]
            new[1] = lin[1] - P * w[0]
    flush(new)
    return new, (new - mid) * (0.5 / dt)


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
def test_whole_disk_window_steps_like_every_cell(radial_data, nonlinear):
    """A whole-disk run equals, at every step, a reference loop that steps
    every cell of the domain, until and after its support reaches the wall.
    The reference keeps its own outer edge hi by the window's rule, flushes
    its cells [0, hi), and sums D and the energies over them; an EnergyTrace
    integrates that D.  A light-cone window's held cells [lo, hi) equal the
    reference's at every step too: the cell its cut makes wrong, the first,
    leaves the window as lo moves up."""
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=3.0, h=1.0 / 16.0)
    state = init_state(cfg, nonlinear=nonlinear)
    cone_state = init_state(cfg, nonlinear=nonlinear, cone=0.5)
    h, dt = state.h, state.dt
    n = math.ceil((radial_data.support_radius + cfg.T) / h) + 3
    xs = (np.arange(n) + 0.5) * h
    measure = 2.0 * np.pi * xs * h
    fold = _radial_fold(xs, h, dt)

    def flush(new):
        _flush(new[:, :hi])

    def padded(a):
        full = np.zeros((2, n))
        full[:, :state.hi] = a
        return full

    def dissipation(dt_u):
        prod = dt_u[0, :hi] * dt_u[1, :hi]
        return float(np.sum(prod * prod * measure[:hi]))

    hi = state.hi
    mid, top, dt_u = padded(state.u_curr), padded(state.u_next), padded(state.dt_u)
    Ds = [dissipation(dt_u)]
    assert state.dissipation() == Ds[0]
    his = []
    for _ in range(math.ceil(cfg.T / dt)):
        new, dt_u = _reference_step(top, mid, fold, dt, nonlinear, flush)
        mid, top = top, new
        if hi < n and (top[:, hi - 2:hi].any() or mid[:, hi - 2:hi].any()):
            hi += 1
        Ds.append(dissipation(dt_u))

        state.step()
        his.append(state.hi)
        assert state.lo == 0 and state.hi == hi
        assert np.array_equal(padded(state.u_curr), mid)
        assert np.array_equal(padded(state.u_next), top)
        assert np.array_equal(padded(state.dt_u), dt_u)
        assert state.dissipation() == Ds[-1]
        assert state.energies() == _reference_energies(mid[:, :hi], dt_u[:, :hi],
                                                       measure[:hi], h)

        cone_state.step()
        lo = cone_state.lo
        assert cone_state.hi == hi
        assert np.array_equal(cone_state.u_curr, mid[:, lo:hi])
        assert np.array_equal(cone_state.u_next, top[:, lo:hi])
        assert np.array_equal(cone_state.dt_u, dt_u[:, lo:hi])
    assert his[0] < n and his[-1] == n          # the support reached the wall
    assert cone_state.lo > 0                    # the inner edge has moved
    _assert_trace_integrates(cfg, nonlinear, Ds)


def _flush(new):
    """Zero the subnormal values of new in place, as a radial step does with
    its new values; how many there were."""
    zeroed = _subnormal(new)
    new[np.abs(new) < TINY] = 0.0
    return zeroed


# the cells of a window: exactly 4, and 40; every radial step flushes from lo
_EDGE_CASES = {"4-cells": 4, "flush-at-lo": 40}


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_window_edges_step_like_the_reference(case, nonlinear, rng):
    """The kernel does the first and last held cell with the neighbour outside
    the window skipped and the cells between in one loop, all by one per-cell
    update.  It steps bit for bit like the numpy reference step, which
    flushes every new value, on levels that mix values of order 0.1 with
    subnormal ones, at the window's ends and in its middle, so that the
    flush zeroes new values."""
    cells = _EDGE_CASES[case]
    h = 1.0 / 16.0
    dt = 0.45 * h
    xs = (np.arange(cells) + 0.5) * h
    i = np.arange(cells)
    tiny = (i < 3) | ((i >= 18) & (i < 22)) | (i >= cells - 3) if cells > 4 else i > 0
    scale = np.where(tiny, 1e-309, 0.1)
    u = scale * rng.standard_normal((2, cells))
    levels = [u, u + 0.05 * scale * rng.standard_normal((2, cells))]
    state = WaveState("radial", h, dt, xs, np.zeros((2, cells)), *levels, np.zeros((2, cells)),
                      nonlinear=nonlinear)
    assert (state.lo, state.hi) == (0, cells)
    fold = _radial_fold(xs, h, dt)
    zeroed = 0

    def flush(new):
        nonlocal zeroed
        zeroed += _flush(new)

    mid, top = (a.copy() for a in levels)
    for _ in range(3):
        new, dt_u = _reference_step(top, mid, fold, dt, nonlinear, flush)
        mid, top = top, new
        state.step()
        assert state.hi == cells
        assert state.u_next.tobytes() == top.tobytes()
        assert state.dt_u.tobytes() == dt_u.tobytes()
    assert zeroed > 0


def _cartesian_config(eps=1.0, cfl=0.45):
    """A T = 1 Cartesian run of off-centre data of both components, h = 1/16."""
    data = InitialData(f1=(BumpSpec((0.3, 0.15), 0.9, 1.0),),
                       g1=(BumpSpec((-0.1, 0.2), 0.8, -0.6),),
                       f2=(BumpSpec((-0.2, 0.1), 0.7, 0.8),),
                       g2=(BumpSpec((0.1, -0.25), 0.9, 1.2),), epsilon=eps)
    return ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                          T=1.0, h=1.0 / 16.0, cfl=cfl)


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
def test_cartesian_step_equals_component_loop(nonlinear):
    """A Cartesian run equals, at every step, the folded 5-point update
    applied to one component at a time (Cartesian steps do not flush), and
    its energies the fourth-order gradient formula of one component at a
    time; also with data three times larger, whose cubic term is 27 times
    larger, at another CFL number."""
    for eps, cfl in ((1.0, 0.45), (3.0, 0.3)):
        cfg = _cartesian_config(eps, cfl)
        state = init_state(cfg, nonlinear=nonlinear)
        h2, dt = state.h * state.h, state.dt
        fold = _cartesian_fold(state.h, dt)

        def dissipation(dt_u):
            prod = dt_u[0] * dt_u[1]
            return float(np.sum(prod * prod * h2))

        mid, top = state.u_curr.copy(), state.u_next.copy()
        Ds = [dissipation(state.dt_u)]
        assert state.dissipation() == Ds[0]
        for _ in range(math.ceil(cfg.T / dt)):
            new, dt_u = _reference_step(top, mid, fold, dt, nonlinear, flush=lambda new: None)
            mid, top = top, new
            Ds.append(dissipation(dt_u))

            state.step()
            assert np.array_equal(state.u_curr, mid)
            assert np.array_equal(state.u_next, top)
            assert np.array_equal(state.dt_u, dt_u)
            assert state.dissipation() == Ds[-1]
            assert state.energies() == _reference_cartesian_energies(mid, dt_u, state.h)
        assert _assert_trace_integrates(cfg, nonlinear, Ds) > 0


def _start_config(case):
    """A T = 1 run of default conservation data (radial), of data whose first
    component holds e^-720, a subnormal value, at its outermost cell inside
    the support, 15.5 h (radial, h = 1/16), or _cartesian_config()."""
    if case == "radial":
        return replace(default_config("conservation"), T=1.0)
    if case == "cartesian-2d":
        return _cartesian_config()
    h = 1.0 / 16.0
    edge = 15.5 * h / math.sqrt(1.0 - 1.0 / 721.0)
    data = InitialData(f1=(BumpSpec((0.0, 0.0), edge, 1.0),),
                       g1=(BumpSpec((0.0, 0.0), 0.5, -0.5),),
                       f2=(BumpSpec((0.0, 0.0), 0.8, 0.3),),
                       g2=(BumpSpec((0.0, 0.0), 0.6, 1.0),), epsilon=1.0)
    return ScenarioConfig(name="conservation", data=data, mode="radial", T=1.0, h=h)


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
@pytest.mark.parametrize("case", ["radial", "radial-flush-band", "cartesian-2d"])
def test_start_level_is_the_taylor_expansion(case, nonlinear):
    """init_state's levels at -dt and dt are, bit for bit, base -+ dt g0 with
    base = (1/2) lin(u0, 0) [+ (dt^2/2) (-(g0_k)^2 g0_j), k the other
    component], lin the folded update of each component over every cell of
    the domain, flushed in radial mode like every radial step: the cell past
    the subnormal value, whose unflushed start is the subnormal 0.5 cm u0,
    starts at 0.0."""
    cfg = _start_config(case)
    state = init_state(cfg, nonlinear=nonlinear)
    n, h, dt = run_size(cfg)[0], cfg.h, cfg.dt
    if cfg.mode == "radial":
        xs = (np.arange(n) + 0.5) * h
        pts = np.stack([xs, np.zeros_like(xs)], axis=-1)
        fold = _radial_fold(xs, h, dt)
    else:
        xs = (np.arange(2 * n + 1) - n) * h
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        fold = _cartesian_fold(h, dt)
    u0, g0 = initial_values(cfg.data, pts)[:2]
    lin = np.stack([fold(u, np.zeros_like(u)) for u in u0])
    if case == "radial-flush-band":
        past = np.flatnonzero(u0[0])[-1] + 1
        assert _subnormal(u0[0, past - 1]) and _subnormal(0.5 * lin[0, past])
    if cfg.mode == "radial":
        _flush(lin)
    base = 0.5 * lin
    if nonlinear:
        base += (0.5 * dt * dt) * (-(g0[::-1] ** 2) * g0)
    levels = {"u_prev": base - dt * g0, "u_curr": u0, "u_next": base + dt * g0, "dt_u": g0}
    if case == "radial-flush-band":
        assert state.u_prev[0, past] == state.u_next[0, past] == 0.0
    for name, level in levels.items():
        # a radial state holds the cells [0, hi), and 0.0 past them
        assert getattr(state, name).tobytes() == level[:, :state.hi].tobytes(), name
        assert not level[:, state.hi:].any(), name


@pytest.mark.parametrize("mode", ["radial", "cartesian-2d"])
def test_nonlinear_step_is_the_textbook_cubic_term(mode):
    """One nonlinear step equals new_j = lin_j - dt^2 v_k^2 v_j, k the other
    component, iterated three times: v the lagged one-sided difference of
    the two top levels, then twice the centred one of the last pass; lin
    is the new level of a free state's step from the same two levels."""
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       g1=(BumpSpec((0.0, 0.0), 0.7, -2.0),),
                       f2=(BumpSpec((0.0, 0.0), 0.8, 0.5),),
                       g2=(BumpSpec((0.0, 0.0), 1.0, 2.5),), epsilon=1.0)
    cfg = ScenarioConfig(name="conservation", data=data, mode=mode, T=1.0,
                         h=1.0 / 16.0)
    state = init_state(cfg, nonlinear=True)
    for _ in range(5):
        state.step()
    dt = state.dt
    top, mid = state.u_next.copy(), state.u_curr.copy()
    # a radial state's window starts at the origin, and its cells past hi are
    # 0.0, so a state of the window's cells steps them alike
    free = WaveState(mode, state.h, dt, state.xs, np.zeros_like(top), mid, top,
                     np.zeros_like(top), nonlinear=False)
    lin = free.step().u_next
    v = (top - mid) / dt
    for _ in range(3):
        new = lin - dt * dt * v[::-1] ** 2 * v
        v = (new - mid) / (2.0 * dt)
    state.step()
    # a radial step may zero values below TINY, and its window may grow by
    # one cell, which holds 0.0
    n = new.shape[1]
    np.testing.assert_allclose(state.u_next[:, :n], new, rtol=1e-14, atol=TINY)
    assert not state.u_next[:, n:].any()
    assert np.max(np.abs(new - lin)) > 1e-6 * np.max(np.abs(new))


def _smooth_levels(state):
    """Smooth top and mid levels on the held window of a radial state."""
    r = state.xs
    top = np.stack([np.cos(1.3 * r) * np.exp(-0.1 * r), np.sin(0.7 * r + 0.2)])
    return top, 0.5 * top[::-1]


def _operator_state(radial_data, case):
    """A radial state whose window starts at the origin, starts past it (a
    light-cone window), or ends at the wall."""
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=3.0, h=1.0 / 16.0)
    if case == "origin":
        state = init_state(cfg, nonlinear=False)
        assert state.lo == 0 and state.hi < state._cells
    elif case == "cone":
        state = init_state(cfg, nonlinear=False, cone=0.5)
        while state.lo == 0:
            state.step()
    else:
        xs = (np.arange(40) + 0.5) * cfg.h
        zeros = np.zeros((2, len(xs)))
        state = WaveState("radial", cfg.h, cfg.dt, xs, zeros, zeros.copy(),
                          zeros.copy(), zeros.copy(), nonlinear=False)
        assert state.lo == 0 and state.hi == state._cells
    return state


@pytest.mark.parametrize("case", ["origin", "cone", "wall"])
def test_linear_update_is_the_reference_laplacian(radial_data, case):
    """(lin - 2 u + mid) / dt^2 of the folded update, the new level of a
    free step from mid and u, is the radial Laplacian over every cell, with
    the window's missing neighbours read as 0.0 (the even ghost at the
    origin)."""
    state = _operator_state(radial_data, case)
    top, mid = _smooth_levels(state)
    lo, hi = state.lo, state.hi
    state.u_curr[:], state.u_next[:] = mid, top
    # the step's window may move, so the new level is read from its buffer
    state.step()
    lin = state._levels[(state.n + 1) % 3][:, lo:hi]
    lap = (lin - 2.0 * top + mid) / state.dt ** 2

    # the held window embedded in the whole domain, zeros outside it
    n = state._cells
    full = np.zeros((2, n))
    full[:, lo:hi] = top
    xs = (np.arange(n) + 0.5) * state.h
    ref = np.stack([_reference_laplacian(full[j], 1.0 / xs, state.h) for j in range(2)])
    ref = ref[:, lo:hi]
    assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))


def _smoke_radial_configs():
    for name in ("conservation", "symmetric-decay", "nondecay-demo", "epsilon-scaling"):
        cfg = default_config(name)
        if name == "epsilon-scaling":
            cfg = replace(cfg, data=replace(cfg.data, epsilon=0.6), T=4.0 / 0.6)
        yield pytest.param(replace(cfg, T=min(cfg.T, 8.0), h=1.0 / 64.0), id=name)


def _subnormal(a):
    return int(np.count_nonzero((a != 0.0) & (np.abs(a) < TINY)))


@pytest.mark.parametrize("cone", [None, 0.0], ids=["whole-disk", "cone"])
@pytest.mark.parametrize("cfg", list(_smoke_radial_configs()))
def test_no_subnormal_held_values(cfg, cone):
    """After every step no held cell of the three levels is subnormal, and the
    window keeps its invariant: the last two held cells are 0.0 at the levels
    the next step reads, or hi is the domain."""
    state = init_state(cfg, nonlinear=True, cone=cone)
    n_domain = state._cells
    for _ in range(math.ceil(cfg.T / state.dt)):
        hi = state.hi
        state.step()
        assert all(_subnormal(a) == 0 for a in (state.u_prev, state.u_curr, state.u_next))
        edge_zero = not (state.u_next[:, -2:].any() or state.u_curr[:, -2:].any())
        assert edge_zero or state.hi == n_domain
        assert 0 <= state.hi - hi <= 1


def test_window_ends_at_its_horizon():
    cfg = scaling_rung(1.0)
    state = init_state(cfg, nonlinear=True, cone=0.0)
    for _ in range(int(np.ceil(cfg.T / state.dt))):
        state.step()
    with pytest.raises(ValueError, match="step count"):
        state.step()


def test_step_count_past_the_end_leaves_the_state():
    """A light-cone window, or a whole-disk state's dissipation record, refuses
    a step(k) that passes its last step before it steps at all: levels,
    dt_u, n, t, lo and hi stay; the steps up to the last are taken."""
    cfg = scaling_rung(1.0)
    last = run_size(cfg)[1]
    cone_state = init_state(cfg, nonlinear=True, cone=0.0)
    recorded = init_state(cfg, nonlinear=True)
    recorded._record_dissipation(last)
    for state, what in ((cone_state, "light-cone window"), (recorded, "dissipation record")):
        state.step(last - 3)
        before = ([a.copy() for a in (*state._levels, state._dt_u)],
                  (state.n, state.t, state.lo, state.hi))
        with pytest.raises(ValueError, match=f"a {what} ends at the step count it was sized "
                           f"for, {last}; step {last - 3} cannot take 4 more"):
            state.step(4)
        assert all(np.array_equal(a, b) for a, b in
                   zip(before[0], (*state._levels, state._dt_u)))
        assert (state.n, state.t, state.lo, state.hi) == before[1]
        state.step(3)
        assert state.n == last


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


def test_energy_trace_refuses_a_light_cone_run():
    with pytest.raises(ValueError, match="light-cone window"):
        energy_run(scaling_rung(1.0), nonlinear=True, cone=0.0)


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
    state.sample([(edge, 0.0)])
    with pytest.raises(ValueError, match="light-cone window"):
        state.sample([(edge - 0.5 * H, 0.0)])
