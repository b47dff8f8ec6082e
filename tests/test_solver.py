import ctypes
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import energy_run
from wavelab import (BumpSpec, EnergyTrace, InitialData, InstabilityError, ScenarioConfig,
                     WaveState, _step, free_field, init_state, run_simulation)
from wavelab.config import CFL_LIMITS, ConfigValidationError
from wavelab.scenarios import default_config
from wavelab.solver import TRACE_DT, run_size, sample_steps


def small_config(data, mode="radial", T=2.0, h=1.0 / 32.0, **kw):
    return ScenarioConfig(name="conservation", data=data, mode=mode, T=T, h=h, **kw)


def test_zero_data_stays_zero():
    # zero amplitude: a valid degenerate state that must remain zero
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 0.0),), epsilon=1.0)
    state = init_state(small_config(data), nonlinear=True)
    for _ in range(10):
        state.step()
    assert float(np.max(np.abs(state.u_curr))) == 0.0
    assert state.energies() == (0.0, 0.0)
    assert state.dissipation() == 0.0


def test_radial_rejects_offcenter(offset_data):
    cfg = ScenarioConfig(name="conservation", data=offset_data,
                         mode="cartesian-2d", T=1.0, h=1.0 / 16.0)
    with pytest.raises(ValueError, match="origin"):
        replace(cfg, mode="radial")


def test_timestep_bound_enforced(radial_data):
    # the solver steps by cfl * h, so the config is where the bound holds
    for mode, limit in CFL_LIMITS.items():
        small_config(radial_data, mode=mode, cfl=limit)
        with pytest.raises(ConfigValidationError, match="cfl") as err:
            small_config(radial_data, mode=mode, cfl=math.nextafter(limit, 1.0))
        assert err.value.field == "cfl"


def test_radial_and_cartesian_agree_at_t0(radial_data):
    h = 1.0 / 128.0
    cfg_r = small_config(radial_data, T=1.0, h=h)
    cfg_c = small_config(radial_data, mode="cartesian-2d", T=1.0, h=h)
    sr = init_state(cfg_r, nonlinear=False)
    sc = init_state(cfg_c, nonlinear=False)
    pts = [(r, 0.0) for r in (0.3, 0.55, 0.92)]
    assert np.max(np.abs(sr.sample(pts)[0] - sc.sample(pts)[0])) <= 1e-8


def _reference_stencil(p, n):
    """The Lagrange weights as a plain double loop over the four nodes."""
    k0 = min(max(int(math.floor(p)) - 1, 0), n - 4)
    w = np.ones(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                w[i] *= (p - k0 - j) / (i - j)
    return k0, w


def test_stencil_matches_reference_loop(rng):
    """The kernel's stencil, its first node and Lagrange weights, is the
    reference loop's, bit for bit, read through indicator levels: a radial
    sample of a level that is 1.0 at one cell of a stencil and 0.0 elsewhere
    returns that cell's weight exactly.  u and d_t u of both components hold
    the indicators of the stencil's four cells, so one sample reads all four
    weights; the radii span every cell, the clamped stencils at both ends
    included."""
    n, h = 60, 1.0 / 16.0
    zeros = np.zeros((2, n))
    st = _held_state("radial", h, zeros, zeros)
    level, dt_u = st._levels[st.n % 3], st._dt_u
    for r in np.concatenate([rng.uniform(0.0, (n - 0.5) * h, 500), [0.0, 0.75 * h, 59 * h]]):
        k0, w_ref = _reference_stencil(r / h - 0.5, n)
        level[:], dt_u[:] = 0.0, 0.0
        level[0, k0], level[1, k0 + 1], dt_u[0, k0 + 2], dt_u[1, k0 + 3] = 1.0, 1.0, 1.0, 1.0
        got = st.sample([(r, 0.0)])[:2, :, 0].ravel()
        assert got.tobytes() == w_ref.tobytes(), r


def _held_state(mode, h, u, dt_u):
    """A WaveState that holds every cell, with level u and time derivative
    dt_u given on the radial cell centres or the Cartesian node square."""
    n = u.shape[1]
    xs = (np.arange(n) + 0.5) * h if mode == "radial" else (np.arange(n) - n // 2) * h
    return WaveState(mode, h, 0.45 * h, xs, u_prev=u.copy(), u_curr=u.copy(),
                     u_next=u.copy(), dt_u=dt_u.copy(), nonlinear=False)


@pytest.mark.parametrize("mode", ["radial", "cartesian-2d"])
def test_sample_exact_on_cubics(mode):
    """Every field and component of a sample reproduces a cubic exactly: u
    and d_t u in either mode, and the fourth-order d_r u, exact on cubics,
    in radial mode."""
    h = 1.0 / 16.0

    def cubic(a, b):
        return a ** 3 - 2.0 * a * b ** 2 + b

    x = np.array([[0.61, -0.37], [0.2, 0.9]])
    if mode == "radial":
        rs = (np.arange(40) + 0.5) * h
        c = cubic(rs, 0.5)
        r = np.hypot(*x.T)
        exact, slope = cubic(r, 0.5), 3.0 * r ** 2 - 0.5
    else:
        xs = (np.arange(41) - 20) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        c, exact = cubic(X, Y), cubic(*x.T)
    st = _held_state(mode, h, np.stack([c, -c]), np.stack([2.0 * c, c]))
    got = st.sample(x)
    if mode == "radial":
        want = [[exact, -exact], [2.0 * exact, exact], [slope, -slope]]
    else:
        want = [[exact, -exact]]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("mode", ["radial", "cartesian-2d"])
def test_sample_refuses_points_off_the_grid(radial_data, mode):
    """sample interpolates only: a point on the last radial cell centre or on
    the edge of the Cartesian node square is read, one a quarter cell past
    it raises, also among points on the grid."""
    st = init_state(small_config(radial_data, mode=mode, T=0.5, h=1.0 / 16.0),
                    nonlinear=False)
    q = 0.25 * st.h
    if mode == "radial":
        edge = (st._cells - 0.5) * st.h
        on_grid = [(edge, 0.0), (0.0, -edge)]
        off_grid = [(edge + q, 0.0), (0.0, -edge - q)]
    else:
        lo, hi = st.xs[0], st.xs[-1]
        on_grid = [(lo, lo), (hi, hi), (lo, hi)]
        off_grid = [(hi + q, 0.0), (0.0, lo - q), (lo - q, hi + q)]
    st.sample(np.array(on_grid))
    for x in off_grid:
        with pytest.raises(ValueError, match="past the last cell centre|outside the node"):
            st.sample(np.array([on_grid[0], x]))


@pytest.mark.parametrize("mode,shape", [("radial", (3, 2, 0)), ("cartesian-2d", (1, 2, 0))])
def test_sample_of_no_points_is_empty(radial_data, mode, shape):
    """No points, as an empty list or an empty (0, 2) array, give an empty
    sample of the mode's fields, also on a light-cone window."""
    cfg = small_config(radial_data, mode=mode, T=0.5, h=1.0 / 16.0)
    for cone in (None, 0.0) if mode == "radial" else (None,):
        st = init_state(cfg, nonlinear=True, cone=cone).step()
        for points in ([], np.empty((0, 2))):
            assert st.sample(points).shape == shape


def _parent_sample(state, points):
    """What sample returned before it gathered: a fourth-order d_r u over the
    whole held window (even ghosts at the origin, zeros below a light-cone
    window's lo and past hi), then one stencil per point and field on window
    slices, zeros past the window's outer edge.  Cartesian: u alone, by two
    matmuls, whose order of summation is the host BLAS's."""
    if state.mode != "radial":
        out = []
        for x in points:
            i0, wx = _reference_stencil((x[0] - state.xs[0]) / state.h, state._cells)
            j0, wy = _reference_stencil((x[1] - state.xs[0]) / state.h, state._cells)
            out.append(wx @ state.u_curr[:, i0:i0 + 4, j0:j0 + 4] @ wy)
        return np.array(out).T[None]
    u, h = state.u_curr, state.h
    inner = u[:, 1::-1] if state.lo == 0 else np.zeros((2, 2))
    ext = np.concatenate([inner, u, np.zeros((2, 2))], axis=1)
    grad = (ext[:, :-4] - 8.0 * ext[:, 1:-3] + 8.0 * ext[:, 3:-1] - ext[:, 4:]) / (12.0 * h)
    out = np.empty((len(points), 3, 2))
    for i, x in enumerate(points):
        k0, w = _reference_stencil(float(np.hypot(*x)) / h - 0.5, state._cells)
        for j, a in enumerate((u, state.dt_u, grad)):
            seg = a[:, k0 - state.lo:k0 - state.lo + 4]
            out[i, j] = _dot4(np.concatenate([seg, np.zeros((2, 4 - seg.shape[1]))], axis=1), w)
    return out.transpose(1, 2, 0)


def _dot4(a, w):
    """The values a[..., 0:4] of 4-point stencils times their weights w, in
    the kernel library's fixed order, the one numpy's batched matmul takes
    with OpenBLAS for a (2, 4) block on x86-64: the even products, the odd
    ones, then both."""
    return (a[..., 0] * w[0] + a[..., 2] * w[2]) + (a[..., 1] * w[1] + a[..., 3] * w[3])


def _reference_sample(state, points):
    """WaveState.sample written out per point, with no matmul.  Radial: the
    reference stencil at |x| / h - 1/2; the cells k0 - 2 to k0 + 5 of the
    whole-domain buffers, even ghosts across r = 0 and 0.0 past the n cells;
    d_r u as ((a0 - 8 a1) + 8 a3) - a4 over 12 h on those cells; each
    field's 4 stencil values times the weights by _dot4.  Cartesian: the
    reference stencils of both axes; _dot4 of the first-axis values with
    their weights at each of the four second-axis nodes, then _dot4 of those
    four with the second-axis weights."""
    n, h = state._cells, state.h
    level, dt_u = state._levels[state.n % 3], state._dt_u
    if state.mode != "radial":
        out = np.empty((1, 2, len(points)))
        for i, x in enumerate(points):
            i0, wx = _reference_stencil((x[0] - state.xs[0]) / h, n)
            j0, wy = _reference_stencil((x[1] - state.xs[0]) / h, n)
            rows = _dot4(level[:, i0:i0 + 4, j0:j0 + 4].swapaxes(1, 2), wx)   # (2, 4)
            out[0, :, i] = _dot4(rows, wy)
        return out
    out = np.empty((3, 2, len(points)))
    for i, r in enumerate(np.hypot(points[:, 0], points[:, 1])):
        k0, w = _reference_stencil(r / h - 0.5, n)
        a = np.zeros((2, 8))
        for k, cell in enumerate(range(k0 - 2, k0 + 6)):
            cell = -1 - cell if cell < 0 else cell
            if cell < n:
                a[:, k] = level[:, cell]
        grad = (((a[:, :4] - 8.0 * a[:, 1:5]) + 8.0 * a[:, 3:7]) - a[:, 4:]) / (12.0 * h)
        for j, values in enumerate((a[:, 2:6], dt_u[:, k0:k0 + 4], grad)):
            out[j, :, i] = _dot4(values, w)
    return out


def _kernel_dissipation(dt_u, measure, stride):
    """The kernel library's dissipation over every value of the C-contiguous
    (2, ...) array dt_u, with the measure measure[i * stride]: a radial state
    of dt_u[0].size cells, all held, for stride 1, a Cartesian one of
    dt_u.shape[1] nodes per axis for stride 0."""
    cells = dt_u[0].size if stride else dt_u.shape[1]
    state = _step.State(dtu=dt_u.ctypes.data, measure=measure.ctypes.data, cells=cells,
                        hi=cells, radial=stride)
    return _step.library().dissipation(ctypes.addressof(state))


def _signed(n, rng, scale=20.0):
    """n values of random sign and magnitudes e^-scale to e^scale."""
    return rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-scale, scale, n))


def test_dissipation_sum_is_numpy_pairwise_sum(rng):
    """The library's sum equals np.sum bit for bit, on every length from 0 to
    300 and on longer ones up to 20,000, with magnitudes e^-20 to e^20: of
    the values themselves (d_t u of ones, the values as the measure), and of
    the integrand ((d0 d1)^2) m of random d_t u and a positive measure."""
    lengths = [*range(301), *rng.integers(301, 20001, 30), 20000]
    for n in lengths:
        values = _signed(n, rng)
        got = _kernel_dissipation(np.ones((2, n)), values, 1)
        assert np.float64(got).tobytes() == np.sum(values).tobytes(), n
        dt_u, measure = _signed(2 * n, rng, 10.0).reshape(2, n), np.abs(_signed(n, rng))
        p = dt_u[0] * dt_u[1]
        got = _kernel_dissipation(dt_u, measure, 1)
        assert np.float64(got).tobytes() == np.sum(p * p * measure).tobytes(), n


def test_dissipation_sum_of_a_node_square_with_one_measure(rng):
    """np.sum of a contiguous (n, n) integrand with the scalar measure h^2,
    a Cartesian state's, is the library's flat sum of n^2 values with stride
    0, bit for bit."""
    for n in [*range(1, 40), 63, 64, 65, 100, 129, 257, 300]:
        h2 = rng.uniform(1e-4, 1.0)
        dt_u = _signed(2 * n * n, rng, 10.0).reshape(2, n, n)
        p = dt_u[0] * dt_u[1]
        got = _kernel_dissipation(dt_u, np.array(h2), 0)
        assert np.float64(got).tobytes() == np.sum(p * p * h2).tobytes(), n


@pytest.mark.parametrize("mode,h,T", [("radial", 1.0 / 64.0, 2.0),
                                      ("cartesian-2d", 1.0 / 16.0, 1.0)])
def test_dissipation_is_numpy_sum_at_every_step(radial_data, mode, h, T):
    """At every step of a run, n = 0 included, where d_t u is the data's g
    copied in after the start pass, dissipation() is np.sum of the numpy
    integrand ((d_t u1 d_t u2)^2) measure over the held cells, bit for bit;
    the radial window grows past 128 cells, the Cartesian square has 5,041
    nodes, so both reach the halving of the pairwise sum."""
    cfg = small_config(radial_data, mode=mode, T=T, h=h)
    steps, sizes = [], []

    def check(state):
        p = state.dt_u[0] * state.dt_u[1]
        want = np.sum(p * p * state.measure)
        assert np.float64(state.dissipation()).tobytes() == want.tobytes(), state.n
        assert want > 0.0
        steps.append(state.n)
        sizes.append(p.size)

    run_simulation(cfg, nonlinear=True, samplers=[(np.arange(0.0, cfg.T, cfg.dt), check)])
    assert steps == list(range(len(steps))) and len(steps) > 30
    assert max(sizes) > 128


def _snapshot(state):
    """Every value step(k) writes: the three level slots and d_t u over the
    whole domain, n, t, lo and hi."""
    return ([a.tobytes() for a in (*state._levels, state._dt_u)],
            (state.n, state.t, state.lo, state.hi))


def _step_count_case(radial_data, offset_data, case, nonlinear):
    """A config and two equal states of it for the step(k) tests."""
    if case == "cartesian":
        cfg = small_config(offset_data, mode="cartesian-2d", T=0.5, h=1.0 / 16.0)
    else:
        cfg = small_config(radial_data, T=3.0, h=1.0 / 64.0)
    cone = 0.5 if case == "cone" else None
    return cfg, init_state(cfg, nonlinear, cone=cone), init_state(cfg, nonlinear, cone=cone)


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "free"])
@pytest.mark.parametrize("case", ["whole-disk", "cone", "cartesian"])
def test_step_count_equals_single_steps(radial_data, offset_data, case, nonlinear):
    """step(k) is k single steps, bit for bit: the levels, dt_u, n, t, lo and
    hi after every call, with calls of up to 37 steps that cross growths of
    hi and, on a light-cone window, the start of lo.  A whole-disk state's
    dissipation integral, which the kernel loop carries, holds after every
    call, bit for bit, as D np.sum of the numpy integrand ((d_t u1 d_t u2)^2)
    measure of the state stepped one step at a time, and as cum_D the
    Python trapezoid cum += 0.5 * dt * (Dp + Dn) of those D over every single
    step; the radial window grows past 128 and 256 cells, where the pairwise
    sum splits anew."""
    cfg, looped, single = _step_count_case(radial_data, offset_data, case, nonlinear)
    last = run_size(cfg)[1]
    if case != "cone":
        looped._start_dissipation()

    def D(state):
        p = state.dt_u[0] * state.dt_u[1]
        return np.sum(p * p * state.measure)

    Dn, cum, crossed = D(single), 0.0, set()
    counts = [1, 5, 37, 2, 11] * last
    while looped.n < last:
        k = min(counts.pop(), last - looped.n)
        lo, hi = looped.lo, looped.hi
        assert looped.step(k) is looped
        for _ in range(k):
            single.step()
            Dp, Dn = Dn, D(single)
            cum += 0.5 * single.dt * (Dp + Dn)
        assert _snapshot(looped) == _snapshot(single)
        if case != "cone":
            s = looped._struct
            assert np.array([s.D, s.cum_D]).tobytes() == np.array([Dn, cum]).tobytes(), s.n
        if k > 1:
            crossed |= {"hi"} if looped.hi > hi else set()
            crossed |= {"lo"} if lo == 0 < looped.lo else set()
    assert looped.n == last and looped.t == last * cfg.dt
    if case == "cartesian":
        assert looped.hi == looped._cells
    elif case == "whole-disk":
        assert crossed == {"hi"} and looped.hi > 256
    else:
        assert crossed == {"hi", "lo"}


@pytest.mark.parametrize("case", ["whole-disk", "cartesian"])
def test_step_count_raises_where_single_steps_do(radial_data, offset_data, case):
    """A value that turns non-finite partway through step(k) raises
    InstabilityError at the same t and cell as single steps, and leaves the
    state as they leave it.  Radial: an inf past hi, which a step reads once
    hi has grown over it; Cartesian: an inf on the Dirichlet ring of the slot
    the next step writes, which the step after it reads."""
    cfg, looped, single = _step_count_case(radial_data, offset_data, case, True)
    errors = []
    for state in (looped, single):
        state.step(3)
        if case == "cartesian":
            state._levels[(state.n + 2) % 3][0, 0, 5] = np.inf
        else:
            for level in state._levels:
                level[0, state.hi + 2:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(InstabilityError) as err:
            if state is looped:
                state.step(20)
            else:
                for _ in range(20):
                    state.step()
        errors.append((err.value.t, err.value.location))
    assert errors[0] == errors[1]
    assert _snapshot(looped) == _snapshot(single)
    assert looped.n > 4 if case == "whole-disk" else looped.n == 4
    assert errors[0][0] == (looped.n + 1) * cfg.dt


@pytest.mark.parametrize("case", ["origin", "cone", "wall", "cartesian"])
def test_sample_matches_window_gradient(radial_data, offset_data, rng, case):
    """A sample of the cells each stencil reads gives what a whole-window
    gradient and a stencil per point gave, bit for bit: near the origin,
    where the even ghosts are read, r = 0 and 1e-3 included; on a light-cone
    window with lo > 0; on a state whose hi is the wall n; and on a
    Cartesian state.  Radial points reach past hi and up to the last cell
    centre, whose stencil reaches past n.  The kernel library's sample equals
    the per-point reference written out with no matmul, bit for bit, so
    neither a sample nor this test depends on the host's BLAS; the Cartesian
    parent form, two matmuls in the BLAS's order, agrees to rounding."""
    if case == "wall":
        rs = (np.arange(300) + 0.5) / 64.0
        st = _held_state("radial", 1.0 / 64.0, np.stack([np.sin(3.0 * rs), np.cos(2.0 * rs)]),
                         np.stack([np.cos(5.0 * rs), rs * rs]))
        assert st.hi == st._cells
        r = rng.uniform(0.0, rs[-1], 300)
    elif case == "cartesian":
        st = init_state(small_config(offset_data, mode="cartesian-2d", T=0.5, h=1.0 / 16.0),
                        nonlinear=True)
        for _ in range(5):
            st.step()
        x = np.concatenate([rng.uniform(st.xs[0], st.xs[-1], (200, 2)),
                            [(st.xs[0], st.xs[-1]), (st.xs[-1], st.xs[0])]])
        got = st.sample(x)
        assert got.tobytes() == _reference_sample(st, x).tobytes()
        np.testing.assert_allclose(got, _parent_sample(st, x), rtol=1e-12, atol=1e-15)
        return
    else:
        cfg = small_config(radial_data, T=3.0)
        st = init_state(cfg, nonlinear=True, cone=-0.5 if case == "cone" else None)
        for _ in range(40):
            st.step()
        while st.lo == 0 and case == "cone":
            st.step()
        assert case == "cone" or st.hi + 6 < st._cells
        start = st.t - 0.5 if case == "cone" else 0.0
        r = np.concatenate([rng.uniform(start, start + 6.0 * st.h, 50),
                            rng.uniform(start, min(st.hi + 6, st._cells - 0.5) * st.h, 250)])
    theta = rng.uniform(0.0, 2.0 * np.pi, len(r))
    edge = (st._cells - 0.5) * st.h
    on_axes = [(edge, 0.0), (0.0, 0.3 * st.h - edge)]
    if case != "cone":
        on_axes += [(0.0, 0.0), (-1e-3, 0.0)]
    x = np.concatenate([np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1), on_axes])
    got, want = st.sample(x), _parent_sample(st, x)
    assert got.shape == (3, 2, len(x))
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()          # signed zeros too
    assert got.tobytes() == _reference_sample(st, x).tobytes()


def test_symmetric_data_identical_components(unit_bump):
    data = InitialData(f1=(unit_bump,), g1=(unit_bump,),
                       f2=(unit_bump,), g2=(unit_bump,), epsilon=0.3)
    cfg = small_config(data, T=3.0)
    state = init_state(cfg, nonlinear=True)
    for _ in range(200):
        state.step()
    assert float(np.max(np.abs(state.u_curr[0] - state.u_curr[1]))) <= 1e-12


def test_finite_speed_of_propagation(radial_data):
    """Only dispersive dust leaks past the light cone, dying off per cell.

    The stencil's numerical speed is h/dt = 1/CFL > 1, so exact zeros past
    R0 + t + 2h are impossible for an explicit scheme; what must hold is
    that the leakage is dynamically irrelevant and decays fast in distance.
    """
    cfg = small_config(radial_data, T=2.0, h=1.0 / 32.0)
    state = init_state(cfg, nonlinear=True)
    n = round(1.5 / state.dt)
    for _ in range(n):
        state.step()
    r_cone = radial_data.support_radius + state.t
    near = state.xs > r_cone + 2 * state.h
    far = state.xs > r_cone + 8 * state.h
    assert float(np.max(np.abs(state.u_curr[:, near]))) <= 2e-5
    assert float(np.max(np.abs(state.u_curr[:, far]))) <= 1e-8


def test_instability_reports_time_and_location(radial_data):
    cfg = small_config(radial_data)
    state = init_state(cfg, nonlinear=False)
    state.u_next[0, 5] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(InstabilityError) as err:
            state.step()
    # the inf first reaches cell 4, through its right neighbour
    assert err.value.t == state.dt
    assert err.value.location == (4,)

    # an inf in component 2 alone is found there
    state = init_state(cfg, nonlinear=False)
    state.u_next[1, 7] = np.inf
    with pytest.raises(InstabilityError) as err:
        state.step()
    assert err.value.t == state.dt and err.value.location == (6,)

    # in a light-cone window the location is the global cell lo + i
    state = init_state(cfg, nonlinear=True, cone=0.0)
    while state.lo < 10:
        state.step()
    state.u_next[0, 5] = np.inf
    with pytest.raises(InstabilityError) as err:
        state.step()
    assert err.value.t == (state.n + 1) * state.dt
    assert err.value.location == (state.lo + 4,)

    # a NaN or inf in the middle level reaches only its own cell: at the
    # first and the last held cell, in either component, whole disk or cone
    for cone in (None, 0.0):
        for component in (0, 1):
            for cell in ("first", "last"):
                state = init_state(cfg, nonlinear=True, cone=cone)
                while cone is not None and state.lo < 10:
                    state.step()
                state.u_curr[component, 0 if cell == "first" else -1] = np.nan
                with pytest.raises(InstabilityError) as err:
                    state.step()
                assert err.value.location == (state.lo if cell == "first" else state.hi - 1,)


def test_cartesian_instability_reports_the_node(offset_data):
    """A NaN in the middle level of a free Cartesian step reaches only its own
    node, which the error names as (i, j); with non-finite values in both
    components, component 1's node is named, though component 2's comes
    first in the grid's row-major order."""
    cfg = small_config(offset_data, mode="cartesian-2d", T=0.5, h=1.0 / 16.0)
    state = init_state(cfg, nonlinear=False)
    state.u_curr[1, 5, 9] = np.nan
    with pytest.raises(InstabilityError) as err:
        state.step()
    assert err.value.t == state.dt and err.value.location == (5, 9)

    state = init_state(cfg, nonlinear=False)
    state.u_curr[0, 7, 3] = np.nan
    state.u_curr[1, 2, 4] = np.nan
    with pytest.raises(InstabilityError) as err:
        state.step()
    assert err.value.location == (7, 3)


@pytest.mark.parametrize("second", [1e307, 0.0], ids=["both", "first"])
def test_finite_level_whose_sum_overflows_is_stable(second):
    """40 cells of 1e307 in a component: their sum overflows, but every value
    stays finite, and the step tests the values."""
    h = 1.0 / 16.0
    xs = (np.arange(40) + 0.5) * h
    u = np.stack([np.full(40, 1e307), np.full(40, second)])
    state = WaveState("radial", h, 0.45 * h, xs, np.zeros_like(u), u, u.copy(),
                      np.zeros_like(u), nonlinear=False)
    if second:
        # the dissipation integrand (d_t u1 d_t u2)^2 does overflow, at the wall
        with np.errstate(over="ignore"):
            state.step()
    else:
        state.step()
    assert state.t == state.dt
    assert np.isfinite(state.u_next).all()
    assert 40 * float(np.min(state.u_next[0])) > np.finfo(float).max    # the sum overflows


@pytest.mark.parametrize("mode", ["radial", "cartesian-2d"])
def test_state_holds_buffers_the_kernel_can_read(mode, rng):
    """The compiled step reads and writes the levels and d_t u as C-contiguous
    float64 buffers of one shape.  A state given a strided view, a float32
    level, a Fortran-ordered one or a read-only one holds such a copy of each
    and steps exactly like a state given the copies; the arrays it was given
    stay as they were.  A level of another shape, and a radial state of
    fewer cells or a Cartesian one of fewer nodes per axis than a stencil's
    four, are refused: a Cartesian state on the nodes -1/4, 0, 1/4 holding
    u = x + 2y would sample 0.534 at (0.25, 0.1), not 0.45."""
    h, n = 1.0 / 16.0, 24
    xs = (np.arange(n) + 0.5) * h if mode == "radial" else (np.arange(n) - n // 2) * h
    shape = (2, n) if mode == "radial" else (2, n, n)
    levels = 1e-2 * rng.standard_normal((4, *shape))
    strided = np.repeat(levels[0], 2, axis=-1)[..., ::2]
    read_only = levels[3].copy()
    read_only.flags.writeable = False
    given = [strided, levels[1].astype(np.float32), np.asfortranarray(levels[2]), read_only]
    before = [a.copy() for a in given]
    copies = [np.ascontiguousarray(a, dtype=float) for a in given]
    a = WaveState(mode, h, 0.3 * h, xs, *given, nonlinear=True)
    b = WaveState(mode, h, 0.3 * h, xs, *copies, nonlinear=True)
    for _ in range(20):
        a.step()
        b.step()
        for name in ("u_prev", "u_curr", "u_next", "dt_u"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert all(np.array_equal(g, c) for g, c in zip(given, before))

    with pytest.raises(ValueError, match="must have the shape"):
        WaveState(mode, h, 0.3 * h, xs[:-1], *copies, nonlinear=False)
    if mode == "radial":
        with pytest.raises(ValueError, match="4 cells or more, not 3"):
            WaveState(mode, h, 0.3 * h, xs[:3], *(c[:, :3] for c in copies), nonlinear=False)
    else:
        nodes = np.array([-0.25, 0.0, 0.25])
        u = np.stack(2 * [nodes[:, None] + 2.0 * nodes[None, :]])
        with pytest.raises(ValueError, match="4 nodes per axis or more, not 3"):
            WaveState(mode, 0.25, 0.025, nodes, np.zeros_like(u), u, u.copy(),
                      np.zeros_like(u), nonlinear=False)


def test_step_kernel_source_is_clean_c99(tmp_path):
    """_step.c compiles as C99 without a warning: no unused static function
    (which -fsyntax-only would not report) and no unused parameter; and with
    the library's own flags, whose optimisation finds warnings of its own."""
    for flags in (("-std=c99", "-c"), _step.CFLAGS):
        done = subprocess.run([_step.CC, *flags, "-Wall", "-Wextra", "-Werror", "-o",
                               str(tmp_path / "_step.out"), str(_step.SOURCE)],
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", ""), flags


def test_step_signatures_match_the_kernel_source():
    """_step._SIGNATURES names exactly the non-static functions of _step.c,
    with the C return type (void as None) and one argument type per C
    parameter: a pointer as c_void_p, int64_t as c_int64, int as c_int,
    double as c_double.  A longer or shorter Python signature would load
    silently and pass the kernel garbage, and a wrong return type would read
    a double result as an int, or an int as a double."""
    source = re.sub(r"/\*.*?\*/", "", _step.SOURCE.read_text(), flags=re.S)
    kinds = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "double": ctypes.c_double,
             "void": None}
    found = {}
    for kind, name, params in re.findall(r"^(\w[\w\s*]*?)\b(\w+)\(([^)]*)\)\s*\{", source,
                                         flags=re.M):
        if "static" not in kind.split():
            (restype,) = kind.split()
            found[name] = (kinds[restype],
                           tuple(ctypes.c_void_p if "*" in p else kinds[p.split()[0]]
                                 for p in params.split(",")))
    assert found == _step._SIGNATURES


def test_step_state_matches_the_kernel_struct():
    """_step.State has the members of struct state in _step.c, in order and
    with matching types: a pointer as c_void_p, int64_t as c_int64, double
    as c_double.  A Python layout that drifted from C's would have the kernel
    read cells and the constants at the wrong offsets, silently."""
    source = re.sub(r"/\*.*?\*/", "", _step.SOURCE.read_text(), flags=re.S)
    body = re.search(r"struct state \{(.*?)\};", source, flags=re.S).group(1)
    kinds = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    members = []
    for declaration in body.split(";")[:-1]:
        # [const] type declarator, declarator, ...: each declarator a name,
        # a pointer's with a leading *
        kind, declarators = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", declaration,
                                         flags=re.S).groups()
        for d in declarators.split(","):
            members.append((d.strip(" *"), ctypes.c_void_p if "*" in d else kinds[kind]))
    assert members == list(_step.State._fields_)


def test_step_kernel_loops_are_vectorised(tmp_path):
    """gcc reports every loop of radial_run and cartesian_run vectorised
    under the library's flags: the per-cell helpers they call must inline
    into them, which a plain static function does at -O3."""
    version = subprocess.run([_step.CC, "--version"], capture_output=True, text=True).stdout
    if "Free Software Foundation" not in version:
        pytest.skip(f"{_step.CC} is not gcc")
    done = subprocess.run([_step.CC, *_step.CFLAGS, "-fopt-info-vec-optimized", "-o",
                           str(tmp_path / "_step.so"), str(_step.SOURCE)],
                          capture_output=True, text=True, check=True)
    vectorised = {int(line.split(":")[1]) for line in done.stderr.splitlines()
                  if "optimized: loop vectorized" in line}
    loops, inside = [], None
    for number, line in enumerate(_step.SOURCE.read_text().splitlines(), start=1):
        if line.startswith("static int "):
            inside = line.split()[2].split("(")[0]
        elif line == "}":
            inside = None
        elif inside in ("radial_run", "cartesian_run") and "for (" in line:
            loops.append((inside, number))
    assert [name for name, _ in loops] == 2 * ["radial_run"] + 2 * ["cartesian_run"]
    assert [loop for loop in loops if loop[1] not in vectorised] == []


def _small_radial_state():
    """A 24-cell nonlinear radial state of small random levels."""
    h, n = 1.0 / 16.0, 24
    u = 1e-2 * np.random.default_rng(5).standard_normal((2, n))
    return WaveState("radial", h, 0.45 * h, (np.arange(n) + 0.5) * h, np.zeros_like(u), u,
                     u.copy(), np.zeros_like(u), nonlinear=True)


def test_step_library_is_built_once_per_machine(tmp_path, monkeypatch):
    """library() keeps the kernel in _step.CACHE as _step-<build>-<source>.so:
    the first call writes that one file and leaves no temporary directory; a
    fresh process loads it without compiling, so its inode and mtime stay; an
    edited source gets a library of its own, which replaces the build's old
    one and leaves another build's; and a CACHE that cannot be a directory, a
    regular file, still gives a kernel that steps like the cached one,
    written nowhere in tmp_path."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_step, "CACHE", cache)
    monkeypatch.setattr(_step, "_LIB", None)
    cached = _step.library()
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_step-") and built[0].suffix == ".so"
    before = built[0].stat()

    child = f"from pathlib import Path; from wavelab import _step; " \
            f"_step.CACHE = Path({str(cache)!r}); _step.library()"
    src = str(Path(_step.__file__).parents[1])
    subprocess.run([sys.executable, "-c", child], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    after = built[0].stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert list(cache.iterdir()) == built

    build = built[0].name.split("-")[1]
    other = cache / "_step-otherbuild-x.so"
    other.write_text("another machine's library")
    edited = tmp_path / "_step.c"
    edited.write_bytes(_step.SOURCE.read_bytes() + b"\n/* edited */\n")
    with monkeypatch.context() as m:
        m.setattr(_step, "SOURCE", edited)
        m.setattr(_step, "_LIB", None)
        _step.library()
    ours = list(cache.glob(f"_step-{build}-*.so"))
    assert len(ours) == 1 and ours != built
    assert other.read_text() == "another machine's library"
    assert len(list(cache.iterdir())) == 2

    blocked = tmp_path / "blocked"
    blocked.write_text("a file")
    monkeypatch.setattr(_step, "CACHE", blocked)
    monkeypatch.setattr(_step, "_LIB", None)
    private = _small_radial_state()
    assert _step._LIB is not cached
    monkeypatch.setattr(_step, "_LIB", cached)
    reference = _small_radial_state()
    for _ in range(5):
        private.step()
        reference.step()
        assert private.u_next.tobytes() == reference.u_next.tobytes()
    assert blocked.read_text() == "a file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["_step.c", "blocked", "cache"]


def test_energy_swap_symmetry(radial_data):
    cfg = small_config(radial_data, T=1.0)
    swapped = InitialData(f1=radial_data.f2, g1=radial_data.g2,
                          f2=radial_data.f1, g2=radial_data.g1,
                          epsilon=radial_data.epsilon)
    sa = init_state(cfg, nonlinear=True)
    sb = init_state(small_config(swapped, T=1.0), nonlinear=True)
    for _ in range(50):
        sa.step()
        sb.step()
    ea = (*sa.energies(), sa.dissipation())
    eb = (*sb.energies(), sb.dissipation())
    assert ea[0] == pytest.approx(eb[1], rel=1e-14)
    assert ea[1] == pytest.approx(eb[0], rel=1e-14)
    assert ea[2] == pytest.approx(eb[2], rel=1e-14)


def test_free_energy_conservation(radial_data):
    """Free evolution keeps E1^2 constant at default-resolution accuracy.

    Position-dominated data carries a larger one-time dispersive offset (the
    initial profile's high-curvature core rethermalizes on the grid), so the
    1e-4 bound is checked for velocity-dominated data and a 2e-4 envelope
    for a position-heavy mix.
    """
    gentle = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 0.4),),
                         g1=(BumpSpec((0.0, 0.0), 0.8, 1.0),), epsilon=0.3)
    sharp = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 1.0),), epsilon=0.3)
    for data, bound in ((gentle, 1e-4), (sharp, 2e-4)):
        cfg = ScenarioConfig(name="conservation", data=data, mode="radial", T=20.0)
        trace = energy_run(cfg, nonlinear=False)
        drift = float(np.max(np.abs(trace.E1sq - trace.E1sq[0])) / trace.E1sq[0])
        assert drift <= bound


def test_run_simulation_rejects_late_samples(radial_data):
    cfg = small_config(radial_data, T=1.0)
    with pytest.raises(ValueError, match="exceeds"):
        run_simulation(cfg, nonlinear=False,
                       samplers=[((5.0,), lambda s: None)])


def test_sampler_times_hit_nearest_steps(radial_data):
    cfg = small_config(radial_data, T=1.0)
    seen = []
    run_simulation(cfg, nonlinear=False,
                   samplers=[((0.0, 0.5, 1.0), lambda s: seen.append(s.t))])
    assert len(seen) == 3
    assert abs(seen[1] - 0.5) <= cfg.dt


_SMOKE_DATA = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                          g2=(BumpSpec((0.0, 0.0), 1.0, 0.6),), epsilon=1.0)


@settings(max_examples=30, deadline=None)
@given(cfl=st.sampled_from([0.3, 0.45, 0.9]), h=st.floats(1 / 32, 1 / 8),
       T=st.floats(0.5, 3.0), fractions=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_run_samples_at_sample_steps(cfl, h, T, fractions):
    """run_simulation calls a sampler at the steps sample_steps takes for its
    times in [0, T + dt], once per step however many times round to it; a
    time past T + dt raises."""
    cfg = small_config(_SMOKE_DATA, T=T, h=h, cfl=cfl)
    last = T + cfl * h
    times = [f * last for f in fractions]
    seen = []
    run_simulation(cfg, nonlinear=True,
                   samplers=[(times, lambda state: seen.append((state.n, state.t)))])
    steps = sorted(set(sample_steps(cfg, times).tolist()))
    assert seen == [(n, n * cfg.dt) for n in steps]
    late = [*times, np.nextafter(last, math.inf)]
    with pytest.raises(ValueError, match="requested sample time .* exceeds T="):
        sample_steps(cfg, late)
    with pytest.raises(ValueError, match="exceeds T="):
        run_simulation(cfg, nonlinear=True, samplers=[(late, lambda state: None)])


def test_scheme_order_against_oracle(unit_bump):
    """Max-norm error vs the quadrature oracle halves at second order."""
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.8, 1.0),),
                       g1=(BumpSpec((0.0, 0.0), 1.5, -0.5),), epsilon=1.0)
    T = 0.5
    pts = [(0.25, 0.4, 0.2), (0.5, 0.9, -0.3), (0.5, 0.1, 0.1), (0.25, -1.0, 0.8)]
    oracle = {p: free_field(data, p[0], np.array([p[1], p[2]]))[0][0] for p in pts}
    errs = []
    levels = [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]
    # dt = cfl * h divides the check times and halves exactly with h
    n0 = math.ceil(0.25 / (0.45 * levels[0]))
    for h in levels:
        cfg = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                             T=T, h=h, cfl=0.25 / (n0 * levels[0]))
        errs_h = []

        def check(state):
            now = [p for p in pts if abs(p[0] - state.t) < 1e-9]
            u = state.sample([p[1:] for p in now])[0, 0]       # component 1
            errs_h.extend(abs(u - [oracle[p] for p in now]))

        run_simulation(cfg, nonlinear=False, samplers=[((0.25, 0.5), check)])
        assert len(errs_h) == len(pts)
        errs.append(max(errs_h))
    from wavelab import fit_power_law
    assert fit_power_law(levels, errs).slope >= 1.9


def test_radial_cartesian_cross_check(unit_bump):
    """Nonlinear radial and Cartesian runs agree along theta = 0."""
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.25, 1.0),),
                       g1=(BumpSpec((0.0, 0.0), 1.0, -0.5),),
                       f2=(BumpSpec((0.0, 0.0), 1.1, 0.6),),
                       g2=(BumpSpec((0.0, 0.0), 1.25, 0.4),), epsilon=0.3)
    T, h = 6.0, 1.0 / 24.0
    cfg_r = ScenarioConfig(name="conservation", data=data, mode="radial", T=T, h=h)
    cfg_c = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d", T=T, h=h)
    sr = init_state(cfg_r, nonlinear=True)
    sc = init_state(cfg_c, nonlinear=True)
    for _ in range(round(T / sr.dt)):
        sr.step()
        sc.step()
    pts = [(r, 0.0) for r in np.linspace(0.2, sr.t + 1.0, 25)]
    dmax = np.max(np.abs(sr.sample(pts)[0, 0] - sc.sample(pts)[0, 0]))
    assert dmax <= 5.0 * h * h


def test_horizon_below_one_step_takes_one_step(radial_data):
    """A run always steps at least once, so its last diagnosed time is >= T."""
    trace = energy_run(small_config(radial_data, T=1e-12), nonlinear=True)
    assert len(trace.t) == 2 and trace.t[-1] >= 1e-12


def test_energy_trace_csv(radial_data):
    cfg = small_config(radial_data, T=1.0)
    trace = energy_run(cfg, nonlinear=True)
    header, rows = trace.to_csv()
    assert header == ("t", "E1sq", "E2sq", "diff", "sum", "dissipation", "cum_dissipation")
    assert len(list(rows)) == len(trace.t)
    assert np.all(trace.E1sq >= 0.0) and np.all(np.isfinite(trace.E1sq))


def test_state_time_is_step_count_times_dt(radial_data):
    """A state's t is its step count times dt, exactly: at step 1140 of
    h = 1/256, where a sum of dt falls 3.5e-14 short of 1140 dt = 2.00390625."""
    state = init_state(small_config(radial_data, T=2.1, h=1.0 / 256.0), nonlinear=False)
    summed = 0.0
    for _ in range(1140):
        state.step()
        summed += state.dt
    assert state.n == 1140 and state.t == 1140 * state.dt == 2.00390625
    assert summed != state.t


def test_energy_trace_times_are_steps_times_dt(radial_data):
    """An EnergyTrace samples only its rows, every TRACE_DT stride and the
    last step, and records its t there, each exactly that step times dt."""
    cfg = small_config(radial_data, T=3.0, h=1.0 / 16.0)
    last, stride = run_size(cfg)[1], round(TRACE_DT / cfg.dt)
    steps = np.union1d(np.arange(0, last + 1, stride), [last])
    assert last % stride and len(steps) > 3
    trace = energy_run(cfg, nonlinear=True)
    assert np.array_equal(trace.times, steps * cfg.dt)
    assert np.array_equal(trace.t, steps * cfg.dt)


def test_energy_trace_refuses_skipped_steps_and_other_runs(radial_data):
    """An EnergyTrace reads exactly its rows of one run of its config: times
    that skip a row or read a step between rows, a run of another spacing or
    step and a second run raise."""
    cfg = small_config(radial_data, T=1.0)
    stride = round(TRACE_DT / cfg.dt)
    trace = EnergyTrace(cfg)
    with pytest.raises(ValueError, match=f"expects step {stride}, not step {2 * stride} of"):
        run_simulation(cfg, nonlinear=True, samplers=[(trace.times[::2], trace)])
    every_step = np.arange(run_size(cfg)[1] + 1) * cfg.dt
    trace = EnergyTrace(cfg)
    with pytest.raises(ValueError, match=f"expects step {stride}, not step 1 of"):
        run_simulation(cfg, nonlinear=True, samplers=[(every_step, trace)])
    for other in (replace(cfg, h=2 * cfg.h), replace(cfg, cfl=0.9)):
        trace = EnergyTrace(cfg)
        with pytest.raises(ValueError, match="expects step 0, not step 0 of"):
            run_simulation(other, nonlinear=True, samplers=[(trace.times, trace)])
    trace = EnergyTrace(cfg)
    run_simulation(cfg, nonlinear=True, samplers=[(trace.times, trace)])
    last = run_size(cfg)[1]
    with pytest.raises(ValueError, match=f"expects step {last + 1}, not step 0"):
        run_simulation(cfg, nonlinear=True, samplers=[(trace.times, trace)])


def test_two_energy_traces_of_one_run_agree(radial_data):
    """Two EnergyTraces of one config read the same run: their t, energies,
    D and cum_D are identical, bit for bit, and the dissipation is not 0."""
    cfg = small_config(radial_data, T=1.0)
    first, second = EnergyTrace(cfg), EnergyTrace(cfg)
    run_simulation(cfg, nonlinear=True,
                   samplers=[(first.times, first), (second.times, second)])
    for name in ("t", "E1sq", "E2sq", "D", "cum_D"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    assert first.D[1:].all() and first.cum_D[-1] > 0.0


@pytest.mark.parametrize("cone", [None, 0.0])
def test_step_allocates_no_field_arrays(cone):
    """The step writes every intermediate into buffers allocated with the
    state: 50 nonlinear steps raise the traced memory peak by less than one
    component row of the held window, also those of a light-cone window
    whose lo moves every step."""
    state = init_state(default_config("conservation"), nonlinear=True, cone=cone)
    while state.hi < 1500 or (cone is not None and state.lo == 0):
        state.step()
    lo = state.lo
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            state.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * state.hi
    assert state.lo == lo + (50 if cone is not None else 0)
