import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import energy_run
from wavelab import (BumpSpec, EnergyTrace, InitialData, InstabilityError, ScenarioConfig,
                     WaveState, free_field, init_state, run_simulation)
from wavelab.config import CFL_LIMITS, ConfigValidationError
from wavelab.scenarios import default_config
from wavelab.solver import _stencil, sample_steps


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
    """Bit for bit, for an array of fractional indices and for a scalar one."""
    ps = np.concatenate([rng.uniform(-1.0, 60.0, 500), [0.0, 0.5, 57.0]])
    for p, k0, w in zip(ps, *_stencil(ps, 60)):
        k_ref, w_ref = _reference_stencil(p, 60)
        assert k0 == k_ref and w.tobytes() == w_ref.tobytes()
        assert _stencil(p, 60)[1].tobytes() == w_ref.tobytes()


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
        edge = (st._n - 0.5) * st.h
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


def _parent_sample(state, points):
    """What sample returned before it gathered: a fourth-order d_r u over the
    whole held window (even ghosts at the origin, zeros below a light-cone
    window's lo and past hi), then one stencil per point and field on window
    slices, zeros past the window's outer edge.  Cartesian: u alone."""
    if state.mode != "radial":
        out = []
        for x in points:
            i0, wx = _reference_stencil((x[0] - state.xs[0]) / state.h, state._n)
            j0, wy = _reference_stencil((x[1] - state.xs[0]) / state.h, state._n)
            out.append(wx @ state.u_curr[:, i0:i0 + 4, j0:j0 + 4] @ wy)
        return np.array(out).T[None]
    u, h = state.u_curr, state.h
    inner = u[:, 1::-1] if state.lo == 0 else np.zeros((2, 2))
    ext = np.concatenate([inner, u, np.zeros((2, 2))], axis=1)
    grad = (ext[:, :-4] - 8.0 * ext[:, 1:-3] + 8.0 * ext[:, 3:-1] - ext[:, 4:]) / (12.0 * h)
    out = np.empty((len(points), 3, 2))
    for i, x in enumerate(points):
        k0, w = _reference_stencil(float(np.hypot(*x)) / h - 0.5, state._n)
        for j, a in enumerate((u, state.dt_u, grad)):
            seg = a[:, k0 - state.lo:k0 - state.lo + 4]
            out[i, j] = np.concatenate([seg, np.zeros((2, 4 - seg.shape[1]))], axis=1) @ w
    return out.transpose(1, 2, 0)


@pytest.mark.parametrize("case", ["origin", "cone", "wall", "cartesian"])
def test_sample_matches_window_gradient(radial_data, offset_data, rng, case):
    """One gather per call gives what a whole-window gradient and a stencil
    per point gave, bit for bit: near the origin, where the even ghosts are
    read, on a light-cone window with lo > 0, on a state whose hi is the
    wall n, and on a Cartesian state; points also reach past hi."""
    if case == "wall":
        rs = (np.arange(300) + 0.5) / 64.0
        st = _held_state("radial", 1.0 / 64.0, np.stack([np.sin(3.0 * rs), np.cos(2.0 * rs)]),
                         np.stack([np.cos(5.0 * rs), rs * rs]))
        assert st.hi == st._n
        r = np.append(rng.uniform(0.0, rs[-1], 300), [rs[-1], 0.0])
    elif case == "cartesian":
        st = init_state(small_config(offset_data, mode="cartesian-2d", T=0.5, h=1.0 / 16.0),
                        nonlinear=True)
        for _ in range(5):
            st.step()
        x = rng.uniform(st.xs[0], st.xs[-1], (200, 2))
        assert st.sample(x).tobytes() == _parent_sample(st, x).tobytes()
        return
    else:
        cfg = small_config(radial_data, T=3.0)
        st = init_state(cfg, nonlinear=True, cone=-0.5 if case == "cone" else None)
        for _ in range(40):
            st.step()
        while st.lo == 0 and case == "cone":
            st.step()
        start = st.t - 0.5 if case == "cone" else 0.0
        r = np.concatenate([rng.uniform(start, start + 6.0 * st.h, 50),
                            rng.uniform(start, min(st.hi + 6, st._n - 0.5) * st.h, 250)])
    theta = rng.uniform(0.0, 2.0 * np.pi, len(r))
    x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    got, want = st.sample(x), _parent_sample(st, x)
    assert got.shape == (3, 2, len(r))
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()          # signed zeros too


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


@pytest.mark.parametrize("second", [1e307, 0.0], ids=["both", "first"])
def test_finite_level_whose_sum_overflows_is_stable(second):
    """40 cells of 1e307 in a component: every value stays finite, but their
    sum overflows, so the one-reduction check hands over to the element-wise
    scan, which finds nothing."""
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
                   samplers=[(times, lambda state: seen.append(round(state.t / state.dt)))])
    assert seen == sorted(set(sample_steps(cfg, times).tolist()))
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


def test_energy_trace_refuses_skipped_steps_and_other_runs(radial_data):
    """An EnergyTrace reads every step of one run of its config: times that
    skip a step, a run of another spacing or step and a second run raise."""
    cfg = small_config(radial_data, T=1.0)
    trace = EnergyTrace(cfg)
    with pytest.raises(ValueError, match="expects step 1, not step 2 of"):
        run_simulation(cfg, nonlinear=True, samplers=[(trace.times[::2], trace)])
    for other in (replace(cfg, h=2 * cfg.h), replace(cfg, cfl=0.9)):
        trace = EnergyTrace(cfg)
        with pytest.raises(ValueError, match="expects step 0, not step 0 of"):
            run_simulation(other, nonlinear=True, samplers=[(trace.times, trace)])
    trace = EnergyTrace(cfg)
    run_simulation(cfg, nonlinear=True, samplers=[(trace.times, trace)])
    with pytest.raises(ValueError, match=f"expects step {len(trace.times)}, not step 0"):
        run_simulation(cfg, nonlinear=True, samplers=[(trace.times, trace)])


def test_step_allocates_no_field_arrays():
    """The step writes every intermediate into buffers allocated with the
    state: 50 nonlinear steps raise the traced memory peak by less than one
    component row of the held window."""
    state = init_state(default_config("conservation"), nonlinear=True)
    while state.hi < 1500:
        state.step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            state.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * state.hi
