import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wavelab import (BumpSpec, InitialData, InstabilityError, ScenarioConfig,
                     field_value, free_field, init_state, run_simulation)
from wavelab.config import CFL_LIMITS, ConfigValidationError
from wavelab.scenarios import default_config
from wavelab.solver import _stencil


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


def test_initial_energy_matches_quadrature_oracle(unit_bump):
    """E1^2(0) = (eps^2/2) int |grad f|^2 against a 2D tensor quadrature.

    The state's cell sum uses exact nodal derivatives of smooth compactly
    supported data, so it converges superalgebraically.
    """
    data = InitialData(f1=(unit_bump,), epsilon=0.3)
    cfg = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                         T=0.5, h=1.0 / 128.0)
    state = init_state(cfg, nonlinear=False)

    x, w = np.polynomial.legendre.leggauss(160)
    X = x[:, None] * np.ones_like(x)[None, :]
    Y = np.ones_like(x)[:, None] * x[None, :]
    W = w[:, None] * w[None, :]
    from wavelab.bumps import sum_value_grad_hess
    _, grad, _ = sum_value_grad_hess([unit_bump], np.stack([X, Y], axis=-1))
    oracle = 0.5 * 0.3**2 * float(np.sum(np.sum(grad**2, axis=-1) * W))
    assert abs(state.initial_energies[0] - oracle) / oracle <= 1e-6
    assert state.initial_energies[1] == 0.0


def test_radial_and_cartesian_agree_at_t0(radial_data):
    h = 1.0 / 128.0
    cfg_r = small_config(radial_data, T=1.0, h=h)
    cfg_c = small_config(radial_data, mode="cartesian-2d", T=1.0, h=h)
    sr = init_state(cfg_r, nonlinear=False)
    sc = init_state(cfg_c, nonlinear=False)
    for r in (0.3, 0.55, 0.92):
        vr = field_value(sr, (r, 0.0))
        vc = field_value(sc, (r, 0.0))
        assert max(abs(vr[0] - vc[0]), abs(vr[1] - vc[1])) <= 1e-8


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
    for p in np.concatenate([rng.uniform(-1.0, 60.0, 500), [0.0, 0.5, 57.0]]):
        k0, w = _stencil(p, 60)
        k_ref, w_ref = _reference_stencil(p, 60)
        assert k0 == k_ref and w.tobytes() == w_ref.tobytes()


@pytest.mark.parametrize("mode", ["radial", "cartesian-2d"])
def test_sample_exact_on_cubics(radial_data, mode):
    """Every field and component of one sample reproduces a cubic exactly."""
    st = init_state(small_config(radial_data, mode=mode, T=0.5, h=1.0 / 16.0),
                    nonlinear=False)

    def cubic(a, b):
        return a ** 3 - 2.0 * a * b ** 2 + b

    x = np.array([0.61, -0.37])
    if mode == "radial":
        c, exact = cubic(st.xs, 0.5), cubic(math.hypot(*x), 0.5)
    else:
        X, Y = np.meshgrid(st.xs, st.xs, indexing="ij")
        c, exact = cubic(X, Y), cubic(*x)
    got = st.sample([np.stack([c, -c]), np.stack([2.0 * c, c])], x)
    np.testing.assert_allclose(got, [[exact, -exact], [2.0 * exact, exact]], rtol=1e-12)


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
    assert err.value.t > 0
    assert err.value.location != ()


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
        trace = run_simulation(cfg, nonlinear=False)
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
    assert abs(seen[1] - 0.5) <= cfg.cfl * cfg.h


def test_scheme_order_against_oracle(unit_bump):
    """Max-norm error vs the quadrature oracle halves at second order."""
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.8, 1.0),),
                       g1=(BumpSpec((0.0, 0.0), 1.5, -0.5),), epsilon=1.0)
    T = 0.5
    pts = [(0.25, 0.4, 0.2), (0.5, 0.9, -0.3), (0.5, 0.1, 0.1), (0.25, -1.0, 0.8)]
    oracle = {p: free_field(data, p[0], np.array([p[1], p[2]])).u[0] for p in pts}
    errs = []
    levels = [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]
    # dt = cfl * h divides the check times and halves exactly with h
    n0 = math.ceil(0.25 / (0.45 * levels[0]))
    for h in levels:
        cfg = ScenarioConfig(name="conservation", data=data, mode="cartesian-2d",
                             T=T, h=h, cfl=0.25 / (n0 * levels[0]))
        errs_h = []

        def check(state):
            errs_h.extend(abs(field_value(state, (x, y))[0] - oracle[(tv, x, y)])
                          for tv, x, y in pts if abs(tv - state.t) < 1e-9)

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
    dmax = max(abs(field_value(sr, (r, 0.0))[0] - field_value(sc, (r, 0.0))[0])
               for r in np.linspace(0.2, sr.t + 1.0, 25))
    assert dmax <= 5.0 * h * h


def test_energy_trace_csv(tmp_path, radial_data):
    cfg = small_config(radial_data, T=1.0)
    trace = run_simulation(cfg, nonlinear=True)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,E1sq,E2sq,diff,sum,dissipation,cum_dissipation"
    assert np.all(trace.E1sq >= 0.0) and np.all(np.isfinite(trace.E1sq))


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
