import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab import (BumpSpec, InitialData, ScenarioConfig, closed_form_profile,
                     corrected_invariant, leading_invariant,
                     profile_invariant, radiation_table, run_simulation,
                     solve_reduced_ode)
from wavelab.profile import RayTraceCollector, ProfileTrace
from wavelab.solver import WaveState, init_state


def synthetic_radial_state(u, dt_u, h, t):
    """Radial WaveState with prescribed field and time derivative."""
    zeros = np.zeros_like(u)
    n = len(u)
    rs = (np.arange(n) + 0.5) * h
    st = WaveState("radial", h, 0.45 * h, rs,
                   u_prev=np.stack([u, zeros]), u_curr=np.stack([u, zeros]),
                   u_next=np.stack([u, zeros]), dt_u=np.stack([dt_u, zeros]),
                   nonlinear=False)
    st.t = t
    return st


def gaussian_profile(s):
    return np.exp(-8.0 * (s - 2.0) ** 2)


def gaussian_profile_prime(s):
    return -16.0 * (s - 2.0) * np.exp(-8.0 * (s - 2.0) ** 2)


def ray_sample(state, sigma):
    """(V1, V2, K1, K2) of one collector sample at sigma on state's level."""
    collector = RayTraceCollector([sigma])
    collector(state)
    tr = collector.traces()[0]
    assert tr.t[0] == state.t
    return tr.V1[0], tr.V2[0], tr.K1[0], tr.K2[0]


def test_amplitude_zero_state():
    h = 1.0 / 64.0
    st = synthetic_radial_state(np.zeros(400), np.zeros(400), h, 1.0)
    assert ray_sample(st, 0.0)[:2] == (0.0, 0.0)


def test_amplitude_outgoing_wave():
    """u = r^{-1/2} p(r - t) gives U = p'(r - t) up to O(h^2)."""
    h, t0 = 1.0 / 128.0, 3.0
    rs = (np.arange(1500) + 0.5) * h
    u = rs**-0.5 * gaussian_profile(rs - t0)
    dt = -(rs**-0.5) * gaussian_profile_prime(rs - t0)
    st = synthetic_radial_state(u, dt, h, t0)
    for r in (1.5, 2.0, 2.5, 3.5, 5.0):
        got = ray_sample(st, r - t0)[0]
        assert abs(got - gaussian_profile_prime(r - t0)) <= 5e-5


def test_amplitude_incoming_wave_annihilated():
    """u = r^{-1/2} p(r + t) lies in the kernel of the outgoing operator."""
    h, t0 = 1.0 / 128.0, 1.0
    rs = (np.arange(1500) + 0.5) * h
    u = rs**-0.5 * gaussian_profile(rs + t0)
    dt = rs**-0.5 * gaussian_profile_prime(rs + t0)
    st = synthetic_radial_state(u, dt, h, t0)
    for r in (0.6, 1.0, 1.5, 2.2):
        assert abs(ray_sample(st, r - t0)[0]) <= 1e-4


def test_amplitude_origin_rejected():
    """A foot point closer than h to the origin is not sampled."""
    h = 1.0 / 64.0
    st = synthetic_radial_state(np.zeros(200), np.zeros(200), h, 1.0)
    with pytest.raises(ValueError, match="no samples collected"):
        ray_sample(st, 0.5 * h - 1.0)


def test_sample_profile_domain(radial_data):
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=1.0, h=1.0 / 32.0)
    st = init_state(cfg, nonlinear=False)
    st.t = 1.0
    with pytest.raises(ValueError, match="no samples collected"):
        ray_sample(st, -1.0 + 0.1 * st.h)
    # boundary of validity: finite values, no blow-up
    v1, v2, _, _ = ray_sample(st, -1.0 + 1.5 * st.h)
    assert math.isfinite(v1) and math.isfinite(v2)


def test_symmetric_data_equal_profiles(unit_bump):
    data = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=0.3)
    cfg = ScenarioConfig(name="conservation", data=data, mode="radial",
                         T=4.0, h=1.0 / 64.0)
    st = init_state(cfg, nonlinear=True)
    for _ in range(round(3.0 / st.dt)):
        st.step()
    v1, v2, _, _ = ray_sample(st, 0.0)
    assert abs(v1 - v2) <= 1e-12


# -- reduced ODE -----------------------------------------------------------------

def test_reduced_ode_axis_invariant():
    t, v1, v2 = solve_reduced_ode(0.7, 0.0, 2.0, 1e5, t_eval=[2.0, 10.0, 1e5])
    np.testing.assert_allclose(v1, 0.7, rtol=1e-12)
    np.testing.assert_array_equal(v2, 0.0)


def test_reduced_ode_symmetric_closed_form():
    v0 = 0.3
    tev = np.geomspace(2.0, 2e4, 12)
    _, v1, v2 = solve_reduced_ode(v0, v0, 2.0, 2e4, t_eval=tev)
    expected_sq = v0**2 / (1.0 + v0**2 * np.log(tev / 2.0))
    np.testing.assert_allclose(v1**2, expected_sq, rtol=1e-8)
    np.testing.assert_allclose(v2**2, expected_sq, rtol=1e-8)


@pytest.mark.parametrize("v10,v20", [(0.3, 0.1), (0.1, 0.45), (0.5, 0.5)])
def test_reduced_ode_matches_closed_form(v10, v20):
    tev = np.geomspace(2.0, 2e6, 30)
    _, v1, v2 = solve_reduced_ode(v10, v20, 2.0, 2e6, t_eval=tev)
    c1, c2 = closed_form_profile(v10, v20, 2.0, tev)
    np.testing.assert_allclose(v1, c1, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(v2, c2, rtol=1e-8, atol=1e-12)


_magnitudes = st.floats(0.02, 0.6)
_signs = st.sampled_from([-1.0, 1.0])


@st.composite
def _initial_profiles(draw):
    """(V10, V20) of either sign; half of them with |m| below 1e-6."""
    v10 = draw(_signs) * draw(_magnitudes)
    if draw(st.booleans()):
        m = draw(st.floats(-1e-6, 1e-6))
        return v10, draw(_signs) * math.sqrt(v10 * v10 - m)
    return v10, draw(_signs) * draw(_magnitudes)


@settings(max_examples=40, deadline=None)
@given(_initial_profiles())
def test_closed_form_matches_ode_random(v0):
    v10, v20 = v0
    tev = np.geomspace(2.0, 2e6, 20)
    _, v1, v2 = solve_reduced_ode(v10, v20, 2.0, 2e6, t_eval=tev)
    c1, c2 = closed_form_profile(v10, v20, 2.0, tev)
    np.testing.assert_allclose(v1, c1, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(v2, c2, rtol=1e-8, atol=1e-12)


def test_closed_form_satisfies_ode():
    """Substitution check: the closed form solves the reduced system."""
    v10, v20, t0 = 0.35, 0.2, 2.0
    ts = np.geomspace(3.0, 1e4, 15)
    d = 1e-4
    v1p, v2p = closed_form_profile(v10, v20, t0, ts * (1 + d))
    v1m, v2m = closed_form_profile(v10, v20, t0, ts * (1 - d))
    v1, v2 = closed_form_profile(v10, v20, t0, ts)
    dv1 = (v1p - v1m) / (2 * d * ts)
    dv2 = (v2p - v2m) / (2 * d * ts)
    np.testing.assert_allclose(dv1, -v1 * v2**2 / (2 * ts), rtol=5e-6, atol=1e-14)
    np.testing.assert_allclose(dv2, -v1**2 * v2 / (2 * ts), rtol=5e-6, atol=1e-14)


def test_invariant_drift_tiny():
    for v10, v20 in ((0.05, 0.5), (0.4, 0.12)):
        tev = np.geomspace(2.0, 2e6, 25)
        _, v1, v2 = solve_reduced_ode(v10, v20, 2.0, 2e6, t_eval=tev)
        drift = np.max(np.abs(profile_invariant(v1, v2)
                              - profile_invariant(v10, v20)))
        assert drift <= 1e-9


def test_profile_invariant_values():
    assert profile_invariant(0.0, 0.0) == 0.0
    assert profile_invariant(3.0, 2.0) == 5.0
    np.testing.assert_allclose(profile_invariant([1.0, 2.0], [0.0, 1.0]), [1.0, 3.0])


def test_import_does_not_load_scipy():
    """Only the reduced ODE needs SciPy, and it imports it on its first call."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, wavelab, wavelab.scenarios; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reduced_ode_rejects_bad_start():
    with pytest.raises(ValueError, match="positive"):
        solve_reduced_ode(0.1, 0.1, 0.0, 10.0)


# -- remainder term ----------------------------------------------------------------

def test_remainder_zero_state():
    h = 1.0 / 64.0
    st = synthetic_radial_state(np.zeros(300), np.zeros(300), h, 2.5)
    assert ray_sample(st, 1.0 - 2.5) == (0.0, 0.0, 0.0, 0.0)


def test_remainder_radial_formula():
    """Radial mode: H_j = (1/2)(sqrt r ut_k^2 ut_j + U_k^2 U_j / t) - u_j/(8 r^{3/2})."""
    h, t0 = 1.0 / 128.0, 3.0
    rs = (np.arange(900) + 0.5) * h
    u = rs**-0.5 * gaussian_profile(rs - t0)
    dt = -(rs**-0.5) * gaussian_profile_prime(rs - t0)
    st = synthetic_radial_state(u, dt, h, t0)
    # build the two-component state with distinct fields
    st.u_curr[1] = 0.5 * st.u_curr[0]
    st.dt_u[1] = 0.5 * st.dt_u[0]
    sigma = 2.3 - t0
    *U, h1, h2 = ray_sample(st, sigma)
    r = t0 + sigma
    uu, ut, _ = st.sample(np.array([(r, 0.0)]))[..., 0]
    sq = math.sqrt(r)
    expect1 = 0.5 * (sq * ut[1]**2 * ut[0] + U[1]**2 * U[0] / t0) - uu[0] / (8 * r * sq)
    expect2 = 0.5 * (sq * ut[0]**2 * ut[1] + U[0]**2 * U[1] / t0) - uu[1] / (8 * r * sq)
    assert h1 == pytest.approx(expect1, rel=1e-12)
    assert h2 == pytest.approx(expect2, rel=1e-12)


def test_collector_remainder_rows(radial_data):
    """The collector gives finite rows with a nonzero remainder on a real state."""
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=1.0, h=1.0 / 16.0)
    st = init_state(cfg, nonlinear=True)
    for _ in range(round(0.5 / st.dt)):
        st.step()
    collector = RayTraceCollector([-0.3, 0.0, 0.6])
    collector(st)
    for tr in collector.traces():
        row = (tr.V1[0], tr.V2[0], tr.K1[0], tr.K2[0])
        assert tr.t.tolist() == [st.t]
        assert all(math.isfinite(v) for v in row)
        assert tr.K1[0] != 0.0


def test_collector_of_several_rays_equals_one_collector_per_ray(radial_data):
    """A level's samples of several rays, packed in one radial_sample call
    whose ray count grows as their foot points clear the origin, give every
    ray's trace bit for bit as a collector of that ray alone does; the
    sigmas are unsorted, and traces() keeps their order."""
    cfg = ScenarioConfig(name="conservation", data=radial_data, mode="radial",
                         T=2.0, h=1.0 / 16.0)
    sigmas = [0.5, -1.0, 0.0, -0.3]
    together, alone = RayTraceCollector(sigmas), [RayTraceCollector([s]) for s in sigmas]
    times = np.arange(0.0, cfg.T, cfg.dt)
    run_simulation(cfg, nonlinear=True,
                   samplers=[(times, together), *((times, c) for c in alone)])
    traces = together.traces()
    assert [tr.sigma for tr in traces] == sigmas
    assert len({len(tr.t) for tr in traces}) == len(sigmas)
    for tr, single in zip(traces, alone, strict=True):
        (want,) = single.traces()
        for name in ("t", "V1", "V2", "K1", "K2"):
            assert getattr(tr, name).tobytes() == getattr(want, name).tobytes(), name


def test_collector_refuses_a_repeated_sigma():
    """A repeated sigma would store every sample of its ray twice."""
    with pytest.raises(ValueError, match="repeated sigma: 0, 0"):
        RayTraceCollector([0.0, 0.0])


def test_collector_rejects_cartesian_state(offset_data):
    """Ray profiles are sampled on radial states only."""
    cfg = ScenarioConfig(name="conservation", data=offset_data, mode="cartesian-2d",
                         T=1.0, h=1.0 / 16.0)
    st = init_state(cfg, nonlinear=True)
    st.step()
    with pytest.raises(ValueError, match="radial mode, not cartesian-2d"):
        RayTraceCollector([0.0])(st)


# -- traces and invariant estimators ------------------------------------------------

@pytest.fixture(scope="module")
def nonlinear_run():
    data = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       g2=(BumpSpec((0.0, 0.0), 0.8, 0.6),), epsilon=0.2)
    eps, T = 0.2, 20.0
    cfg = ScenarioConfig(name="conservation", data=data, mode="radial", T=T)
    collector = RayTraceCollector([-1.0, 0.0])
    times = np.append(np.arange(0.0, T, 4 * cfg.dt), T)
    run_simulation(cfg, nonlinear=True, samplers=[(times, collector)])
    return data, eps, T, collector.traces()


def test_trace_window_and_formulas(nonlinear_run):
    _, _, _, traces = nonlinear_run
    tr = traces[0]
    assert tr.sigma == -1.0
    assert tr.t0 == 2.0                       # max(2, -2 sigma) with sigma >= -1
    deeper = ProfileTrace(sigma=-3.0, dt=tr.dt,
                          t=tr.t, V1=tr.V1, V2=tr.V2, K1=tr.K1, K2=tr.K2)
    assert deeper.t0 == 6.0


def test_direct_vs_corrected_invariant(nonlinear_run):
    """The two estimators agree because d/dt (V1^2 - V2^2) = 2 rho exactly."""
    _, eps, T, traces = nonlinear_run
    for tr in traces:
        m_direct = tr.invariant_at(T)
        m_corr = corrected_invariant(tr, T)
        assert abs(m_corr - m_direct) <= 5e-3 * eps**2


def test_trace_derivative_matches_coupling(nonlinear_run):
    """Finite differences of V1^2 - V2^2 along the ray track 2 rho."""
    _, eps, T, traces = nonlinear_run
    tr = traces[1]     # sigma = 0
    m_t = tr.V1**2 - tr.V2**2
    dmdt = np.gradient(m_t, tr.t)
    mask = (tr.t > tr.t0 + 1.0) & (tr.t < T - 1.0)
    resid = np.max(np.abs(dmdt[mask] - 2.0 * tr.rho[mask]))
    scale = np.max(np.abs(2.0 * tr.rho[mask]))
    assert resid <= 0.12 * scale


def test_corrected_invariant_coverage_checks(nonlinear_run):
    _, _, T, traces = nonlinear_run
    tr = traces[0]
    with pytest.raises(ValueError, match="cover"):
        corrected_invariant(tr, 2.0 * T)
    idx = np.append(np.arange(0, len(tr.t) - 1, 4), len(tr.t) - 1)
    sparse = ProfileTrace(sigma=tr.sigma, dt=tr.dt,
                          t=tr.t[idx], V1=tr.V1[idx], V2=tr.V2[idx],
                          K1=tr.K1[idx], K2=tr.K2[idx])
    with pytest.raises(ValueError, match="spacing"):
        corrected_invariant(sparse, T)


def test_trace_csv(nonlinear_run):
    _, _, _, traces = nonlinear_run
    header, rows = traces[0].to_csv()
    assert header == ("t", "V1", "V2", "K1", "K2", "rho")
    assert len(list(rows)) == len(traces[0].t)


def test_corrected_invariant_zero_trace():
    t = np.linspace(2.0, 10.0, 81)
    z = np.zeros_like(t)
    tr = ProfileTrace(sigma=0.0, dt=0.025, t=t, V1=z, V2=z, K1=z, K2=z)
    assert corrected_invariant(tr, 10.0) == 0.0


def test_leading_invariant_properties(unit_bump):
    asym = InitialData(g1=(unit_bump,), g2=(BumpSpec((0.0, 0.0), 0.7, 0.4),),
                       epsilon=0.2)
    grid = np.arange(-2.0, 1.2001, 0.05)
    table = radiation_table(asym, grid, [0.0])
    assert leading_invariant(table, 0.2, 1.5) == 0.0           # above support
    v1 = leading_invariant(table, 0.1, -0.5)
    v2 = leading_invariant(table, 0.2, -0.5)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-14)            # eps^2 scaling

    same = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=0.2)
    table_same = radiation_table(same, grid, [0.0])
    vals = [leading_invariant(table_same, 0.2, s) for s in (-1.5, -0.3, 0.4)]
    assert all(v == 0.0 for v in vals)                          # identical data

    two_angles = radiation_table(asym, grid[::8], [0.0, 1.0])
    with pytest.raises(ValueError, match="one-angle"):
        leading_invariant(two_angles, 0.2, -0.5)
