"""Light-cone windows: a radial run that holds only the cells its rays see."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelab import (BumpSpec, InitialData, ScenarioConfig, field_value, init_state,
                     run_simulation)
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
    collector = RayTraceCollector(sigmas, 0.7, cfg.data.epsilon,
                                  with_remainder=with_remainder)
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


def test_window_invariant_every_step():
    """The last two held cells are 0.0 at the levels a step reads, or hi is the
    domain; lo moves up one cell per step once it leaves the origin."""
    cfg = scaling_rung(0.6)
    cone = 0.5
    n_domain = len(init_state(cfg, nonlinear=True).xs)
    seen = []

    def check(state):
        hi = state.lo + len(state.xs)
        edge_zero = not (state.u_next[:, -2:].any() or state.u_curr[:, -2:].any())
        assert edge_zero or hi == n_domain
        assert state.xs[0] == (state.lo + 0.5) * H
        assert state.u_curr.shape == state.dt_u.shape == (2, len(state.xs))
        seen.append((state.lo, hi))

    steps = np.arange(0.0, cfg.T, cfg.cfl * cfg.h)
    run_simulation(cfg, nonlinear=True, cone=cone, samplers=[(steps, check)])
    assert len(seen) == len(steps)
    assert seen[-1][0] > 0 and seen[-1][1] <= n_domain
    # at the last step lo stands CONE_REACH cells below the stencil at t + cone
    assert (cfg.T + cone) / H - 1.5 - CONE_REACH - 1 <= seen[-1][0] \
        <= (cfg.T + cone) / H - 1.5 - CONE_REACH + 1
    assert all(b[0] - a[0] == (a[0] > 0 or b[0] > 0) and 0 <= b[1] - a[1] <= 1
               for a, b in zip(seen, seen[1:]))


def test_window_ends_at_its_horizon():
    cfg = scaling_rung(1.0)
    state = init_state(cfg, nonlinear=True, cone=0.0)
    for _ in range(int(np.ceil(cfg.T / state.dt))):
        state.step()
    with pytest.raises(ValueError, match="step count"):
        state.step()


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
