import numpy as np
import pytest

from wavelab import (BumpSpec, InitialData, free_field, free_wave, initial_values,
                     sum_value_grad_hess)


@pytest.fixture
def two_component_data():
    """Off-centre data with a different bump sum in each slot."""
    return InitialData(
        f1=(BumpSpec((0.3, 0.15), 0.9, 1.0),),
        g1=(BumpSpec((-0.1, 0.2), 0.8, -0.6),),
        f2=(BumpSpec((-0.2, -0.3), 0.7, 0.4), BumpSpec((0.1, 0.0), 0.5, -0.3)),
        g2=(BumpSpec((0.25, -0.1), 0.6, 0.9),),
        epsilon=0.7,
    )


def test_time_zero_returns_data_exactly(two_component_data):
    for x in ([0.31, 0.24], [1.1, -0.4], [5.0, 5.0]):
        field = free_field(two_component_data, 0.0, np.array(x))
        values = initial_values(two_component_data, np.array(x))
        assert [a.shape for a in field] == [(2,), (2,), (2, 2)]
        for a, b in zip(field, values):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("t,x,outside", [
    (1.3, (0.2, -0.1), False),   # inside the support: the full circle of directions
    (2.0, (2.1, 0.9), True),     # outside it: only the sector that sees the support
])
def test_swapping_components_swaps_the_field(two_component_data, t, x, outside):
    d = two_component_data
    swapped = InitialData(f1=d.f2, g1=d.g2, f2=d.f1, g2=d.g1, epsilon=d.epsilon)
    assert (np.hypot(*x) > d.support_radius) == outside
    field = free_field(d, t, np.array(x))
    mirrored = free_field(swapped, t, np.array(x))
    assert [a.shape for a in field] == [(2,), (2,), (2, 2)]
    assert all(np.all(a != 0.0) for a in field)
    for a, b in zip(field, mirrored):
        np.testing.assert_array_equal(a, b[::-1])


def test_outside_light_cone_zero(offset_data):
    r0 = offset_data.support_radius
    u, ut, grad = free_field(offset_data, 3.0, np.array([r0 + 3.0 + 0.01, 0.0]))
    assert u.shape == ut.shape == (2,) and grad.shape == (2, 2)
    assert not u.any() and not ut.any() and not grad.any()


def test_negative_time_rejected(offset_data):
    with pytest.raises(ValueError, match="t >= 0"):
        free_field(offset_data, -0.1, np.array([0.0, 0.0]))


def test_small_time_taylor_expansion(unit_bump):
    data = InitialData(f1=(unit_bump,), g1=(BumpSpec((0.2, -0.1), 0.7, -0.6),),
                       epsilon=1.0)
    x = np.array([0.3, 0.1])
    t = 1e-3
    u, ut, _ = free_field(data, t, x)
    (f, _, hf), (g, _, hg) = (sum_value_grad_hess(s, x) for s in (data.f1, data.g1))
    lap_f, lap_g = hf[0] + hf[2], hg[0] + hg[2]
    assert u[0] == pytest.approx(f + t * g + 0.5 * t * t * lap_f, abs=1e-8)
    assert ut[0] == pytest.approx(g + t * lap_f + 0.5 * t * t * lap_g, abs=1e-7)


@pytest.mark.parametrize("t,x", [
    (0.5, (0.2, 0.3)),
    (1.5, (1.0, -0.5)),
    (4.0, (3.2, 0.0)),
    (10.0, (9.5, 0.4)),
    (10.0, (2.0, 1.0)),
    (25.0, (24.8, 0.0)),
])
def test_node_doubling_self_convergence(t, x, monkeypatch):
    """Doubling the quadrature density moves nothing above 1e-7 absolute."""
    data = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       g1=(BumpSpec((0.2, -0.1), 0.7, -0.6),), epsilon=1.0)
    a = free_field(data, t, np.array(x))
    monkeypatch.setattr(free_wave, "PANEL_DENSITY", 2.0 * free_wave.PANEL_DENSITY)
    b = free_field(data, t, np.array(x))
    diff = max(float(np.max(np.abs(p[0] - q[0]))) for p, q in zip(a, b))
    assert diff <= 2e-7


def test_derivatives_internally_consistent(offset_data):
    """The quadrature derivatives match finite differences of the value."""
    t, x = 2.0, np.array([1.4, 0.6])
    step = 1e-4
    _, ut, grad = free_field(offset_data, t, x)
    up = free_field(offset_data, t + step, x)[0]
    dn = free_field(offset_data, t - step, x)[0]
    assert abs((up[0] - dn[0]) / (2 * step) - ut[0]) <= 1e-6
    xp = free_field(offset_data, t, x + [step, 0.0])[0]
    xm = free_field(offset_data, t, x - [step, 0.0])[0]
    assert abs((xp[0] - xm[0]) / (2 * step) - grad[0, 0]) <= 1e-6


def test_linearity_in_epsilon(offset_data):
    t, x = 1.3, np.array([0.7, -0.2])
    a = free_field(offset_data.with_epsilon(0.25), t, x)
    b = free_field(offset_data.with_epsilon(0.5), t, x)
    assert b[0][0] == pytest.approx(2.0 * a[0][0], rel=1e-14)
    assert b[1][0] == pytest.approx(2.0 * a[1][0], rel=1e-14)


def test_counted_oracle_nodes_are_the_built_ones(two_component_data, monkeypatch):
    """oracle_nodes counts, with _disk_rule's own formulas, the nodes of the
    largest rule free_field builds: inside the support, outside it, and at a
    point the light disk misses."""
    sizes = []

    def recorded(specs, pts):
        sizes.append(len(pts))
        return sum_value_grad_hess(specs, pts)

    monkeypatch.setattr(free_wave, "sum_value_grad_hess", recorded)
    for t, x in ((1.3, (0.2, -0.1)), (2.0, (2.1, 0.9)), (0.5, (4.0, 0.0))):
        sizes.clear()
        free_field(two_component_data, t, np.array(x))
        assert free_wave.oracle_nodes(two_component_data, t, x) == max(sizes, default=0)
