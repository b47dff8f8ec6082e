import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import along_direction
from wavelab import BumpSpec, InitialData, eval_sum, initial_values, sum_value_grad_hess
from wavelab.bumps import SMALLEST_RADIUS, profile_derivatives

# the multi-index (n_x, n_y) of a partial derivative: its field in
# sum_value_grad_hess (gradient 1, packed Hessian 2) and its index there
_PARTIAL = {(1, 0): (1, 0), (0, 1): (1, 1), (2, 0): (2, 0), (1, 1): (2, 1), (0, 2): (2, 2)}


def _value(spec, x):
    return sum_value_grad_hess([spec], x)[0]


def _partial(spec, x, order):
    field, k = _PARTIAL[order]
    return sum_value_grad_hess([spec], x)[field][..., k]


def test_center_value_equals_amplitude(unit_bump):
    assert _value(unit_bump, (0.0, 0.0)) == 1.0
    scaled = BumpSpec((0.5, -1.0), 2.0, -3.5)
    assert _value(scaled, (0.5, -1.0)) == -3.5


def test_zero_outside_support(unit_bump):
    # value, gradient and Hessian, on the boundary circle exactly too
    for x in ((2.0, 0.0), (1.0, 0.0), (0.8, 0.8)):
        for field in sum_value_grad_hess([unit_bump], x):
            assert np.all(field == 0.0)


def test_half_radius_value(unit_bump):
    # direct evaluation of A exp(1 - 1/(1 - 1/4)) = exp(-1/3)
    assert _value(unit_bump, (0.5, 0.0)) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-15)


def test_interior_range(unit_bump, rng):
    pts = rng.uniform(-0.999, 0.999, size=(200, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.999]
    vals = _value(unit_bump, pts)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    # negative amplitude flips the sign of every interior value
    neg = BumpSpec((0.0, 0.0), 1.0, -2.5)
    nvals = _value(neg, pts)
    assert np.all(nvals < 0.0)
    assert np.all(nvals >= -2.5)


def test_invalid_radius():
    with pytest.raises(ValueError, match="radius"):
        BumpSpec((0.0, 0.0), -1.0, 1.0)


def test_radius_whose_square_is_not_normal_is_refused():
    """Every profile argument divides by R^2: below SMALLEST_RADIUS that is
    subnormal or 0.0, and the division overflows to inf."""
    for radius in (1e-300, np.nextafter(SMALLEST_RADIUS, 0.0), 0.0):
        with pytest.raises(ValueError, match="bump radius must be at least 1.49e-154"):
            BumpSpec((0.0, 0.0), radius, 1.0)
    smallest = BumpSpec((0.0, 0.0), SMALLEST_RADIUS, 1.0)
    assert smallest.radius ** 2 == np.finfo(float).tiny
    assert eval_sum([smallest], [0.0, 0.0]) == 1.0


@pytest.mark.parametrize("order", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_derivatives_match_finite_differences(order, rng):
    """Closed-form derivatives against centered differences of plain values."""
    spec = BumpSpec((0.2, -0.3), 1.3, 0.8)
    step = 1e-4
    pts = rng.uniform(-0.9, 0.9, size=(60, 2)) + np.array(spec.center)
    # margin from the support boundary, where high derivatives blow up and
    # the finite-difference truncation term dominates
    pts = pts[np.hypot(*(pts - spec.center).T) < 0.65 * spec.radius]
    exact = _partial(spec, pts, order)

    ex, ey = np.array([step, 0.0]), np.array([0.0, step])

    def value(p):
        return _value(spec, p)

    approx = np.empty(len(pts))
    for i, p in enumerate(pts):
        if order == (1, 0):
            approx[i] = (value(p + ex) - value(p - ex)) / (2 * step)
        elif order == (0, 1):
            approx[i] = (value(p + ey) - value(p - ey)) / (2 * step)
        elif order == (2, 0):
            approx[i] = (value(p + ex) - 2 * value(p) + value(p - ex)) / step**2
        elif order == (0, 2):
            approx[i] = (value(p + ey) - 2 * value(p) + value(p - ey)) / step**2
        else:
            approx[i] = (value(p + ex + ey) - value(p + ex - ey)
                         - value(p - ex + ey) + value(p - ex - ey)) / (4 * step**2)
    scale = np.maximum(np.abs(exact), 0.05 * np.max(np.abs(exact)))
    assert np.max(np.abs(approx - exact) / scale) < 1e-6


@settings(max_examples=100, deadline=None)
@given(center=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       radius=st.floats(0.2, 2.0),
       amplitude=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1),
       rho=st.floats(0.0, 0.65), phi=st.floats(0.0, 2 * math.pi),
       order=st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]))
def test_derivatives_match_finite_differences_random_bumps(center, radius, amplitude,
                                                           rho, phi, order):
    """Closed-form derivatives of random bumps against centred differences.

    Points stay within 0.65 R of the centre, where the difference
    truncation is small; the error is measured on the order-n scale A / R^n.
    """
    spec = BumpSpec(center, radius, amplitude)
    p = np.array(spec.center) + radius * rho * np.array([math.cos(phi), math.sin(phi)])
    step = 1e-4 * radius
    ex, ey = np.array([step, 0.0]), np.array([0.0, step])

    def value(q):
        return _value(spec, q)

    approx = {
        (1, 0): (value(p + ex) - value(p - ex)) / (2 * step),
        (0, 1): (value(p + ey) - value(p - ey)) / (2 * step),
        (2, 0): (value(p + ex) - 2 * value(p) + value(p - ex)) / step**2,
        (0, 2): (value(p + ey) - 2 * value(p) + value(p - ey)) / step**2,
        (1, 1): (value(p + ex + ey) - value(p + ex - ey)
                 - value(p - ex + ey) + value(p - ex - ey)) / (4 * step**2),
    }[order]
    scale = abs(amplitude) / radius ** sum(order)
    assert abs(approx - _partial(spec, p, order)) <= 2e-6 * scale


def test_profile_derivatives_zero_off_support():
    q = np.array([0.0, 0.25, 1.0, 1.5])
    w, wp, wpp = profile_derivatives(q)
    assert (w[0], wp[0], wpp[0]) == (1.0, -1.0, -1.0)
    assert w[1] == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-15)
    for field in (w, wp, wpp):
        assert np.all(field[2:] == 0.0)


def test_directional_derivative_consistency(unit_bump):
    omega = np.array([math.cos(0.3), math.sin(0.3)])
    pts = np.array([[0.2, 0.1], [0.5, -0.3], [0.9, 0.9]])
    fields = sum_value_grad_hess([unit_bump], pts)
    d1 = along_direction(fields, omega, 1)
    expect = omega[0] * _partial(unit_bump, pts, (1, 0)) \
        + omega[1] * _partial(unit_bump, pts, (0, 1))
    np.testing.assert_allclose(d1, expect, rtol=1e-14)
    d2 = along_direction(fields, omega, 2)
    expect2 = (omega[0] ** 2 * _partial(unit_bump, pts, (2, 0))
               + 2 * omega[0] * omega[1] * _partial(unit_bump, pts, (1, 1))
               + omega[1] ** 2 * _partial(unit_bump, pts, (0, 2)))
    np.testing.assert_allclose(d2, expect2, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf, 0.0])
def test_epsilon_must_be_finite_and_nonnegative(eps, unit_bump):
    """A negative, NaN or infinite epsilon is refused; 0 builds."""
    if eps == 0.0:
        assert InitialData(g1=(unit_bump,), epsilon=eps).epsilon == 0.0
        return
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        InitialData(g1=(unit_bump,), epsilon=eps)


def test_initial_values_zero_epsilon(unit_bump):
    data = InitialData(f1=(unit_bump,), g1=(unit_bump,), epsilon=0.0)
    u, ut, grad = initial_values(data, np.array([0.3, 0.1]))
    assert np.all(u == 0.0) and np.all(ut == 0.0)
    assert np.all(grad[0] == 0.0)


def test_initial_values_single_bump(unit_bump):
    data = InitialData(f1=(unit_bump,), epsilon=0.1)
    u, ut, _ = initial_values(data, np.array([0.0, 0.0]))
    assert u[0] == pytest.approx(0.1)
    assert ut[0] == 0.0
    assert u[1] == 0.0


def test_initial_values_linear_in_epsilon(radial_data, rng):
    # power-of-two ratio scales exactly in floating point
    pts = rng.uniform(-1.0, 1.0, size=(30, 2))
    base = initial_values(radial_data.with_epsilon(0.25), pts)
    double = initial_values(radial_data.with_epsilon(0.5), pts)
    assert [a.shape for a in base] == [(2, 30), (2, 30), (2, 30, 2)]
    for d, b in zip(double[:2], base[:2]):
        np.testing.assert_array_equal(d, 2.0 * b)


def test_support_radius():
    data = InitialData(
        f1=(BumpSpec((1.0, 0.0), 0.5, 1.0),),
        g2=(BumpSpec((0.0, -2.0), 1.0, 1.0),),
        epsilon=0.1,
    )
    assert data.support_radius == pytest.approx(3.0)
    assert InitialData(epsilon=0.1).support_radius == 0.0


def test_sum_evaluation_adds(unit_bump):
    """eval_sum is the value of sum_value_grad_hess, bit for bit, inside, on
    and outside the supports; a single point gives a float."""
    specs = [unit_bump, BumpSpec((0.3, 0.0), 1.0, -0.5)]
    # inside both, inside one, on each circle, outside both
    x = np.array([[0.2, 0.1], [-0.85, 0.0], [-1.0, 0.0], [1.3, 0.0], [2.0, 1.0]])
    total = eval_sum(specs, x)
    val, grad, hess = sum_value_grad_hess(specs, x)
    assert total.tobytes() == val.tobytes()
    assert grad.shape == (5, 2) and hess.shape == (5, 3)
    assert eval_sum(specs, x[0]) == val[0] and isinstance(eval_sum(specs, x[0]), float)
    assert eval_sum([], x).tobytes() == np.zeros(5).tobytes()
