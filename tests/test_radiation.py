import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import along_direction, radon_line_integral
from wavelab import (BumpSpec, InitialData, fit_sigma_decay, half_order_integral,
                     leading_invariant, radiation_pair, radiation_table,
                     sum_value_grad_hess)
from wavelab import radiation
from wavelab.radiation import (_CHORD_NODES, _CHORD_PANELS, HALF_ORDER_NORM,
                               RadiationTable, _panel_rule, _radon_many, table_nodes)
from wavelab.reporting import render_csv


def omega_of(theta):
    return np.array([math.cos(theta), math.sin(theta)])


# -- Radon line integrals --------------------------------------------------------

def test_radon_zero_function():
    assert radon_line_integral([], 0.3, omega_of(0.2)) == 0.0


def test_radon_outside_support(unit_bump):
    assert radon_line_integral([unit_bump], 1.5, omega_of(0.0)) == 0.0
    assert radon_line_integral([unit_bump], -1.0, omega_of(0.0)) == 0.0


def test_radon_radial_rotation_invariance(unit_bump):
    vals = [radon_line_integral([unit_bump], 0.4, omega_of(th))
            for th in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    assert max(vals) - min(vals) <= 1e-10


def test_radon_mass_identity_fubini():
    """Integrating R[phi](s) over s reproduces the 2D integral of phi.

    The 2D oracle is an independent tensor Gauss-Legendre rule over the
    support square.
    """
    spec = BumpSpec((0.3, -0.2), 0.9, 1.3)
    x, w = np.polynomial.legendre.leggauss(80)
    cx, cy = spec.center
    X = cx + spec.radius * x[:, None] * np.ones_like(x)[None, :]
    Y = cy + spec.radius * np.ones_like(x)[:, None] * x[None, :]
    W = spec.radius**2 * w[:, None] * w[None, :]
    oracle = float(np.sum(sum_value_grad_hess([spec], np.stack([X, Y], axis=-1))[0] * W))

    om = omega_of(0.7)
    s0 = float(om @ [cx, cy])
    xs, ws = np.polynomial.legendre.leggauss(200)
    svals = s0 + spec.radius * xs
    total = sum(wsi * spec.radius * radon_line_integral([spec], si, om)
                for si, wsi in zip(svals, ws))
    assert abs(total - oracle) / abs(oracle) <= 1e-8


def test_chord_rule_is_symmetric():
    # the radial-profile chord sums evaluate only the positive nodes
    xi, wi = _panel_rule(_CHORD_PANELS, _CHORD_NODES)
    assert np.array_equal(xi, -xi[::-1]) and np.array_equal(wi, wi[::-1])
    assert not np.any(xi == 0.0)


_coord = st.floats(-1.5, 1.5)


@settings(max_examples=150, deadline=None)
@given(cx=_coord, cy=_coord, radius=st.floats(0.2, 1.5),
       amplitude=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1),
       theta=st.floats(0.0, 2 * math.pi),
       offset=st.floats(-1.2, 1.2), k=st.sampled_from([0, 1, 2]))
def test_radon_matches_chord_rule_on_2d_fields(cx, cy, radius, amplitude, theta,
                                               offset, k):
    """Radon integrals from the radial profile against the 2-D path.

    The oracle applies the full 64-node chord rule to value, gradient and
    Hessian fields evaluated at 2-D chord points.  R[(omega.grad)^k b]
    scales like A R^(1-k); both paths round q = |y - c|^2 / R^2 with an
    absolute error that grows with |c| / R.
    """
    spec = BumpSpec((cx, cy), radius, amplitude)
    om = omega_of(theta)
    perp = np.array([-om[1], om[0]])
    c = np.array(spec.center)
    s = float(c @ om) + offset * radius
    d = s - c @ om
    half = math.sqrt(radius**2 - d**2) if abs(d) < radius else 0.0
    xi, wi = _panel_rule(_CHORD_PANELS, _CHORD_NODES)
    pts = s * om + (c @ perp + half * xi)[:, None] * perp
    fields = sum_value_grad_hess([spec], pts)
    oracle = float(np.sum(along_direction(fields, om, k) * half * wi))
    got = radon_line_integral([spec], s, om, deriv_order=k)
    scale = abs(amplitude) * radius ** (1 - k) * (1.0 + math.hypot(cx, cy) / radius)
    assert abs(got - oracle) <= 1e-12 * scale
    if abs(offset) >= 1.0:
        assert got == 0.0


def test_radon_derivative_is_s_derivative(unit_bump):
    # d/ds R[phi](s) = R[(omega.grad) phi](s); the two sides use different
    # chord rules, so they agree to quadrature accuracy, not exactly
    om = omega_of(0.4)
    s, d = 0.3, 1e-4
    fd = (radon_line_integral([unit_bump], s + d, om)
          - radon_line_integral([unit_bump], s - d, om)) / (2 * d)
    direct = radon_line_integral([unit_bump], s, om, deriv_order=1)
    assert abs(fd - direct) <= 1e-5


# -- half-order integral ---------------------------------------------------------

def test_half_order_zero_input():
    assert half_order_integral(lambda s: np.zeros_like(s), -1.0, 1.0, 1.0) == 0.0


def test_half_order_empty_domain():
    assert half_order_integral(lambda s: np.ones_like(s), 2.0, 1.0, 1.0) == 0.0


def test_half_order_indicator_against_antiderivative():
    """Indicator of [a, b]: the exact value is 2(sqrt(b-s) - sqrt(a-s)) scaled.

    The composite rule targets smooth line functions; across the jump its
    accuracy is panel-limited, hence the modest tolerance here.
    """
    a, b = -0.5, 0.8
    indicator = lambda s: ((s >= a) & (s <= b)).astype(float)
    sigma = -2.0
    exact = HALF_ORDER_NORM * 2.0 * (math.sqrt(b - sigma) - math.sqrt(a - sigma))
    got = half_order_integral(indicator, sigma, 1.0, 1.0)
    assert abs(got - exact) / exact <= 5e-3


def test_half_order_smooth_against_dense_oracle(unit_bump):
    om = omega_of(0.0)
    line = lambda s: np.array([radon_line_integral([unit_bump], float(v), om)
                               for v in np.atleast_1d(s)])
    sigma = -1.3
    got = half_order_integral(line, sigma, 1.0, 1.0)
    tau = np.linspace(0.0, math.sqrt(1.0 - sigma), 20001)
    vals = line(sigma + tau**2)
    oracle = HALF_ORDER_NORM * 2.0 * np.sum(np.diff(tau) * (vals[1:] + vals[:-1]) / 2.0)
    assert abs(got - oracle) / abs(oracle) <= 1e-7


# -- radiation tables ------------------------------------------------------------

def test_table_zero_data():
    data = InitialData(epsilon=0.1)
    table = radiation_table(data, np.linspace(-2, 1, 7), [0.0])
    assert np.all(table.F == 0.0) and np.all(table.dF == 0.0)


def test_table_identical_components(unit_bump):
    data = InitialData(f1=(unit_bump,), g1=(unit_bump,),
                       f2=(unit_bump,), g2=(unit_bump,), epsilon=0.2)
    table = radiation_table(data, np.linspace(-3, 1.2, 12), [0.0, 1.0])
    np.testing.assert_array_equal(table.F[0], table.F[1])
    np.testing.assert_array_equal(table.dF[0], table.dF[1])


def test_table_linearity(unit_bump):
    small = BumpSpec((0.0, 0.0), 0.6, -0.4)
    base = InitialData(f1=(unit_bump,), g1=(small,), epsilon=0.1)
    doubled = InitialData(f1=(BumpSpec((0.0, 0.0), 1.0, 2.0),),
                          g1=(BumpSpec((0.0, 0.0), 0.6, -0.8),), epsilon=0.1)
    grid = np.linspace(-4, 1.2, 9)
    t1 = radiation_table(base, grid, [0.0])
    t2 = radiation_table(doubled, grid, [0.0])
    np.testing.assert_allclose(t2.F, 2.0 * t1.F, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(t2.dF, 2.0 * t1.dF, rtol=1e-14, atol=1e-300)


def test_table_support_exact(unit_bump):
    data = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=0.1)
    grid = np.arange(-2.0, 2.0001, 0.25)
    table = radiation_table(data, grid, [0.0])
    tail = grid > 1.0
    assert np.max(np.abs(table.F[:, tail, :])) == 0.0
    assert np.max(np.abs(table.dF[:, tail, :])) == 0.0


def test_table_radial_columns_identical(unit_bump):
    data = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=0.1)
    thetas = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    table = radiation_table(data, np.linspace(-3, 1.2, 9), thetas)
    spread = np.max(np.abs(table.dF - table.dF[:, :, :1]))
    assert spread <= 1e-10


@settings(max_examples=40, deadline=None)
@given(center=st.tuples(_coord, _coord), radius=st.floats(0.3, 1.2),
       amplitude=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1),
       alpha=st.floats(0.0, 2 * math.pi), theta0=st.floats(0.0, 2 * math.pi),
       n_theta=st.integers(1, 3))
# each rotated copy's support radius differs from the original's by one ulp
# where the panel count of the half-order rule is an exact integer
@example(center=(0.0, 0.7), radius=0.3, amplitude=1.0, alpha=4.0, theta0=0.0,
         n_theta=1)
@example(center=(0.0, 0.3), radius=0.3, amplitude=1.0, alpha=4.5, theta0=0.0,
         n_theta=1)
@example(center=(0.0, 0.679289601261084), radius=0.679289601261084,
         amplitude=1.0, alpha=0.1, theta0=0.0, n_theta=1)
def test_rotational_equivariance(center, radius, amplitude, alpha, theta0, n_theta):
    """Rotating off-centre data by alpha rotates its table by alpha.

    Chord offsets and positions are rotation invariant, so the two tables
    differ by rounding only.
    """
    rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                    [math.sin(alpha), math.cos(alpha)]])
    center = np.array(center)
    second = center[::-1] * 0.5

    def rotated(r):
        return InitialData(f1=(BumpSpec(tuple(r @ center), radius, amplitude),),
                           g1=(BumpSpec(tuple(r @ second), 0.5 * radius, 1.0),),
                           epsilon=0.1)

    data, data_rot = rotated(np.eye(2)), rotated(rot)
    grid = np.linspace(-3.0, data.support_radius + 0.3, 10)
    thetas = theta0 + 0.9 * np.arange(n_theta)
    t1 = radiation_table(data, grid, thetas)
    t2 = radiation_table(data_rot, grid, thetas + alpha)
    scale = max(np.max(np.abs(t1.F)), np.max(np.abs(t1.dF)))
    assert np.max(np.abs(t1.F - t2.F)) <= 1e-11 * scale
    assert np.max(np.abs(t1.dF - t2.dF)) <= 1e-11 * scale


def test_dF_consistent_with_sigma_differences(radial_data):
    """Centered differences of F reproduce dF at second order in the step.

    Steps stay large enough that the finite-difference truncation sits above
    the quadrature floor of the table entries.
    """
    om = omega_of(0.0)
    sigma = -0.2
    errs = []
    for step in (0.4, 0.2, 0.1):
        fp, _ = radiation_pair(radial_data, sigma + step, om)
        fm, _ = radiation_pair(radial_data, sigma - step, om)
        _, df = radiation_pair(radial_data, sigma, om)
        errs.append(abs((fp[0] - fm[0]) / (2 * step) - df[0]))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def _component_pair(f, g, sigma, omega, r0, feature):
    """(F_j, dF_j) of one component from its own half-order quadrature."""
    def integrands(s):
        rf = _radon_many(f, s, omega, (1, 2))
        rg = _radon_many(g, s, omega, (0, 1))
        return np.stack([-rf[1] + rg[0], -rf[2] + rg[1]])
    pair = half_order_integral(integrands, sigma, r0, feature)
    return np.broadcast_to(pair, 2)


@pytest.mark.parametrize("theta", [0.4, 2.5])
def test_radiation_pair_matches_per_component_quadrature(theta):
    """One quadrature over both components' stacked integrands equals, bit
    for bit, one quadrature per component: both use the same tau nodes."""
    data = InitialData(f1=(BumpSpec((0.3, 0.15), 0.9, 1.0),),
                       g1=(BumpSpec((-0.1, 0.2), 0.8, -0.6),),
                       f2=(BumpSpec((-0.4, 0.1), 0.5, 0.7),),
                       g2=(BumpSpec((0.2, -0.3), 0.6, 1.2), BumpSpec((0.0, 0.5), 0.4, -0.3)),
                       epsilon=0.2)
    r0 = data.support_radius
    feature = min(b.radius for b in data.all_bumps())
    om = omega_of(theta)
    # far field, near field, the support's edge and past it
    for sigma in (-40.0, -7.3, -0.6, 0.2, r0 - 0.05, r0, r0 + 0.5):
        F, dF = radiation_pair(data, sigma, om)
        assert F.shape == dF.shape == (2,)
        for j, (f, g) in enumerate(((data.f1, data.g1), (data.f2, data.g2))):
            ref = _component_pair(f, g, sigma, om, r0, feature)
            assert np.array([F[j], dF[j]]).tobytes() == ref.tobytes(), (sigma, j)


def test_interpolation_and_support_queries(unit_bump):
    data = InitialData(g1=(unit_bump,), g2=(BumpSpec((0.0, 0.0), 0.7, 0.4),),
                       epsilon=0.1)
    table = radiation_table(data, np.linspace(-2, 1.2, 33), [0.0])
    assert leading_invariant(table, 0.1, 2.0) == 0.0    # above support radius
    with pytest.raises(ValueError, match="below"):
        leading_invariant(table, 0.1, -3.0)
    mid = leading_invariant(table, 0.1, -0.513)         # between nodes
    assert np.isfinite(mid) and mid != 0.0
    # a grid that ends inside the support: no extrapolation above it either
    short = radiation_table(data, np.linspace(-1.0, 0.5, 16), [0.0])
    with pytest.raises(ValueError, match="above"):
        leading_invariant(short, 0.1, 0.9)


def test_table_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        RadiationTable(sigma_grid=np.array([0.0, 0.0]), theta_grid=np.array([0.0]),
                       F=np.zeros((2, 2, 1)), dF=np.zeros((2, 2, 1)),
                       support_radius=1.0)


# -- decay fits ------------------------------------------------------------------

def _synthetic_table(fn):
    grid = np.arange(-45.0, -5.0, 0.5)
    vals = fn(grid)
    d = np.broadcast_to(vals[None, :, None], (2, len(grid), 1)).copy()
    return RadiationTable(sigma_grid=grid, theta_grid=np.array([0.0]),
                          F=d.copy(), dF=d, support_radius=1.0)


def test_decay_fit_exact_power_laws():
    t32 = _synthetic_table(lambda s: np.hypot(1.0, s) ** -1.5)
    slopes = fit_sigma_decay(t32, (-40.0, -10.0))
    assert np.max(np.abs(slopes + 1.5)) <= 1e-6
    t2 = _synthetic_table(lambda s: np.hypot(1.0, s) ** -2.0)
    slopes = fit_sigma_decay(t2, (-40.0, -10.0))
    assert np.max(np.abs(slopes + 2.0)) <= 1e-6


def test_decay_fit_bump_data(unit_bump):
    """Decay exponent -3/2 for a single radial bump, per-unit-amplitude table.

    The quadrature resolution doubles as the cross-check: halving the window
    sampling leaves the slope within the contract band.
    """
    data = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=1.0)
    grid = np.arange(-41.0, 1.2, 0.25)
    table = radiation_table(data, grid, [0.0])
    slopes = fit_sigma_decay(table, (-40.0, -10.0))
    assert np.all(slopes >= -1.65) and np.all(slopes <= -1.35)


def test_decay_fit_degenerate_window():
    tab = _synthetic_table(lambda s: np.zeros_like(s))
    with pytest.raises(ValueError, match="degenerate"):
        fit_sigma_decay(tab, (-40.0, -10.0))


def test_decay_fit_window_validation(unit_bump):
    data = InitialData(g1=(unit_bump,), epsilon=0.1)
    table = radiation_table(data, np.linspace(-10, 1.2, 20), [0.0])
    with pytest.raises(ValueError, match="window"):
        fit_sigma_decay(table, (-5.0, 0.0))


def test_csv_export(unit_bump):
    data = InitialData(g1=(unit_bump,), g2=(unit_bump,), epsilon=0.1)
    table = radiation_table(data, np.linspace(-1, 1.2, 5), [0.0, 1.0])
    lines = render_csv("table.csv", *table.to_csv()).splitlines()
    assert lines[0] == "sigma,theta,F1,dF1,F2,dF2"
    assert len(lines) == 1 + 5 * 2
    # sigma-major ordering
    first_two = [line.split(",")[:2] for line in lines[1:3]]
    assert first_two[0][0] == first_two[1][0]
    assert first_two[0][1] != first_two[1][1]


def test_counted_table_nodes_are_the_built_ones(monkeypatch):
    """table_nodes counts, with half_order_integral's own formula, the tau
    nodes of the largest rule a table builds; the narrow bump sets them."""
    data = InitialData(g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
                       f2=(BumpSpec((0.0, 0.0), 0.1, 0.5),), epsilon=0.2)
    sizes = []

    def recorded(specs, s, omega, orders):
        sizes.append(len(s))
        return _radon_many(specs, s, omega, orders)

    monkeypatch.setattr(radiation, "_radon_many", recorded)
    for sigma_grid in ([-3.0, -0.5, 0.5, 1.5], [-1.0], [0.2, 0.6], [2.0]):
        sizes.clear()
        radiation_table(data, sigma_grid, [0.0])
        assert table_nodes(data, sigma_grid) == max(sizes, default=0)
    assert table_nodes(InitialData(), [-1.0]) == 0
