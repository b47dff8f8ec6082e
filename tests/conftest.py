import numpy as np
import pytest

from wavelab import BumpSpec, EnergyTrace, InitialData, run_simulation
from wavelab.radiation import _radon_many


def along_direction(fields, omega: np.ndarray, k: int):
    """(omega . grad)^k of a field from its (value, gradient, packed Hessian)."""
    val, grad, hess = fields
    if k == 0:
        return val
    w1, w2 = float(omega[0]), float(omega[1])
    if k == 1:
        return w1 * grad[..., 0] + w2 * grad[..., 1]
    return (w1 * w1 * hess[..., 0] + 2.0 * w1 * w2 * hess[..., 1]
            + w2 * w2 * hess[..., 2])


def energy_run(cfg, nonlinear: bool, cone=None) -> EnergyTrace:
    """The EnergyTrace of cfg's run."""
    trace = EnergyTrace(cfg)
    run_simulation(cfg, nonlinear=nonlinear, cone=cone, samplers=[(trace.times, trace)])
    return trace


def radon_line_integral(specs, s: float, omega, deriv_order: int = 0) -> float:
    """R[(omega . grad)^k phi](s, omega) for a bump sum phi, k = deriv_order
    in 0..2: the radiation module's chord sums at one s.

    Exactly zero whenever the line {y.omega = s} misses every support disk.
    """
    omega = np.asarray(omega, dtype=float)
    vals = _radon_many(tuple(specs), np.atleast_1d(float(s)), omega, (deriv_order,))
    return float(vals[deriv_order][0])


@pytest.fixture
def unit_bump():
    return BumpSpec(center=(0.0, 0.0), radius=1.0, amplitude=1.0)


@pytest.fixture
def radial_data():
    """Centered two-component data, asymmetric between components."""
    return InitialData(
        f1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
        g1=(BumpSpec((0.0, 0.0), 0.7, -0.5),),
        f2=(BumpSpec((0.0, 0.0), 0.8, 0.3),),
        g2=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
        epsilon=0.3,
    )


@pytest.fixture
def offset_data():
    """Non-radial data exercising genuinely 2D code paths."""
    return InitialData(
        f1=(BumpSpec((0.3, 0.15), 0.9, 1.0),),
        g1=(BumpSpec((-0.1, 0.2), 0.8, -0.6),),
        epsilon=1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
