"""Smooth compactly supported initial data built from radial bump functions.

The building block is the mollifier-style bump

    b(x) = A w(|x - c|^2 / R^2),   w(s) = exp(1 - 1 / (1 - s)) for s < 1, else 0,

which is C-infinity on the whole plane, supported exactly on the closed disk
of radius R about c, and equals A at the center.  profile_derivatives is the
one place where w and its derivatives

    w'(s) = -w(s) / (1 - s)^2,    w''(s) = w(s) (2 s - 1) / (1 - s)^4

are written.  sum_value_grad_hess turns them by the chain rule into the
value, gradient and Hessian of a bump sum, eval_sum takes the value alone,
and the radiation module's Radon integrals read the profile itself; no
numerical differentiation of the data happens anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

__all__ = ["BumpSpec", "InitialData", "profile_derivatives", "eval_sum",
           "sum_value_grad_hess", "initial_values", "SMALLEST_RADIUS"]

# the smallest bump radius R: every profile argument divides by R^2, which
# must be a positive normal float (below this it is subnormal, or 0.0)
SMALLEST_RADIUS = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class BumpSpec:
    """One radial bump: center, support radius and center amplitude."""

    center: tuple[float, float]
    radius: float
    amplitude: float

    def __post_init__(self):
        if not self.radius >= SMALLEST_RADIUS:
            raise ValueError(f"bump radius must be at least {SMALLEST_RADIUS:.3g}, where "
                             f"its square is a normal float, got {self.radius:g}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def outer_radius(self) -> float:
        """Distance from the origin to the far edge of the support disk."""
        cx, cy = self.center
        return float(np.hypot(cx, cy) + self.radius)


def profile_derivatives(q: np.ndarray) -> np.ndarray:
    """Stacked w, w', w'' at q = |x - c|^2 / R^2, exactly zero where q >= 1."""
    inside = np.asarray(q) < 1.0
    s = np.where(inside, q, 0.0)
    one_minus = 1.0 - s
    out = np.empty((3,) + s.shape)   # written in place: no stacked copy at the peak
    w = np.exp(1.0 - 1.0 / one_minus, out=out[0, ...])
    np.divide(-w, one_minus**2, out=out[1, ...])
    np.divide(w * (2.0 * s - 1.0), one_minus**4, out=out[2, ...])
    out[:, ~inside] = 0.0
    return out


def _offsets(spec: BumpSpec, pts: np.ndarray):
    """d = pts - c, R^2 and s = |d|^2 / R^2 of one bump."""
    d = pts - np.asarray(spec.center)
    r2 = spec.radius * spec.radius
    return d, r2, (d[..., 0] ** 2 + d[..., 1] ** 2) / r2


def eval_sum(specs: Iterable[BumpSpec], x):
    """Value of a bump sum at x of shape (..., 2), a float for a single point
    (length 2); the empty sum is zero."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for spec in specs:
        out += spec.amplitude * profile_derivatives(_offsets(spec, x)[2])[0]
    return float(out) if x.ndim == 1 else out


def sum_value_grad_hess(specs: Iterable[BumpSpec], pts: np.ndarray):
    """Value, gradient and packed Hessian (xx, xy, yy) of a bump sum at pts of
    shape (..., 2); a bump adds exactly 0.0 on and outside its support circle."""
    pts = np.asarray(pts, dtype=float)
    val = np.zeros(pts.shape[:-1])
    grad = np.zeros(pts.shape[:-1] + (2,))
    hess = np.zeros(pts.shape[:-1] + (3,))
    for spec in specs:
        d, r2, q = _offsets(spec, pts)
        w, wp, wpp = profile_derivatives(q)
        a = spec.amplitude
        si = 2.0 * d / r2                   # s_i; s_ij = 2 delta_ij / R^2
        val += a * w
        grad += a * wp[..., None] * si
        hess[..., 0] += a * (wpp * si[..., 0] * si[..., 0] + wp * 2.0 / r2)
        hess[..., 1] += a * wpp * si[..., 0] * si[..., 1]
        hess[..., 2] += a * (wpp * si[..., 1] * si[..., 1] + wp * 2.0 / r2)
    return val, grad, hess


@dataclass(frozen=True)
class InitialData:
    """Two-component initial data (f_j, g_j) as bump sums, with amplitude eps.

    f holds the position data and g the velocity data; the fields fed to the
    solver are eps*f_j and eps*g_j.  All evaluation helpers below return the
    eps-scaled values.
    """

    f1: tuple[BumpSpec, ...] = ()
    g1: tuple[BumpSpec, ...] = ()
    f2: tuple[BumpSpec, ...] = ()
    g2: tuple[BumpSpec, ...] = ()
    epsilon: float = 0.1

    def __post_init__(self):
        # zero amplitude is allowed for degenerate evaluations; simulation
        # configs additionally require epsilon > 0.  NaN fails both tests
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        for name in ("f1", "g1", "f2", "g2"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def support_radius(self) -> float:
        """R0 = max over bumps of |center| + radius (0 for empty data)."""
        radii = [b.outer_radius for b in self.all_bumps()]
        return max(radii) if radii else 0.0

    def all_bumps(self) -> tuple[BumpSpec, ...]:
        return self.f1 + self.g1 + self.f2 + self.g2

    def is_centered(self) -> bool:
        """True when every bump sits at the origin (radial symmetry)."""
        return all(b.center == (0.0, 0.0) for b in self.all_bumps())

    def with_epsilon(self, eps: float) -> "InitialData":
        return replace(self, epsilon=eps)


def initial_values(data: InitialData, x):
    """Both components' u, d_t u and grad u at t = 0 at the points x.

    Returns (u, ut, grad) of shapes (2, ...), (2, ...) and (2, ..., 2), where
    ... is the shape of x without its last axis and axis 0 is the component.
    Everything is linear in eps: u_j = eps f_j(x), d_t u_j = eps g_j(x),
    grad u_j = eps grad f_j(x).
    """
    x = np.asarray(x, dtype=float)
    eps = data.epsilon
    u, grad = zip(*(sum_value_grad_hess(f, x)[:2] for f in (data.f1, data.f2)))
    ut = [eval_sum(g, x) for g in (data.g1, data.g2)]
    return eps * np.stack(u), eps * np.stack(ut), eps * np.stack(grad)
