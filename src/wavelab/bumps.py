"""Smooth compactly supported initial data built from radial bump functions.

The building block is the mollifier-style bump

    b(x) = A * exp(1 - 1 / (1 - |x - c|^2 / R^2))   for |x - c| < R,
    b(x) = 0                                        otherwise,

which is C-infinity on the whole plane, supported exactly on the closed disk
of radius R about c, and equals A at the center.  Derivatives up to total
order two are available in closed form; every quadrature in the package uses
these exact formulas, so no numerical differentiation of the data happens
anywhere downstream.

Writing s = |x - c|^2 / R^2 and w(s) = exp(1 - 1/(1 - s)):

    w'(s)  = -w(s) / (1 - s)^2
    w''(s) =  w(s) (2 s - 1) / (1 - s)^4

and the chain rule gives gradient and Hessian of b.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

__all__ = [
    "BumpSpec",
    "InitialData",
    "eval_bump",
    "eval_sum",
    "sum_value_grad_hess",
    "initial_values",
]


@dataclass(frozen=True)
class BumpSpec:
    """One radial bump: center, support radius and center amplitude."""

    center: tuple[float, float]
    radius: float
    amplitude: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def outer_radius(self) -> float:
        """Distance from the origin to the far edge of the support disk."""
        cx, cy = self.center
        return float(np.hypot(cx, cy) + self.radius)


def _core(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w, w', w'' at s = rho^2/R^2, valid for 0 <= s < 1."""
    one_minus = 1.0 - s
    w = np.exp(1.0 - 1.0 / one_minus)
    wp = -w / one_minus**2
    wpp = w * (2.0 * s - 1.0) / one_minus**4
    return w, wp, wpp


def profile_derivatives(q: np.ndarray) -> np.ndarray:
    """Stacked w, w', w'' at q = |x - c|^2 / R^2, exactly zero where q >= 1."""
    inside = np.asarray(q) < 1.0
    return np.where(inside, _core(np.where(inside, q, 0.0)), 0.0)


def _bump_value_grad_hess(spec: BumpSpec, pts: np.ndarray):
    """Value, gradient and packed Hessian (xx, xy, yy) of a single bump.

    pts has shape (..., 2).  Outside the support everything is exactly zero,
    including on the boundary circle itself.
    """
    pts = np.asarray(pts, dtype=float)
    d = pts - np.asarray(spec.center)
    r2 = spec.radius * spec.radius
    s = (d[..., 0] ** 2 + d[..., 1] ** 2) / r2

    val = np.zeros(s.shape)
    grad = np.zeros(s.shape + (2,))
    hess = np.zeros(s.shape + (3,))

    inside = s < 1.0
    if np.any(inside):
        w, wp, wpp = _core(s[inside])
        a = spec.amplitude
        # s_i = 2 d_i / R^2,  s_ij = 2 delta_ij / R^2
        si = 2.0 * d[inside] / r2
        val[inside] = a * w
        grad[inside] = a * wp[..., None] * si
        hess[inside, 0] = a * (wpp * si[..., 0] * si[..., 0] + wp * 2.0 / r2)
        hess[inside, 1] = a * wpp * si[..., 0] * si[..., 1]
        hess[inside, 2] = a * (wpp * si[..., 1] * si[..., 1] + wp * 2.0 / r2)
    return val, grad, hess


_ORDER_INDEX = {(0, 0): None, (1, 0): ("g", 0), (0, 1): ("g", 1),
                (2, 0): ("h", 0), (1, 1): ("h", 1), (0, 2): ("h", 2)}


def eval_bump(spec: BumpSpec, x, order: tuple[int, int] = (0, 0)):
    """Evaluate one bump or one of its partial derivatives.

    order is the multi-index (n_x, n_y); total order at most two.  x may be a
    single point (length-2) or an array of shape (..., 2).  Returns a scalar
    for a single point, an array otherwise.
    """
    order = (int(order[0]), int(order[1]))
    if order not in _ORDER_INDEX:
        raise ValueError(f"unsupported derivative order {order}; total order must be <= 2")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    val, grad, hess = _bump_value_grad_hess(spec, x)
    sel = _ORDER_INDEX[order]
    if sel is None:
        out = val
    elif sel[0] == "g":
        out = grad[..., sel[1]]
    else:
        out = hess[..., sel[1]]
    return float(out) if scalar else out


def eval_sum(specs: Iterable[BumpSpec], x, order: tuple[int, int] = (0, 0)):
    """Sum of eval_bump over a collection of bumps (empty sum is zero)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    out = np.zeros(x.shape[:-1])
    for spec in specs:
        out = out + eval_bump(spec, x, order)
    return float(out) if scalar else out


def sum_value_grad_hess(specs: Iterable[BumpSpec], pts: np.ndarray):
    """Value, gradient, packed Hessian of a bump sum, vectorized over pts."""
    pts = np.asarray(pts, dtype=float)
    val = np.zeros(pts.shape[:-1])
    grad = np.zeros(pts.shape[:-1] + (2,))
    hess = np.zeros(pts.shape[:-1] + (3,))
    for spec in specs:
        v, g, h = _bump_value_grad_hess(spec, pts)
        val += v
        grad += g
        hess += h
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
        # configs additionally require epsilon > 0
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
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
