"""Quadrature oracle for the free wave equation in two space dimensions.

The solution of  u_tt = Laplace(u),  u(0) = phi,  u_t(0) = psi  is given by
the 2D Poisson representation

    u(t, x) = d_t I[phi](t, x) + I[psi](t, x),
    I[w](t, x) = (1 / 2 pi) * integral over the disk |y - x| < t of
                 w(y) / sqrt(t^2 - |y - x|^2) dy.

In polar coordinates around x the substitution rho = t sin(beta) removes the
rim singularity:

    I[w] = (t / 2 pi) * int d alpha int d beta  w(x + t sin(beta) omega_alpha) sin(beta),

with a smooth integrand.  Time and space derivatives are taken analytically
under the integral sign, which turns them into the same quadrature applied
to directional derivatives of the data (exact for bump sums).  The
quadrature window is clipped to the data support: only radii
rho in [max(0, |x| - R0), min(t, |x| + R0)] and, when x lies outside the
support, only the angular sector that sees the support disk contribute.

Accuracy target: 1e-7 absolute at the default node budget (see the
node_factor knob and the accompanying tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import InitialData, initial_values, sum_value_grad_hess
from .radiation import _panel_rule

__all__ = ["FreeFieldPoint", "free_field"]


@dataclass(frozen=True)
class FreeFieldPoint:
    """Free solution and first derivatives of both components at one (t, x)."""

    u: tuple[float, float]
    ut: tuple[float, float]
    grad: tuple[np.ndarray, np.ndarray]   # spatial gradient per component


def _disk_rule(t: float, x: np.ndarray, r0: float, feature: float,
               node_factor: float):
    """Quadrature nodes/weights for the clipped backward light disk.

    feature is the finest length scale of the data (smallest bump radius);
    node densities resolve it.  Returns (points (n,2), weights, sin(beta),
    alpha unit vectors) or None when the disk misses the support entirely.
    """
    dist = float(np.hypot(x[0], x[1]))
    rho_min = max(0.0, dist - r0)
    rho_max = min(t, dist + r0)
    if rho_min >= rho_max:
        return None

    beta0 = np.arcsin(min(1.0, rho_min / t))
    beta1 = np.arcsin(min(1.0, rho_max / t)) if rho_max < t else 0.5 * np.pi
    scale = max(feature, 1e-9)
    dens = 4.0 * node_factor          # composite panels per feature length
    beta_panels = max(4, int(np.ceil(dens * (rho_max - rho_min) / scale)))
    bx, bw = _panel_rule(beta_panels, 24)
    beta = beta0 + 0.5 * (beta1 - beta0) * (bx + 1.0)
    beta_w = 0.5 * (beta1 - beta0) * bw

    if dist <= r0:
        # x inside the support: full circle, periodic trapezoid in alpha;
        # the node count resolves the steep bump flank (about feature/5)
        n_alpha = max(64, int(np.ceil(dens * 10.0 * np.pi * rho_max / scale)))
        alpha = np.linspace(0.0, 2.0 * np.pi, n_alpha, endpoint=False)
        alpha_w = np.full(n_alpha, 2.0 * np.pi / n_alpha)
    else:
        # only the sector that can reach the support disk contributes
        half = np.arcsin(min(1.0, r0 / dist))
        center = np.arctan2(-x[1], -x[0])
        arc = rho_max * 2.0 * half
        panels = max(4, int(np.ceil(dens * arc / scale)))
        ax, aw = _panel_rule(panels, 24)
        alpha = center + half * ax
        alpha_w = half * aw

    ca, sa = np.cos(alpha), np.sin(alpha)
    sb = np.sin(beta)
    # tensor grid flattened: index = (i_beta, i_alpha)
    px = x[0] + t * sb[:, None] * ca[None, :]
    py = x[1] + t * sb[:, None] * sa[None, :]
    pts = np.stack([px, py], axis=-1).reshape(-1, 2)
    wts = (beta_w[:, None] * alpha_w[None, :]).ravel()
    sinb = np.broadcast_to(sb[:, None], (len(beta), len(alpha))).ravel()
    dirs = np.stack([np.broadcast_to(ca, (len(beta), len(alpha))).ravel(),
                     np.broadcast_to(sa, (len(beta), len(alpha))).ravel()], axis=-1)
    return pts, wts, sinb, dirs


def _disk_integrals(specs, t, x, r0, node_factor):
    """All Poisson-kernel moments of one data function needed for u, u_t, grad u.

    Returns dict with keys:
      I      = I[w]               dI_dt   = d_t I[w]
      d2I_dt = d_t^2 I[w]         grad_I  = grad_x I[w]
      grad_dI = grad_x d_t I[w]
    """
    zeros = {"I": 0.0, "dI_dt": 0.0, "d2I_dt": 0.0,
             "grad_I": np.zeros(2), "grad_dI": np.zeros(2)}
    if not specs or t <= 0.0:
        return zeros
    feature = min(s.radius for s in specs)
    rule = _disk_rule(t, x, r0, feature, node_factor)
    if rule is None:
        return zeros
    pts, wts, sinb, dirs = rule
    val, grad, hess = sum_value_grad_hess(specs, pts)
    dval = dirs[:, 0] * grad[:, 0] + dirs[:, 1] * grad[:, 1]       # omega.grad w
    # (omega.grad) grad w, both components
    dgrad = np.stack([dirs[:, 0] * hess[:, 0] + dirs[:, 1] * hess[:, 1],
                      dirs[:, 0] * hess[:, 1] + dirs[:, 1] * hess[:, 2]], axis=-1)
    d2val = dirs[:, 0] * dgrad[:, 0] + dirs[:, 1] * dgrad[:, 1]    # (omega.grad)^2 w

    c = 1.0 / (2.0 * np.pi)
    wsin = wts * sinb
    return {
        "I": c * t * np.sum(val * wsin),
        "dI_dt": c * np.sum((val + t * sinb * dval) * wsin),
        "d2I_dt": c * np.sum((2.0 * dval + t * sinb * d2val) * sinb * wsin),
        "grad_I": c * t * np.sum(grad * wsin[:, None], axis=0),
        "grad_dI": c * np.sum((grad + t * sinb[:, None] * dgrad) * wsin[:, None], axis=0),
    }


def free_field(data: InitialData, t: float, x, node_factor: float = 1.0
               ) -> FreeFieldPoint:
    """Free solution with data (eps f_j, eps g_j), evaluated at one (t, x).

    Returns values and first derivatives of both components.  t = 0 returns
    the initial data exactly; points outside the light cone of the support
    return exact zeros.
    """
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("free_field requires t >= 0")
    if t == 0.0:
        u, ut, grad = initial_values(data, x)
        return FreeFieldPoint(u=tuple(u.tolist()), ut=tuple(ut.tolist()), grad=tuple(grad))
    r0 = data.support_radius
    if np.hypot(x[0], x[1]) > r0 + t:
        z = np.zeros(2)
        return FreeFieldPoint(u=(0.0, 0.0), ut=(0.0, 0.0), grad=(z, z.copy()))

    eps = data.epsilon
    us, uts, grads = [], [], []
    for j in (1, 2):
        mf = _disk_integrals(data.position_data(j), t, x, r0, node_factor)
        mg = _disk_integrals(data.velocity_data(j), t, x, r0, node_factor)
        us.append(eps * (mf["dI_dt"] + mg["I"]))
        uts.append(eps * (mf["d2I_dt"] + mg["dI_dt"]))
        grads.append(eps * (mf["grad_dI"] + mg["grad_I"]))
    return FreeFieldPoint(u=(us[0], us[1]), ut=(uts[0], uts[1]),
                          grad=(grads[0], grads[1]))
