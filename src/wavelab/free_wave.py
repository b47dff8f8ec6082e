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
to directional derivatives of the data (exact for bump sums).  _moments
returns the three moments one data kind needs, (d_t^k I, d_t^{k+1} I,
grad_x d_t^k I): k = 1 for the position data phi, k = 0 for the velocity
data psi, and each component of (u, u_t, grad u) is eps times their sum.
Each data set gets its own disk rule, resolved to its smallest bump radius.
The quadrature window is clipped to the data support: only radii
rho in [max(0, |x| - R0), min(t, |x| + R0)] and, when x lies outside the
support, only the angular sector that sees the support disk contribute.

Accuracy, at PANEL_DENSITY composite panels per feature length: u is good
to about 1e-7 absolute, its derivatives inside the data support are not.
Going to 4 times that density moves, at free-validation's 20 oracle points,
u by 2.8e-8, u_t by 9.2e-7 and grad u by 5.5e-6; from twice to 4 times the
density they still move by 2.0e-8, 9.2e-7 and 2.1e-6.  At its 27 ray-check
points (t >= 4, outside the support) every value moves by 6.4e-8 at most.
The tests hold all three to 2e-7 against twice the density at six points.
"""

from __future__ import annotations

import numpy as np

from .bumps import InitialData, initial_values, sum_value_grad_hess
from .radiation import _panel_rule

__all__ = ["free_field", "oracle_nodes", "NODE_BYTES"]

PANEL_DENSITY = 4.0        # composite panels per feature length

# bytes a node of a disk rule holds at the peak of free_field, at most: 28
# float64 values (217 bytes measured with tracemalloc, at 3e5 to 2.5e6 nodes)
NODE_BYTES = 28 * 8


def _disk_counts(t: float, x: np.ndarray, r0: float, feature: float):
    """(rho_min, rho_max, half, beta panels, alpha count) of _disk_rule's
    rule, the counts as floats, or None when the disk misses the support.  For x inside
    the support half is None and the alpha count the node count of the
    trapezoid on the full circle; else they are the half-angle and the panel
    count of the sector that sees the support disk."""
    dist = float(np.hypot(x[0], x[1]))
    rho_min = max(0.0, dist - r0)
    rho_max = min(t, dist + r0)
    if rho_min >= rho_max:
        return None
    scale = max(feature, 1e-9)
    beta_panels = max(4.0, np.ceil(PANEL_DENSITY * (rho_max - rho_min) / scale))
    if dist <= r0:
        # the node count resolves the steep bump flank (about feature/5)
        half = None
        alpha = max(64.0, np.ceil(PANEL_DENSITY * 10.0 * np.pi * rho_max / scale))
    else:
        half = np.arcsin(min(1.0, r0 / dist))
        alpha = max(4.0, np.ceil(PANEL_DENSITY * (rho_max * 2.0 * half) / scale))
    return rho_min, rho_max, half, beta_panels, alpha


def _disk_rule(t: float, x: np.ndarray, r0: float, feature: float):
    """Quadrature nodes/weights for the clipped backward light disk.

    feature is the finest length scale of the data (smallest bump radius);
    node densities resolve it.  Returns (points (n,2), weights, sin(beta),
    alpha unit vectors) or None when the disk misses the support entirely.
    """
    counts = _disk_counts(t, x, r0, feature)
    if counts is None:
        return None
    rho_min, rho_max, half, beta_panels, n_alpha = counts
    beta_panels, n_alpha = int(beta_panels), int(n_alpha)
    beta0 = np.arcsin(min(1.0, rho_min / t))
    beta1 = np.arcsin(min(1.0, rho_max / t)) if rho_max < t else 0.5 * np.pi
    bx, bw = _panel_rule(beta_panels, 24)
    beta = beta0 + 0.5 * (beta1 - beta0) * (bx + 1.0)
    beta_w = 0.5 * (beta1 - beta0) * bw

    if half is None:
        # x inside the support: full circle, periodic trapezoid in alpha
        alpha = np.linspace(0.0, 2.0 * np.pi, n_alpha, endpoint=False)
        alpha_w = np.full(n_alpha, 2.0 * np.pi / n_alpha)
    else:
        # only the sector that can reach the support disk contributes
        center = np.arctan2(-x[1], -x[0])
        ax, aw = _panel_rule(n_alpha, 24)
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


def _moments(specs, t, x, r0, k):
    """(d_t^k I, d_t^{k+1} I, grad_x d_t^k I) of the bump sum specs at (t, x).

    k = 1 gives u, u_t and grad u of position data, k = 0 those of velocity
    data.  Empty data, or a disk that misses the support, gives zeros.
    """
    rule = _disk_rule(t, x, r0, min(s.radius for s in specs)) if specs else None
    if rule is None:
        return 0.0, 0.0, np.zeros(2)
    pts, wts, sinb, dirs = rule
    val, grad, hess = sum_value_grad_hess(specs, pts)
    dval = dirs[:, 0] * grad[:, 0] + dirs[:, 1] * grad[:, 1]       # omega.grad w

    c = 1.0 / (2.0 * np.pi)
    wsin = wts * sinb
    dI_dt = c * np.sum((val + t * sinb * dval) * wsin)
    if k == 0:
        return (c * t * np.sum(val * wsin), dI_dt,
                c * t * np.sum(grad * wsin[:, None], axis=0))
    # (omega.grad) grad w, both components
    dgrad = np.stack([dirs[:, 0] * hess[:, 0] + dirs[:, 1] * hess[:, 1],
                      dirs[:, 0] * hess[:, 1] + dirs[:, 1] * hess[:, 2]], axis=-1)
    d2val = dirs[:, 0] * dgrad[:, 0] + dirs[:, 1] * dgrad[:, 1]    # (omega.grad)^2 w
    return (dI_dt, c * np.sum((2.0 * dval + t * sinb * d2val) * sinb * wsin),
            c * np.sum((grad + t * sinb[:, None] * dgrad) * wsin[:, None], axis=0))


def oracle_nodes(data: InitialData, t: float, x) -> float:
    """Nodes of the largest rule free_field builds at (t, x), one data set's,
    counted in floating point without building it; 0 for none."""
    x, r0 = np.asarray(x, dtype=float), data.support_radius
    nodes = [0]
    for specs in (data.f1, data.g1, data.f2, data.g2):
        counts = _disk_counts(t, x, r0, min(s.radius for s in specs)) if specs else None
        if counts is not None:
            _, _, half, beta_panels, alpha = counts
            nodes.append(24 * beta_panels * (alpha if half is None else 24 * alpha))
    return max(nodes)


def free_field(data: InitialData, t: float, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free solution with data (eps f_j, eps g_j), evaluated at one (t, x).

    Returns (u, ut, grad) of shapes (2,), (2,) and (2, 2), axis 0 the
    component, as initial_values does at one point.  t = 0 returns the
    initial data exactly; points outside the light cone of the support
    return exact zeros.
    """
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("free_field requires t >= 0")
    if t == 0.0:
        return initial_values(data, x)
    r0 = data.support_radius
    if np.hypot(x[0], x[1]) > r0 + t:
        return np.zeros(2), np.zeros(2), np.zeros((2, 2))
    parts = [[a + b for a, b in zip(_moments(f, t, x, r0, 1), _moments(g, t, x, r0, 0))]
             for f, g in ((data.f1, data.g1), (data.f2, data.g2))]
    return tuple(data.epsilon * np.stack(p) for p in zip(*parts))
