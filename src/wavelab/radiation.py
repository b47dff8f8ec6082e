"""Radiation fields of compactly supported data via Radon and Abel integrals.

For a plane function phi, the Radon transform is the line integral

    R[phi](s, omega) = integral of phi over the line {y . omega = s},

and the half-order (Abel-type) integral is

    R2[phi](sigma, omega) = (1 / (2 sqrt(2) pi)) *
                            int_sigma^inf R[phi](s, omega) / sqrt(s - sigma) ds.

The radiation field of data (phi, psi) and its sigma-derivative are

    F[phi, psi]      = -d_sigma R2[phi] + R2[psi]
    d_sigma F        = -d_sigma^2 R2[phi] + d_sigma R2[psi]

Two facts keep the numerics clean.  First, the substitution s = sigma + tau^2
removes the square-root singularity: the integral becomes
2 * int_0^sqrt(R0 - sigma) R[phi](sigma + tau^2) d tau with a smooth
integrand.  Second, d/ds R[phi](s, omega) = R[(omega . grad) phi](s, omega),
so every sigma-derivative of R2 is the same smooth integral applied to a
higher directional derivative of the data; no differencing of the singular
integral ever happens.

Tables are computed per unit amplitude, i.e. from (f_j, g_j) without the
eps factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .bumps import BumpSpec, InitialData, along_direction, sum_value_grad_hess
from .fitting import fit_power_law

__all__ = [
    "radon_line_integral",
    "half_order_integral",
    "radiation_pair",
    "RadiationTable",
    "radiation_table",
    "fit_sigma_decay",
    "HALF_ORDER_NORM",
]

# 1 / (2 sqrt(2) pi), the normalization of the half-order integral
HALF_ORDER_NORM = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)

# line integrals: 32 Gauss-Legendre nodes per bump radius of chord length
_CHORD_PANELS = 4
_CHORD_NODES = 16
# half-order integral: 64 nodes per unit tau length
_TAU_PANEL = 0.25
_TAU_NODES = 16


@lru_cache(maxsize=None)
def _panel_rule(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [-1, 1] with the given panel count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    xs = (mids[:, None] + half * x[None, :]).ravel()
    ws = np.broadcast_to(half * w, (panels, nodes)).ravel()
    return xs, ws


def _chord_nodes_weights(s: np.ndarray, spec: BumpSpec, omega: np.ndarray):
    """Quadrature nodes along the chords {y.omega = s} inside one bump disk.

    Returns points of shape (ns, nq, 2) and weights (ns, nq); chords that
    miss the disk get zero weights.
    """
    perp = np.array([-omega[1], omega[0]])
    c = np.asarray(spec.center)
    d = s - c @ omega                      # signed offset of each line
    inside = np.abs(d) < spec.radius
    half = np.zeros_like(s)
    half[inside] = np.sqrt(spec.radius**2 - d[inside] ** 2)

    xi, wi = _panel_rule(_CHORD_PANELS, _CHORD_NODES)
    tau0 = c @ perp
    tau = tau0 + half[:, None] * xi[None, :]
    pts = s[:, None, None] * omega[None, None, :] + tau[..., None] * perp[None, None, :]
    wts = half[:, None] * wi[None, :]
    return pts, wts


def _radon_many(specs: Sequence[BumpSpec], s: np.ndarray, omega: np.ndarray,
                orders: Sequence[int]) -> dict[int, np.ndarray]:
    """R[(omega.grad)^k phi](s, omega) for all requested k at once.

    Vectorized over the s array; loops only over bumps.  One bump-field
    evaluation serves every k because value, gradient and Hessian come out
    of the same call.
    """
    s = np.asarray(s, dtype=float)
    out = {k: np.zeros_like(s) for k in orders}
    for spec in specs:
        pts, wts = _chord_nodes_weights(s, spec, omega)
        fields = sum_value_grad_hess([spec], pts)
        for k in orders:
            out[k] += np.sum(along_direction(fields, omega, k) * wts, axis=-1)
    return out


def radon_line_integral(specs: Iterable[BumpSpec], s: float, omega,
                        deriv_order: int = 0) -> float:
    """R[(omega . grad)^k phi](s, omega) for a bump sum phi.

    Exactly zero whenever the line {y.omega = s} misses every support disk.
    """
    if deriv_order not in (0, 1, 2):
        raise ValueError(f"derivative order along omega must be 0..2, got {deriv_order}")
    omega = np.asarray(omega, dtype=float)
    vals = _radon_many(tuple(specs), np.atleast_1d(float(s)), omega, (deriv_order,))
    return float(vals[deriv_order][0])


def half_order_integral(line_values: Callable[[np.ndarray], np.ndarray],
                        sigma: float, support_radius: float,
                        inner_radius: float | None = None,
                        feature_scale: float | None = None):
    """(1/(2 sqrt2 pi)) int_sigma^inf line_values(s) / sqrt(s - sigma) ds.

    line_values must vanish for s > support_radius; the substitution
    s = sigma + tau^2 turns the integral into a regular one over
    tau in [0, sqrt(support_radius - sigma)].  It may return stacked
    integrands of shape (k, len(s)); the result is then an array of the k
    integrals, otherwise a float.

    When line_values also vanishes for s < -inner_radius (always true for
    Radon transforms of data supported in |y| <= inner_radius), the dead part
    of the tau window is skipped.  feature_scale, if given, is the smallest
    s-scale on which line_values varies; panels are refined so each covers
    at most a fraction of it, which keeps far-negative sigma (a tiny,
    strongly stretched tau window) as accurate as the near field.
    """
    if sigma >= support_radius:
        return 0.0
    tau_hi = np.sqrt(support_radius - sigma)
    tau_lo = 0.0
    if inner_radius is not None and -inner_radius > sigma:
        tau_lo = np.sqrt(-inner_radius - sigma)
    panels = max(1, int(np.ceil((tau_hi - tau_lo) / _TAU_PANEL)))
    if feature_scale is not None and feature_scale > 0:
        s_span = tau_hi**2 - tau_lo**2
        panels = max(panels, int(np.ceil(6.0 * s_span / feature_scale)))
    xi, wi = _panel_rule(panels, _TAU_NODES)
    tau = tau_lo + 0.5 * (tau_hi - tau_lo) * (xi + 1.0)
    wts = 0.5 * (tau_hi - tau_lo) * wi
    vals = np.asarray(line_values(sigma + tau * tau), dtype=float)
    total = HALF_ORDER_NORM * (2.0 * np.sum(vals * wts, axis=-1))
    return float(total) if total.ndim == 0 else total


def _component_pair(data: InitialData, component: int):
    return data.position_data(component), data.velocity_data(component)


def radiation_pair(data: InitialData, sigma: float, omega, component: int
                   ) -> tuple[float, float]:
    """(F_j, d_sigma F_j) at one (sigma, omega), per unit amplitude.

    F_j = -d_sigma R2[f_j] + R2[g_j]; each sigma-derivative of R2 is R2
    applied to the next directional derivative of the data.  Both integrals
    share one set of quadrature nodes, so F and dF are mutually consistent
    to quadrature accuracy.
    """
    omega = np.asarray(omega, dtype=float)
    f, g = _component_pair(data, component)
    r0 = data.support_radius
    if sigma >= r0:
        return 0.0, 0.0
    bumps = data.all_bumps()
    feature = min(b.radius for b in bumps) if bumps else None

    def integrands(s):
        rf = _radon_many(f, s, omega, (1, 2))
        rg = _radon_many(g, s, omega, (0, 1))
        return np.stack([-rf[1] + rg[0], -rf[2] + rg[1]])

    f_val, df_val = half_order_integral(integrands, sigma, r0, inner_radius=r0,
                                        feature_scale=feature)
    return float(f_val), float(df_val)


@dataclass(frozen=True)
class RadiationTable:
    """Sampled radiation fields F_j and d_sigma F_j on a (sigma, theta) grid.

    F and dF have shape (2, n_sigma, n_theta); entries with sigma above the
    support radius are exactly zero.  Values are per unit amplitude.
    """

    sigma_grid: np.ndarray
    theta_grid: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    support_radius: float

    def __post_init__(self):
        for name in ("sigma_grid", "theta_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or len(g) == 0 or np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be non-empty and strictly increasing")
            object.__setattr__(self, name, g)

    def value_at(self, sigma: float, theta: float, component: int) -> float:
        """Bilinear interpolation of dF at (sigma, theta).

        sigma above the support radius returns 0 exactly; sigma below the
        grid raises (no extrapolation on the decaying tail).
        """
        if sigma > self.support_radius:
            return 0.0
        sg, tg = self.sigma_grid, self.theta_grid
        if sigma < sg[0] - 1e-12:
            raise ValueError(f"sigma={sigma} below the table grid (starts at {sg[0]})")
        table = self.dF[component - 1]
        i = int(np.clip(np.searchsorted(sg, sigma) - 1, 0, len(sg) - 2))
        ws = (sigma - sg[i]) / (sg[i + 1] - sg[i])
        ws = min(max(ws, 0.0), 1.0)
        if len(tg) == 1:
            col = table[:, 0]
            return float((1 - ws) * col[i] + ws * col[i + 1])
        j = int(np.clip(np.searchsorted(tg, theta) - 1, 0, len(tg) - 2))
        wt = (theta - tg[j]) / (tg[j + 1] - tg[j])
        wt = min(max(wt, 0.0), 1.0)
        patch = table[i:i + 2, j:j + 2]
        return float((1 - ws) * (1 - wt) * patch[0, 0] + (1 - ws) * wt * patch[0, 1]
                     + ws * (1 - wt) * patch[1, 0] + ws * wt * patch[1, 1])

    def to_csv(self, path) -> None:
        """Sigma-major CSV: sigma, theta, F1, dF1, F2, dF2."""
        from .reporting import write_csv
        rows = []
        for i, s in enumerate(self.sigma_grid):
            for j, th in enumerate(self.theta_grid):
                rows.append((s, th, self.F[0, i, j], self.dF[0, i, j],
                             self.F[1, i, j], self.dF[1, i, j]))
        write_csv(path, ("sigma", "theta", "F1", "dF1", "F2", "dF2"), rows)


def radiation_table(data: InitialData, sigma_grid, theta_grid) -> RadiationTable:
    """Tabulate (F_j, d_sigma F_j) per unit amplitude on the given grids."""
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    r0 = data.support_radius
    F = np.zeros((2, len(sigma_grid), len(theta_grid)))
    dF = np.zeros_like(F)
    for j, theta in enumerate(theta_grid):
        omega = np.array([np.cos(theta), np.sin(theta)])
        for i, sigma in enumerate(sigma_grid):
            if sigma >= r0:
                continue
            for comp in (1, 2):
                F[comp - 1, i, j], dF[comp - 1, i, j] = radiation_pair(
                    data, sigma, omega, comp)
    if not np.all(np.isfinite(F)) or not np.all(np.isfinite(dF)):
        raise FloatingPointError("non-finite value in radiation table quadrature")
    return RadiationTable(sigma_grid=sigma_grid, theta_grid=theta_grid,
                          F=F, dF=dF, support_radius=r0)


def fit_sigma_decay(table: RadiationTable, window: tuple[float, float]) -> np.ndarray:
    """Least-squares slope of log |dF_j| against log <sigma> over a window.

    window must sit on the far negative axis (sigma < -2 R0) and contain at
    least 8 samples with nonzero dF.  Returns slopes of shape (2, n_theta);
    the expected value for generic data is -3/2.
    """
    lo, hi = window
    if hi >= -2.0 * table.support_radius:
        raise ValueError("fit window must satisfy sigma < -2 R0")
    mask = (table.sigma_grid >= lo) & (table.sigma_grid <= hi)
    sig = table.sigma_grid[mask]
    slopes = np.zeros((2, len(table.theta_grid)))
    for comp in (0, 1):
        for j in range(len(table.theta_grid)):
            vals = np.abs(table.dF[comp, mask, j])
            good = vals > 0
            if np.count_nonzero(good) < 8:
                raise ValueError(
                    f"degenerate decay fit: fewer than 8 nonzero samples "
                    f"(component {comp + 1}, theta index {j})")
            slopes[comp, j] = fit_power_law(np.hypot(1.0, sig[good]), vals[good]).slope
    return slopes
