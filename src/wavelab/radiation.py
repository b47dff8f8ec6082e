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

Line integrals come from each bump's radial profile w, w', w'' (see
_radon_many), never from 2-D fields; the chord integrands are even and the
chord rule symmetric, so only half the chord nodes are evaluated.

Tables are computed per unit amplitude, i.e. from (f_j, g_j) without the
eps factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bumps import BumpSpec, InitialData, profile_derivatives
from .fitting import fit_power_law

__all__ = [
    "half_order_integral",
    "radiation_pair",
    "RadiationTable",
    "radiation_table",
    "fit_sigma_decay",
    "table_nodes",
    "HALF_ORDER_NORM",
    "TAU_NODE_BYTES",
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


_xi, _wi = _panel_rule(_CHORD_PANELS, _CHORD_NODES)
_HALF_CHORD = (_xi[_xi > 0], 2.0 * _wi[_xi > 0])        # the rule is symmetric about 0

# bytes a tau node of the half-order rule holds at the peak of radiation_pair,
# at most: 9 float64 values per half-chord node of a bump's chord sums
# (2,201 bytes measured with tracemalloc, at 1.9e4 to 1.9e5 tau nodes)
TAU_NODE_BYTES = 9 * 8 * len(_HALF_CHORD[0])


def _radon_many(specs: Sequence[BumpSpec], s: np.ndarray, omega: np.ndarray,
                orders: Sequence[int]) -> dict[int, np.ndarray]:
    """R[(omega.grad)^k phi](s, omega) for all requested k at once.

    Vectorized over the s array; loops only over bumps.  On the line at offset
    d = s - c.omega from a bump A w(|y - c|^2 / R^2), with q = (d^2 + tau^2) / R^2,
    (omega.grad)^k of the bump is A w(q), A w'(q) 2d/R^2 or
    A (w''(q) (2d/R^2)^2 + w'(q) 2/R^2), so three chord sums serve every k.
    """
    out = {k: np.zeros_like(s) for k in orders}
    xi, wi = _HALF_CHORD
    for spec in specs:
        r2 = spec.radius * spec.radius
        d = s - np.asarray(spec.center) @ omega
        hit = np.abs(d) < spec.radius          # the other lines miss the disk
        d = d[hit]
        half = np.sqrt(r2 - d * d)
        q = ((d * d)[:, None] + (half[:, None] * xi) ** 2) / r2
        w, wp, wpp = spec.amplitude * np.sum(profile_derivatives(q) * (half[:, None] * wi), -1)
        slope = 2.0 * d / r2
        for k in orders:
            out[k][hit] += (w, slope * wp, slope * slope * wpp + 2.0 / r2 * wp)[k]
    return out


def _tau_panels(sigma, support_radius: float, feature_scale: float):
    """(tau_lo, tau_hi, panels) of half_order_integral's rule at sigma, a
    float or an array of them; the panel count is a float."""
    tau_hi = np.sqrt(support_radius - sigma)
    tau_lo = np.sqrt(np.maximum(-support_radius - sigma, 0.0))
    # panel counts round a ratio within 1e-9 of an integer down to it, so
    # data that differ by rounding (e.g. rotated copies) get the same rule
    panels = np.maximum(np.ceil((tau_hi - tau_lo) / _TAU_PANEL - 1e-9),
                        np.ceil(6.0 * (tau_hi**2 - tau_lo**2) / feature_scale - 1e-9))
    return tau_lo, tau_hi, np.maximum(panels, 1.0)


def half_order_integral(line_values: Callable[[np.ndarray], np.ndarray],
                        sigma: float, support_radius: float, feature_scale: float):
    """(1/(2 sqrt2 pi)) int_sigma^inf line_values(s) / sqrt(s - sigma) ds.

    line_values must vanish for |s| > support_radius, as the Radon transform
    of data supported in |y| <= support_radius does; the substitution
    s = sigma + tau^2 turns the integral into a regular one over the tau
    window where s lies in [max(sigma, -support_radius), support_radius].
    It may return stacked integrands of shape (k, len(s)); the result is
    then an array of the k integrals, otherwise a float.

    feature_scale is the smallest s-scale on which line_values varies;
    panels are refined so each covers at most a fraction of it, which keeps
    far-negative sigma (a tiny, strongly stretched tau window) as accurate
    as the near field.
    """
    if sigma >= support_radius:
        return 0.0
    tau_lo, tau_hi, panels = _tau_panels(sigma, support_radius, feature_scale)
    xi, wi = _panel_rule(int(panels), _TAU_NODES)
    tau = tau_lo + 0.5 * (tau_hi - tau_lo) * (xi + 1.0)
    wts = 0.5 * (tau_hi - tau_lo) * wi
    vals = np.asarray(line_values(sigma + tau * tau), dtype=float)
    total = HALF_ORDER_NORM * (2.0 * np.sum(vals * wts, axis=-1))
    return float(total) if total.ndim == 0 else total


def radiation_pair(data: InitialData, sigma: float, omega
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(F, d_sigma F) at one (sigma, omega), per unit amplitude.

    F and dF have shape (2,), the component on axis 0.  F_j = -d_sigma R2[f_j]
    + R2[g_j]; each sigma-derivative of R2 is R2 applied to the next
    directional derivative of the data.  The tau nodes depend only on R0 and
    the smallest bump radius, so one quadrature over the four stacked
    integrands serves F and dF of both components, and F and dF are mutually
    consistent to quadrature accuracy.
    """
    omega = np.asarray(omega, dtype=float)
    r0 = data.support_radius
    bumps = data.all_bumps()
    if sigma >= r0 or not bumps:
        return np.zeros(2), np.zeros(2)

    def integrands(s):
        rf = [_radon_many(f, s, omega, (1, 2)) for f in (data.f1, data.f2)]
        rg = [_radon_many(g, s, omega, (0, 1)) for g in (data.g1, data.g2)]
        # rows F_1, F_2, dF_1, dF_2
        return np.stack([-rf[j][k + 1] + rg[j][k] for k in (0, 1) for j in (0, 1)])

    feature = min(b.radius for b in bumps)
    F, dF = half_order_integral(integrands, sigma, r0, feature).reshape(2, 2)
    return F, dF


def table_nodes(data: InitialData, sigma_grid) -> float:
    """Tau nodes of the largest half-order rule radiation_pair builds for data
    at a sigma of sigma_grid, counted in floating point without building it;
    0 for none."""
    r0, bumps = data.support_radius, data.all_bumps()
    if not bumps:
        return 0.0
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    panels = _tau_panels(sigma_grid[sigma_grid < r0], r0, min(b.radius for b in bumps))[2]
    return _TAU_NODES * float(np.max(panels, initial=0.0))


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

    def to_csv(self):
        """The (header, rows) of the sigma-major radiation_table CSV."""
        grids = np.meshgrid(self.sigma_grid, self.theta_grid, indexing="ij")
        columns = (*grids, self.F[0], self.dF[0], self.F[1], self.dF[1])
        return (("sigma", "theta", "F1", "dF1", "F2", "dF2"),
                zip(*(c.ravel() for c in columns)))


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
            if sigma < r0:
                F[:, i, j], dF[:, i, j] = radiation_pair(data, sigma, omega)
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
