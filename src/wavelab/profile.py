"""Null-ray profiles of the wave field and the scattering invariant.

Along an outgoing ray x = (t + sigma) omega the rescaled derivative
amplitude of each component is

    U_j = (1/2) (d_r - d_t) (r^{1/2} u_j)
        = (1/2) (r^{1/2} d_r u_j + u_j / (2 r^{1/2}) - r^{1/2} d_t u_j),

and V_j(t; sigma, omega) = U_j at the foot point.  The pair (V_1, V_2)
obeys, exactly along the true flow,

    d_t V_1 = -V_1 V_2^2 / (2 t) + K_1,
    d_t V_2 = -V_1^2 V_2 / (2 t) + K_2,

where K_j collects the remainder

    H_j = (1/2) ( r^{1/2} (d_t u_{3-j})^2 d_t u_j + U_{3-j}^2 U_j / t )
          - (4 Omega^2 + 1) u_j / (8 r^{3/2}),      Omega = x1 d2 - x2 d1,

evaluated at the foot point.  Dropping K gives the reduced system whose
invariant V_1^2 - V_2^2 is exactly conserved; with K kept,
d/dt (V_1^2 - V_2^2) = 2 rho with rho = V_1 K_1 - V_2 K_2, which is the
basis of the corrected invariant estimate.

Grid sampling uses 4-point Lagrange (cubic) interpolation in space and
linear interpolation in time between stored samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .radiation import RadiationTable
from .solver import WaveState

__all__ = [
    "field_value",
    "outgoing_amplitude",
    "sample_profile",
    "remainder_term",
    "ProfileTrace",
    "RayTraceCollector",
    "solve_reduced_ode",
    "closed_form_profile",
    "profile_invariant",
    "corrected_invariant",
    "leading_invariant",
    "MEstimate",
    "write_mestimates",
]


class IntegrationError(RuntimeError):
    pass


# -- cubic interpolation on uniform grids -------------------------------------

def _stencil(p: float, n: int) -> tuple[int, np.ndarray]:
    """4-node Lagrange stencil for fractional index p on a grid of size n."""
    k0 = int(math.floor(p)) - 1
    k0 = min(max(k0, 0), n - 4)
    x = p - k0
    nodes = np.arange(4.0)
    w = np.ones(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                w[i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return k0, w


def _interp_radial(arr: np.ndarray, r: float, h: float) -> float:
    p = r / h - 0.5
    k0, w = _stencil(p, arr.shape[-1])
    return float(arr[..., k0:k0 + 4] @ w)


def _interp_cart(arr: np.ndarray, x: float, y: float, x0: float, h: float) -> float:
    px = (x - x0) / h
    py = (y - x0) / h
    i0, wx = _stencil(px, arr.shape[0])
    j0, wy = _stencil(py, arr.shape[1])
    return float(wx @ arr[i0:i0 + 4, j0:j0 + 4] @ wy)


class _LevelFields:
    """Interpolatable view of one diagnosed level (u, grad u, d_t u).

    Gradients use the solver's fourth-order stencils: the ray amplitude
    multiplies d_r u by r^{1/2}, so at large foot-point radii a second-order
    gradient error would dominate every profile measurement.
    """

    def __init__(self, state: WaveState, with_rotation: bool = False):
        self.state = state
        self.h = state.h
        self.radial = state.mode == "radial"
        self.u = state.u_curr
        self.dt = state.dt_u
        if self.radial:
            self.gr = np.stack([state._gradient4(self.u[j]) for j in range(2)])
        else:
            self.x0 = state.xs[0]
            gs = [state._gradient4(self.u[j]) for j in range(2)]
            self.gx = np.stack([g[0] for g in gs])
            self.gy = np.stack([g[1] for g in gs])
            if with_rotation:
                X, Y = np.meshgrid(state.xs, state.xs, indexing="ij")
                self.om2 = np.empty_like(self.u)
                for j in range(2):
                    om1 = X * self.gy[j] - Y * self.gx[j]
                    o1x, o1y = state._gradient4(om1)
                    self.om2[j] = X * o1y - Y * o1x

    def at(self, x: np.ndarray, name: str, j: int) -> float:
        arr = getattr(self, name)[j]
        if self.radial:
            return _interp_radial(arr, float(np.hypot(x[0], x[1])), self.h)
        return _interp_cart(arr, x[0], x[1], self.x0, self.h)

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        """U_1, U_2 at the point x (|x| >= h required)."""
        r = float(np.hypot(x[0], x[1]))
        if r < self.h:
            raise ValueError(f"point with |x|={r:.3g} < h={self.h:.3g} is too close "
                             "to the origin for the ray amplitude")
        sq = math.sqrt(r)
        out = np.empty(2)
        for j in range(2):
            u = self.at(x, "u", j)
            ut = self.at(x, "dt", j)
            if self.radial:
                ur = self.at(x, "gr", j)
            else:
                ur = (x[0] * self.at(x, "gx", j) + x[1] * self.at(x, "gy", j)) / r
            out[j] = 0.5 * (sq * ur + 0.5 * u / sq - sq * ut)
        return out

    def remainder(self, x: np.ndarray, t: float) -> np.ndarray:
        """H_1, H_2 at the point x for diagnosed time t."""
        r = float(np.hypot(x[0], x[1]))
        if r < self.h:
            raise ValueError(f"|x|={r:.3g} < h; remainder term undefined this close in")
        if t <= 0:
            raise ValueError("remainder term needs t > 0")
        sq = math.sqrt(r)
        U = self.amplitude(x)
        ut = np.array([self.at(x, "dt", 0), self.at(x, "dt", 1)])
        uval = np.array([self.at(x, "u", 0), self.at(x, "u", 1)])
        if self.radial:
            ang = np.zeros(2)
        else:
            ang = np.array([self.at(x, "om2", 0), self.at(x, "om2", 1)])
        out = np.empty(2)
        for j in range(2):
            k = 1 - j
            out[j] = 0.5 * (sq * ut[k] ** 2 * ut[j] + U[k] ** 2 * U[j] / t) \
                - (4.0 * ang[j] + uval[j]) / (8.0 * r * sq)
        return out


def field_value(state: WaveState, x) -> tuple[float, float]:
    """u_1, u_2 of the diagnosed level at the point x, by cubic interpolation."""
    u = state.u_curr
    if state.mode == "radial":
        r = float(np.hypot(x[0], x[1]))
        return _interp_radial(u[0], r, state.h), _interp_radial(u[1], r, state.h)
    x0 = state.xs[0]
    return (_interp_cart(u[0], x[0], x[1], x0, state.h),
            _interp_cart(u[1], x[0], x[1], x0, state.h))


def outgoing_amplitude(state: WaveState, x) -> tuple[float, float]:
    """U_1, U_2 of the diagnosed level at a point x with |x| >= h."""
    u = _LevelFields(state).amplitude(np.asarray(x, dtype=float))
    return float(u[0]), float(u[1])


def sample_profile(state: WaveState, sigma: float, omega) -> tuple[float, float]:
    """V_1, V_2 at (sigma, omega): the amplitude at the foot point (t+sigma) omega."""
    omega = np.asarray(omega, dtype=float)
    r = state.t + sigma
    if r < state.h:
        raise ValueError(f"foot point t+sigma={r:.3g} < h; off the usable grid")
    return outgoing_amplitude(state, r * omega)


def remainder_term(state: WaveState, x) -> tuple[float, float]:
    """H_1, H_2 of the diagnosed level at x (rotational stencils in 2D mode)."""
    fields = _LevelFields(state, with_rotation=state.mode != "radial")
    h = fields.remainder(np.asarray(x, dtype=float), state.t)
    return float(h[0]), float(h[1])


# -- traces along rays ---------------------------------------------------------

@dataclass
class ProfileTrace:
    """V and remainder samples along one outgoing ray (fixed sigma, theta)."""

    sigma: float
    theta: float
    eps: float
    dt: float                     # solver step underlying the samples
    t: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray

    @property
    def t0(self) -> float:
        return max(2.0, -2.0 * self.sigma)

    @property
    def t1(self) -> float:
        return max(1.0 / self.eps, -2.0 * self.sigma)

    @property
    def rho(self) -> np.ndarray:
        return self.V1 * self.K1 - self.V2 * self.K2

    def _lerp(self, arr: np.ndarray, t: float) -> float:
        if not self.t[0] - self.dt <= t <= self.t[-1] + self.dt:
            raise ValueError(f"t={t} outside the sampled range "
                             f"[{self.t[0]}, {self.t[-1]}]")
        return float(np.interp(t, self.t, arr))

    def values_at(self, t: float) -> tuple[float, float]:
        return self._lerp(self.V1, t), self._lerp(self.V2, t)

    def invariant_at(self, t: float) -> float:
        v1, v2 = self.values_at(t)
        return v1 * v1 - v2 * v2

    def to_csv(self, path) -> None:
        from .reporting import write_csv
        rows = zip(self.t, self.V1, self.V2, self.K1, self.K2, self.rho)
        write_csv(path, ("t", "V1", "V2", "K1", "K2", "rho"), rows)


class RayTraceCollector:
    """run_simulation sampler that builds ProfileTraces for several sigmas.

    Sampling starts once the foot point clears the origin (t + sigma >= h)
    and skips nothing afterwards; shared field views are computed once per
    sampled level.
    """

    def __init__(self, sigmas, theta: float, eps: float,
                 with_remainder: bool = True):
        self.sigmas = [float(s) for s in sigmas]
        self.theta = float(theta)
        self.omega = np.array([np.cos(theta), np.sin(theta)])
        self.eps = eps
        self.with_remainder = with_remainder
        self._rows: dict[float, list] = {s: [] for s in self.sigmas}
        self._dt = None

    def __call__(self, state: WaveState) -> None:
        self._dt = state.dt
        if state.t <= 0.0:
            return
        needs_rot = self.with_remainder and state.mode != "radial"
        fields = _LevelFields(state, with_rotation=needs_rot)
        for s in self.sigmas:
            r = state.t + s
            if r < state.h:
                continue
            x = r * self.omega
            v = fields.amplitude(x)
            if self.with_remainder:
                k = fields.remainder(x, state.t)
            else:
                k = (0.0, 0.0)
            self._rows[s].append((state.t, v[0], v[1], k[0], k[1]))

    def traces(self) -> list[ProfileTrace]:
        out = []
        for s in self.sigmas:
            rows = self._rows[s]
            if not rows:
                raise ValueError(f"no samples collected for sigma={s}")
            cols = [np.array(c) for c in zip(*rows)]
            out.append(ProfileTrace(sigma=s, theta=self.theta, eps=self.eps,
                                    dt=self._dt, t=cols[0], V1=cols[1],
                                    V2=cols[2], K1=cols[3], K2=cols[4]))
        return out


# -- the reduced ODE system ----------------------------------------------------

def _reduced_rhs(t, y):
    v1, v2 = y
    return (-v1 * v2 * v2 / (2.0 * t), -v1 * v1 * v2 / (2.0 * t))


def solve_reduced_ode(v10: float, v20: float, t_start: float, t_end: float,
                      t_eval=None, rtol: float = 1e-10):
    """Integrate the reduced profile system with the remainder dropped.

    Returns (t, V1, V2) arrays.  High-order adaptive integration; raises
    IntegrationError if the requested tolerance cannot be met.
    """
    if not t_start > 0:
        raise ValueError("t_start must be positive")
    sol = solve_ivp(_reduced_rhs, (t_start, t_end), (v10, v20),
                    method="DOP853", rtol=rtol, atol=1e-14, t_eval=t_eval,
                    dense_output=False)
    if not sol.success:
        raise IntegrationError(f"reduced-system integration failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


def closed_form_profile(v10: float, v20: float, t_start: float, t):
    """Exact solution of the reduced system by separation of variables.

    With m = v10^2 - v20^2 and P = V2^2, the substitution tau = log t turns
    the system into dP/dtau = -P (P + m), hence

        P(t) = P0 e^{-m L} / (1 + P0 (1 - e^{-m L}) / m),   L = log(t/t_start),

    with the m -> 0 limit P0 / (1 + P0 L).  Signs of V1, V2 never change.
    Returns (V1, V2) arrays matching the shape of t.
    """
    t = np.asarray(t, dtype=float)
    m = v10 * v10 - v20 * v20
    p0 = v20 * v20
    lam = np.log(t / t_start)
    if m == 0.0:
        g = lam
        decay = np.ones_like(lam)
    else:
        decay = np.exp(-m * lam)
        g = -np.expm1(-m * lam) / m
    p = p0 * decay / (1.0 + p0 * g)
    v2 = math.copysign(1.0, v20) * np.sqrt(p) if v20 != 0 else np.zeros_like(p)
    v1sq = p + m
    v1 = math.copysign(1.0, v10) * np.sqrt(np.maximum(v1sq, 0.0)) \
        if v10 != 0 else np.zeros_like(p)
    return v1, v2


def profile_invariant(v1, v2):
    """The conserved quantity V1^2 - V2^2 of the reduced system."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    out = v1 * v1 - v2 * v2
    return float(out) if out.ndim == 0 else out


# -- invariant estimators -------------------------------------------------------

def corrected_invariant(trace: ProfileTrace, t_cut: float
                        ) -> tuple[float, dict]:
    """Invariant estimate V(t0)^2 difference plus the correction integral.

    Computes  V1(t0)^2 - V2(t0)^2 + 2 int_{t0}^{t_cut} rho dt  by trapezoid
    on the sampled trace.  The tail beyond t_cut is not added; a power-law
    extrapolation bound for it is returned alongside.
    """
    t0 = trace.t0
    if trace.t[0] > t0 + 2 * trace.dt or trace.t[-1] < t_cut - 2 * trace.dt:
        raise ValueError(f"trace [{trace.t[0]:.3g}, {trace.t[-1]:.3g}] does not "
                         f"cover [t0={t0:.3g}, t_cut={t_cut:.3g}]")
    spacing = np.max(np.diff(trace.t))
    if spacing > 4.0 * trace.dt + 1e-12:
        raise ValueError(f"trace spacing {spacing:.3g} exceeds 4 dt = {4 * trace.dt:.3g}")

    ts = np.concatenate([[t0], trace.t[(trace.t > t0) & (trace.t < t_cut)], [t_cut]])
    rho = np.interp(ts, trace.t, trace.rho)
    integral = float(np.trapezoid(rho, ts))
    m0 = trace.invariant_at(t0)
    m_val = m0 + 2.0 * integral

    # crude tail bound: fit |rho| ~ t^p over the top half of the window and
    # extrapolate; only meaningful when the fitted decay is integrable
    sel = trace.t >= max(t0, 0.5 * t_cut)
    tail: dict = {"tail_exponent": float("nan"), "tail_bound": float("inf")}
    vals = np.abs(trace.rho[sel])
    if np.count_nonzero(vals > 0) >= 4:
        good = vals > 0
        p = np.polyfit(np.log(trace.t[sel][good]), np.log(vals[good]), 1)[0]
        tail["tail_exponent"] = float(p)
        if p < -1.1:
            rho_end = abs(float(np.interp(t_cut, trace.t, trace.rho)))
            tail["tail_bound"] = float(2.0 * rho_end * t_cut / (-1.0 - p))
    return m_val, tail


def leading_invariant(table: RadiationTable, eps: float, sigma: float,
                      theta: float) -> float:
    """eps^2 ((d_sigma F1)^2 - (d_sigma F2)^2) from a per-unit-amplitude table."""
    d1 = table.value_at(sigma, theta, 1, derivative=True)
    d2 = table.value_at(sigma, theta, 2, derivative=True)
    return eps * eps * (d1 * d1 - d2 * d2)


@dataclass(frozen=True)
class MEstimate:
    """Invariant estimators at one (sigma, theta, eps)."""

    sigma: float
    theta: float
    eps: float
    m_direct: float
    m_corrected: float
    m_leading: float

    @property
    def residual(self) -> float:
        return self.m_direct - self.m_leading


def write_mestimates(path, estimates) -> None:
    from .reporting import write_csv
    rows = [(e.sigma, e.theta, e.eps, e.m_direct, e.m_corrected,
             e.m_leading, e.residual) for e in estimates]
    write_csv(path, ("sigma", "theta", "eps", "m_direct", "m_corrected",
                     "m_leading", "residual"), rows)
