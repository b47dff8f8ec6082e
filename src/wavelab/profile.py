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

Point values come from WaveState.sample, which builds one 4-point Lagrange
(cubic) stencil per point and applies it to every sampled field; traces
interpolate linearly in time between stored samples.
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


# -- point sampling -----------------------------------------------------------

def _level_fields(state: WaveState, with_rotation: bool = False) -> list[np.ndarray]:
    """The (2, *grid) arrays a ray sample reads from the diagnosed level.

    [u, d_t u, d_r u] in radial mode; [u, d_t u, d_1 u, d_2 u] in Cartesian
    mode, plus Omega^2 u when with_rotation.  Gradients use the solver's
    fourth-order stencils: the ray amplitude multiplies d_r u by r^{1/2}, so
    at large foot-point radii a second-order gradient error would dominate
    every profile measurement.
    """
    u = state.u_curr
    grads = [state._gradient4(u[j]) for j in range(2)]
    if state.mode == "radial":
        return [u, state.dt_u, np.stack(grads)]
    fields = [u, state.dt_u, np.stack([g[0] for g in grads]),
              np.stack([g[1] for g in grads])]
    if with_rotation:
        fields.append(np.stack([state.rotation(state._gradient4(state.rotation(g)))
                                for g in grads]))
    return fields


def _ray_values(state: WaveState, fields, x):
    """|x| and the 2-vectors u, d_t u, d_r u, Omega^2 u at x (|x| >= h).

    Omega^2 u is zero in radial mode and None when fields lack it.
    """
    r = float(np.hypot(x[0], x[1]))
    if r < state.h:
        raise ValueError(f"point with |x|={r:.3g} < h={state.h:.3g} is too close "
                         "to the origin for the ray amplitude")
    v = state.sample(fields, x)
    if state.mode == "radial":
        return r, v[0], v[1], v[2], np.zeros(2)
    ur = (x[0] * v[2] + x[1] * v[3]) / r
    return r, v[0], v[1], ur, (v[4] if len(v) > 4 else None)


def _amplitude(r: float, u, ut, ur) -> np.ndarray:
    """U_1, U_2 from the values sampled at a point of radius r."""
    sq = math.sqrt(r)
    return 0.5 * (sq * ur + 0.5 * u / sq - sq * ut)


def _remainder(r: float, t: float, u, ut, ang, U) -> np.ndarray:
    """H_1, H_2 from the values sampled at radius r and the amplitudes U there."""
    sq = math.sqrt(r)
    out = np.empty(2)
    # scalar ** 2 on purpose: numpy squares arrays by multiplication but
    # scalars by pow(), and the two differ in the last bit for some values
    for j in range(2):
        k = 1 - j
        out[j] = 0.5 * (sq * ut[k] ** 2 * ut[j] + U[k] ** 2 * U[j] / t) \
            - (4.0 * ang[j] + u[j]) / (8.0 * r * sq)
    return out


def field_value(state: WaveState, x) -> tuple[float, float]:
    """u_1, u_2 of the diagnosed level at the point x, by cubic interpolation."""
    u = state.sample([state.u_curr], x)[0]
    return float(u[0]), float(u[1])


def outgoing_amplitude(state: WaveState, x) -> tuple[float, float]:
    """U_1, U_2 of the diagnosed level at a point x with |x| >= h."""
    r, u, ut, ur, _ = _ray_values(state, _level_fields(state), x)
    U = _amplitude(r, u, ut, ur)
    return float(U[0]), float(U[1])


def sample_profile(state: WaveState, sigma: float, omega) -> tuple[float, float]:
    """V_1, V_2 at (sigma, omega): the amplitude at the foot point (t+sigma) omega."""
    omega = np.asarray(omega, dtype=float)
    r = state.t + sigma
    if r < state.h:
        raise ValueError(f"foot point t+sigma={r:.3g} < h; off the usable grid")
    return outgoing_amplitude(state, r * omega)


def remainder_term(state: WaveState, x) -> tuple[float, float]:
    """H_1, H_2 of the diagnosed level at x (rotational stencils in 2D mode)."""
    if state.t <= 0:
        raise ValueError("remainder term needs t > 0")
    r, u, ut, ur, ang = _ray_values(state, _level_fields(state, with_rotation=True), x)
    h = _remainder(r, state.t, u, ut, ang, _amplitude(r, u, ut, ur))
    return float(h[0]), float(h[1])


# -- traces along rays ---------------------------------------------------------

@dataclass
class ProfileTrace:
    """V and remainder samples along one outgoing ray (fixed sigma, theta)."""

    sigma: float
    theta: float
    dt: float                     # solver step underlying the samples
    t: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray

    @staticmethod
    def reference_time(sigma: float) -> float:
        """t0 of a trace at this sigma: max(2, -2 sigma)."""
        return max(2.0, -2.0 * sigma)

    @property
    def t0(self) -> float:
        return self.reference_time(self.sigma)

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
    and skips nothing afterwards.  The sampled arrays are built once per
    level, and each (t, sigma) sample reads them through one stencil and
    evaluates the amplitude once.
    """

    def __init__(self, sigmas, theta: float, with_remainder: bool = True):
        self.sigmas = [float(s) for s in sigmas]
        self.theta = float(theta)
        self.omega = np.array([np.cos(theta), np.sin(theta)])
        self.with_remainder = with_remainder
        self._rows: dict[float, list] = {s: [] for s in self.sigmas}
        self._dt = None

    def __call__(self, state: WaveState) -> None:
        self._dt = state.dt
        if state.t <= 0.0:
            return
        fields = _level_fields(state, with_rotation=self.with_remainder)
        for s in self.sigmas:
            r = state.t + s
            if r < state.h:
                continue
            r, u, ut, ur, ang = _ray_values(state, fields, r * self.omega)
            v = _amplitude(r, u, ut, ur)
            if self.with_remainder:
                k = _remainder(r, state.t, u, ut, ang, v)
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
            out.append(ProfileTrace(sigma=s, theta=self.theta, dt=self._dt,
                                    t=cols[0], V1=cols[1], V2=cols[2],
                                    K1=cols[3], K2=cols[4]))
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

def corrected_invariant(trace: ProfileTrace, t_cut: float) -> float:
    """Invariant estimate V(t0)^2 difference plus the correction integral.

    Computes  V1(t0)^2 - V2(t0)^2 + 2 int_{t0}^{t_cut} rho dt  by trapezoid
    on the sampled trace.  The tail beyond t_cut is not added.
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
    return trace.invariant_at(t0) + 2.0 * integral


def leading_invariant(table: RadiationTable, eps: float, sigma: float,
                      theta: float) -> float:
    """eps^2 ((d_sigma F1)^2 - (d_sigma F2)^2) from a per-unit-amplitude table."""
    d1 = table.value_at(sigma, theta, 1)
    d2 = table.value_at(sigma, theta, 2)
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
