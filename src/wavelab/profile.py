"""Null-ray profiles of the wave field and the scattering invariant.

Along an outgoing ray x = (t + sigma) omega the rescaled derivative
amplitude of each component is

    U_j = (1/2) (d_r - d_t) (r^{1/2} u_j)
        = (1/2) (r^{1/2} d_r u_j + u_j / (2 r^{1/2}) - r^{1/2} d_t u_j),

and V_j(t; sigma, omega) = U_j at the foot point.  The pair (V_1, V_2)
obeys, exactly along the true flow,

    d_t V_1 = -V_1 V_2^2 / (2 t) + K_1,
    d_t V_2 = -V_1^2 V_2 / (2 t) + K_2,

where K_j is the remainder H_j at the foot point.  On a radial state,
where the angular term Omega^2 u_j of the general remainder is 0,

    H_j = (1/2) ( r^{1/2} (d_t u_{3-j})^2 d_t u_j + U_{3-j}^2 U_j / t )
          - u_j / (8 r^{3/2}).

Dropping K gives the reduced system whose invariant V_1^2 - V_2^2 is
exactly conserved; with K kept, d/dt (V_1^2 - V_2^2) = 2 rho with
rho = V_1 K_1 - V_2 K_2, which is the basis of the corrected invariant
estimate.

V_j and H_j are measured in one place: RayTraceCollector, a run_simulation
sampler of radial states, where every angle gives the same profile.  At
each sample time one call of the kernel library's radial_sample, the path
WaveState.sample takes, reads u, d_t u and the fourth-order d_r u at every
foot point |x| = t + sigma, by one 4-point Lagrange (cubic) stencil per
point, with d_r u differenced on the stencil's cells alone, and writes them
straight into the collector's packed storage.  A sample stores these raw
values; the collector's traces() evaluates U_j and H_j over a whole trace
at once.  Every field holds both components on axis 0, as the solver's
levels do, so each formula above runs once for both, with the other
component read through [::-1].  A foot point past the grid or inside a
light-cone window raises ValueError, with WaveState.sample's messages.
Traces interpolate linearly in time between stored samples.  Any other
point read of a state, in either mode, calls WaveState.sample itself.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .radiation import RadiationTable
from .solver import WaveState

__all__ = [
    "ProfileTrace",
    "RayTraceCollector",
    "solve_reduced_ode",
    "closed_form_profile",
    "profile_invariant",
    "corrected_invariant",
    "leading_invariant",
    "MEstimate",
]


class IntegrationError(RuntimeError):
    pass


# -- traces along rays ---------------------------------------------------------

@dataclass
class ProfileTrace:
    """V and remainder samples along one outgoing ray (fixed sigma)."""

    sigma: float
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

    def to_csv(self):
        """The (header, rows) of the profile_trace CSV."""
        return (("t", "V1", "V2", "K1", "K2", "rho"),
                zip(self.t, self.V1, self.V2, self.K1, self.K2, self.rho))


class RayTraceCollector:
    """run_simulation sampler that builds ProfileTraces for several sigmas
    from radial states; a Cartesian state raises ValueError.

    The one foot-point rule: a (t, sigma) sample is taken when t > 0 and
    t + sigma >= h, so sampling starts once the foot point clears the origin
    and skips nothing afterwards, at the state's t = n dt, where the refusals
    in scenarios predict the samples.  Since t + sigma grows with sigma, the
    rays a level samples are the first m of the sigmas from the largest
    down.  A level is one call of the kernel library's radial_sample, after
    the state's refusals, at their foot points, which writes u, d_t u and
    d_r u of both components at each straight into the collector's packed
    storage; the level's t is stored once.  traces() evaluates U and K over
    all of a sigma's samples at once.  A repeated sigma raises ValueError.
    """

    def __init__(self, sigmas):
        self.sigmas = [float(s) for s in sigmas]
        if len(set(self.sigmas)) < len(self.sigmas):
            raise ValueError("repeated sigma: " + ", ".join(f"{s:g}" for s in self.sigmas))
        self._descending = sorted(self.sigmas, reverse=True)
        # the foot points of a level, read by the kernel at their address
        self._radii = np.empty(len(self.sigmas))
        self._radii_address = self._radii.ctypes.data
        # per level its t, and u, d_t u and d_r u of both components at its m
        # foot points, 6 m packed floats as radial_sample writes them: a
        # (3, 2, m) array, the rays in descending sigma; a level's floats are
        # appended as zero bytes, 6 * 8 per ray, which the kernel overwrites
        self._times, self._values = array("d"), array("d")
        self._zeros = memoryview(bytes(6 * 8 * len(self.sigmas)))
        self._dt, self._h = None, math.inf      # no level sampled yet

    @staticmethod
    def samples_at(t, sigma: float, h: float):
        """The foot-point rule, for a time t or an array of times."""
        return (t > 0) & (t + sigma >= h)

    def __call__(self, state: WaveState) -> None:
        if state.mode != "radial":
            raise ValueError(f"ray profiles are sampled in radial mode, not {state.mode}")
        self._dt, self._h, t = state.dt, state.h, state.t
        radii, m = self._radii, 0
        for s in self._descending:
            if not self.samples_at(t, s, state.h):
                break
            radii[m] = t + s
            m += 1
        if not m:
            return
        level = state._radial_level(radii[m - 1], radii[0])
        values = self._values
        values.frombytes(self._zeros[:6 * 8 * m])
        address, length = values.buffer_info()
        state._sample(level, self._radii_address, m, state.h,
                      address + 8 * (length - 6 * m))
        self._times.append(t)

    def traces(self) -> list[ProfileTrace]:
        times, values = np.frombuffer(self._times), np.frombuffer(self._values)
        # per level the rays it sampled, and where its values start
        live = [self.samples_at(times, s, self._h) for s in self._descending]
        m = np.sum(live, axis=0, dtype=int)
        start = np.cumsum(6 * m) - 6 * m
        out = []
        for s in self.sigmas:
            rank = self._descending.index(s)
            rows = live[rank]
            if not rows.any():
                raise ValueError(f"no samples collected for sigma={s}")
            t, first, stride = times[rows], start[rows] + rank, m[rows]
            # (2, samples) each: u, d_t u, d_r u; the other component through [::-1]
            u, ut, ur = np.stack([values[first + k * stride] for k in range(6)]).reshape(3, 2, -1)
            r = t + s
            sq = np.sqrt(r)
            U = 0.5 * (sq * ur + 0.5 * u / sq - sq * ut)
            K = (0.5 * (sq * ut[::-1] * ut[::-1] * ut + U[::-1] * U[::-1] * U / t)
                 - u / (8.0 * r * sq))
            out.append(ProfileTrace(s, self._dt, t, U[0], U[1], K[0], K[1]))
        return out


# -- the reduced ODE system ----------------------------------------------------

def _reduced_rhs(t, y):
    v1, v2 = y
    return (-v1 * v2 * v2 / (2.0 * t), -v1 * v1 * v2 / (2.0 * t))


def solve_reduced_ode(v10: float, v20: float, t_start: float, t_end: float,
                      t_eval=None):
    """Integrate the reduced profile system with the remainder dropped.

    Returns (t, V1, V2) arrays.  High-order adaptive integration; raises
    IntegrationError if the requested tolerance cannot be met.  SciPy is
    imported here, so that importing wavelab does not load it.
    """
    from scipy.integrate import solve_ivp

    if not t_start > 0:
        raise ValueError("t_start must be positive")
    sol = solve_ivp(_reduced_rhs, (t_start, t_end), (v10, v20),
                    method="DOP853", rtol=1e-10, atol=1e-14, t_eval=t_eval,
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
    integral = float((np.diff(ts) * (rho[1:] + rho[:-1]) / 2.0).sum())   # trapezoid rule
    return trace.invariant_at(t0) + 2.0 * integral


def leading_invariant(table: RadiationTable, eps: float, sigma: float) -> float:
    """eps^2 ((d_sigma F1)^2 - (d_sigma F2)^2), dF interpolated linearly in
    sigma on a one-angle, per-unit-amplitude table: 0 above the support
    radius; ValueError off the grid inside the support (no extrapolation)
    or on a table of more angles."""
    if len(table.theta_grid) != 1:
        raise ValueError(f"leading_invariant reads a one-angle table, "
                         f"not {len(table.theta_grid)} angles")
    if sigma > table.support_radius:
        return 0.0
    sg = table.sigma_grid
    if sigma < sg[0] - 1e-12:
        raise ValueError(f"sigma={sigma} below the table grid (starts at {sg[0]})")
    if sigma > sg[-1] + 1e-12:
        raise ValueError(f"sigma={sigma} above the table grid (ends at {sg[-1]})")
    i = int(np.clip(np.searchsorted(sg, sigma) - 1, 0, len(sg) - 2))
    ws = min(max((sigma - sg[i]) / (sg[i + 1] - sg[i]), 0.0), 1.0)
    d1, d2 = (1 - ws) * table.dF[:, i, 0] + ws * table.dF[:, i + 1, 0]
    return float(eps * eps * (d1 * d1 - d2 * d2))


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

