"""Leapfrog integration of the two-component cubic wave system.

The system is

    u1_tt - Laplace(u1) = -(d_t u2)^2 d_t u1,
    u2_tt - Laplace(u2) = -(d_t u1)^2 d_t u2,

in free mode the right-hand sides are dropped.  Discretization: 5-point
Laplacian (Cartesian) or cell-centered radial operator d_rr + (1/r) d_r with
even reflection across r = 0, three-level leapfrog in time.  The cubic term
needs d_t u at the current level, which the update itself produces; a
predictor (lagged one-sided difference) followed by two corrector passes
with the centered difference restores second order without an implicit
solve.

A state keeps three consecutive levels.  The *diagnosed* level is the middle
one, so the cached d_t u is always the centered difference and every
diagnostic (energies, profile sampling) is second-order accurate.  The
previous-level start at t = 0 is the exact second-order Taylor expansion
from the data, which makes the cached derivative equal eps*g exactly.

Point values of level fields come from WaveState.sample, the only code that
knows where the grid nodes sit: it builds one 4-node Lagrange stencil per
point and axis and applies it to every field it is given.

A ScenarioConfig is the whole description of a run: init_state and
run_simulation take the data, spacing, CFL number and horizon T from it and
nowhere else.  Boundaries are homogeneous Dirichlet on a domain sized for
that T, large enough that the support never reaches them (finite
propagation speed), so no boundary error enters any measurement.  All
integrals use numpy's pairwise summation over arrays in fixed index order,
so results are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import eval_sum, sum_value_grad_hess
from .config import CFL_LIMITS, ScenarioConfig

__all__ = [
    "WaveState",
    "EnergyTrace",
    "InstabilityError",
    "init_state",
    "run_simulation",
    "TRACE_DT",
]

# spacing in time units of the EnergyTrace records of run_simulation
TRACE_DT = 0.25


class InstabilityError(RuntimeError):
    """The scheme produced a non-finite value."""

    def __init__(self, t: float, location):
        super().__init__(f"non-finite field value at t={t:.6g}, grid index {location}")
        self.t = t
        self.location = location


@dataclass
class EnergyTrace:
    """Sampled energy diagnostics of one run.

    E1sq/E2sq are the squared energy norms (1/2) int |du_j|^2 dx, D is the
    dissipation integrand int (d_t u1)^2 (d_t u2)^2 dx and cum_D its time
    integral from 0, accumulated by a step-resolution trapezoid.
    """

    t: np.ndarray
    E1sq: np.ndarray
    E2sq: np.ndarray
    D: np.ndarray
    cum_D: np.ndarray

    @property
    def diff(self) -> np.ndarray:
        return self.E1sq - self.E2sq

    @property
    def total(self) -> np.ndarray:
        return self.E1sq + self.E2sq

    def to_csv(self, path) -> None:
        from .reporting import write_csv
        rows = zip(self.t, self.E1sq, self.E2sq, self.diff, self.total,
                   self.D, self.cum_D)
        write_csv(path, ("t", "E1sq", "E2sq", "diff", "sum",
                         "dissipation", "cum_dissipation"), rows)


class WaveState:
    """Two-component field on a grid, three consecutive time levels.

    Attributes of interest:
      mode        "cartesian-2d" or "radial"
      h, dt, t    spacing, time step, diagnosed time
      u_prev/u_curr/u_next   arrays (2, ...) at t-dt, t, t+dt
      dt_u        centered time derivative at the diagnosed level, (2, ...)
      xs          1D node coordinates (Cartesian axes) or cell centers r_i
      measure     cell measure of every integral: 2 pi r_i h (radial), h^2
      D           dissipation integrand at the diagnosed level
    """

    def __init__(self, mode, h, dt, xs, u_prev, u_curr, u_next, dt_u, nonlinear):
        self.mode = mode
        self.h = float(h)
        self.dt = float(dt)
        self.t = 0.0
        self.xs = xs
        self.u_prev = u_prev
        self.u_curr = u_curr
        self.u_next = u_next
        self.dt_u = dt_u
        self.nonlinear = bool(nonlinear)
        self.cum_dissipation = 0.0
        self.initial_energies = None        # set by init_state from exact data
        if self.mode == "radial":
            self.measure = 2.0 * np.pi * self.xs * self.h
            self._rinv = 1.0 / self.xs
        else:
            self.measure = self.h * self.h
        self.D = self.dissipation()

    # -- spatial operators -------------------------------------------------

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Discrete Laplacian of one component on the diagnosed geometry."""
        h2 = self.h * self.h
        if self.mode == "radial":
            lap = np.zeros_like(u)
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 \
                + (u[2:] - u[:-2]) * (self._rinv[1:-1] / (2.0 * self.h))
            # even ghost across r=0: u[-1 cell] = u[0] makes both terms equal
            lap[0] = 2.0 * (u[1] - u[0]) / h2
            lap[-1] = (-2.0 * u[-1] + u[-2]) / h2 \
                + (-u[-2]) * (self._rinv[-1] / (2.0 * self.h))
            return lap
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1] = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                           + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]) / h2
        return lap

    def _gradient4(self, u: np.ndarray):
        """Fourth-order gradient, for the energy functional and the ray amplitude.

        The higher order shrinks the slowly varying O(h^2) offset of the
        discrete energy, keeping conservation drift well inside tolerance at
        the default resolution.  Fields vanish identically near the outer
        boundary, so simple zero padding is exact there; the radial axis
        uses even-ghost values.
        """
        h12 = 12.0 * self.h
        if self.mode == "radial":
            ext = np.concatenate([u[1::-1], u, [0.0, 0.0]])   # even ghosts + Dirichlet
            return (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / h12
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[2:-2, :] = (u[:-4, :] - 8.0 * u[1:-3, :] + 8.0 * u[3:-1, :] - u[4:, :]) / h12
        gy[:, 2:-2] = (u[:, :-4] - 8.0 * u[:, 1:-3] + 8.0 * u[:, 3:-1] - u[:, 4:]) / h12
        return gx, gy

    def rotation(self, grad) -> np.ndarray:
        """Omega u = x1 d2 u - x2 d1 u of a Cartesian field u from its gradient."""
        X, Y = np.meshgrid(self.xs, self.xs, indexing="ij")
        return X * grad[1] - Y * grad[0]

    # -- diagnostics ---------------------------------------------------------

    def energies(self) -> tuple[float, float]:
        out = []
        for j in range(2):
            dsq = self.dt_u[j] ** 2
            if self.mode == "radial":
                dsq = dsq + self._gradient4(self.u_curr[j]) ** 2
            else:
                gx, gy = self._gradient4(self.u_curr[j])
                dsq = dsq + gx * gx + gy * gy
            out.append(0.5 * float(np.sum(dsq * self.measure)))
        return out[0], out[1]

    def dissipation(self) -> float:
        prod = self.dt_u[0] * self.dt_u[1]
        return float(np.sum(prod * prod * self.measure))

    # -- point sampling --------------------------------------------------------

    def sample(self, fields, x) -> np.ndarray:
        """Both components of each (2, *grid) array in fields at the point x.

        Returns shape (len(fields), 2).  One 4-node Lagrange stencil per axis
        serves every field: cubic interpolation in |x| over the cell centres
        r_i = (i + 1/2) h (radial), or in x1 and x2 over the nodes xs
        (Cartesian).
        """
        out = np.empty((len(fields), 2))
        n = len(self.xs)
        if self.mode == "radial":
            k0, w = _stencil(float(np.hypot(x[0], x[1])) / self.h - 0.5, n)
            for i, a in enumerate(fields):
                for j in range(2):
                    out[i, j] = a[j, k0:k0 + 4] @ w
            return out
        x0 = self.xs[0]
        i0, wx = _stencil((x[0] - x0) / self.h, n)
        j0, wy = _stencil((x[1] - x0) / self.h, n)
        for i, a in enumerate(fields):
            for j in range(2):
                out[i, j] = wx @ a[j, i0:i0 + 4, j0:j0 + 4] @ wy
        return out

    # -- time stepping -------------------------------------------------------

    def step(self) -> "WaveState":
        """Advance the diagnosed level by one dt (in place)."""
        dt, dt2 = self.dt, self.dt * self.dt
        top, mid = self.u_next, self.u_curr
        lin = np.empty_like(top)
        for j in range(2):
            lin[j] = 2.0 * top[j] - mid[j] + dt2 * self.laplacian(top[j])
        if self.nonlinear:
            # predictor: lagged one-sided derivative at the top level
            v = (top - mid) / dt
            new = np.empty_like(top)
            for _ in range(3):           # predictor + two corrector passes
                new[0] = lin[0] - dt2 * (v[1] * v[1]) * v[0]
                new[1] = lin[1] - dt2 * (v[0] * v[0]) * v[1]
                v = (new - mid) / (2.0 * dt)
            dt_new = v
        else:
            new = lin
            dt_new = (new - mid) / (2.0 * dt)

        for j in range(2):
            s = float(np.sum(new[j]))
            if not math.isfinite(s):
                bad = np.argwhere(~np.isfinite(new[j]))
                loc = tuple(bad[0]) if len(bad) else ()
                raise InstabilityError(self.t + dt, loc)

        self.u_prev = mid
        self.u_curr = top
        self.u_next = new
        self.dt_u = dt_new
        self.t += dt
        D = self.dissipation()
        self.cum_dissipation += 0.5 * dt * (self.D + D)
        self.D = D
        return self


def _stencil(p: float, n: int) -> tuple[int, np.ndarray]:
    """4-node Lagrange stencil for fractional index p on a grid of size n."""
    k0 = min(max(int(math.floor(p)) - 1, 0), n - 4)
    x = p - k0
    w = np.array([math.prod((x - j) / (i - j) for j in range(4) if j != i)
                  for i in range(4)])
    return k0, w


def init_state(config: ScenarioConfig, nonlinear: bool, *,
               dt: float | None = None) -> WaveState:
    """Build the t = 0 state of config.data for a run of length config.T.

    The domain reaches n = ceil((R0 + T) / h) + 3 cells out from the origin,
    so the support, expanding at unit speed, stays at least 2h away from the
    boundary for all t <= T.  dt defaults to config.cfl * h.
    """
    h = config.h
    data = config.data
    if dt is None:
        dt = config.cfl * h
    limit = CFL_LIMITS[config.mode] * h
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"dt={dt} violates the stability bound {limit}")

    eps = data.epsilon
    n = int(math.ceil((data.support_radius + config.T) / h)) + 3
    if config.mode == "radial":
        xs = (np.arange(n) + 0.5) * h
        pts = np.stack([xs, np.zeros_like(xs)], axis=-1)
    else:
        xs = (np.arange(2 * n + 1) - n) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X, Y], axis=-1)

    shape = pts.shape[:-1]
    u0 = np.zeros((2,) + shape)
    g0 = np.zeros((2,) + shape)
    e_init = []
    for j in (1, 2):
        fval, fgrad, _ = sum_value_grad_hess(data.position_data(j), pts)
        u0[j - 1] = eps * fval
        g0[j - 1] = eps * eval_sum(data.velocity_data(j), pts)
        e_init.append((j, fgrad))

    state = WaveState(config.mode, h, dt, xs,
                      u_prev=np.zeros_like(u0), u_curr=u0,
                      u_next=np.zeros_like(u0), dt_u=g0, nonlinear=nonlinear)
    # initial energies from exact nodal derivatives: cell sums of smooth
    # compactly supported integrands converge superalgebraically
    state.initial_energies = tuple(
        0.5 * float(np.sum((g0[j - 1] ** 2
                            + eps * eps * np.sum(fgrad * fgrad, axis=-1)) * state.measure))
        for j, fgrad in e_init)
    lap0 = np.stack([state.laplacian(u0[0]), state.laplacian(u0[1])])
    if nonlinear:
        # d_t u at t=0 is exactly eps*g, so the cubic term needs no iteration
        n0 = np.stack([-(g0[1] ** 2) * g0[0], -(g0[0] ** 2) * g0[1]])
        lap0 = lap0 + n0
    half = 0.5 * dt * dt
    state.u_prev = u0 - dt * g0 + half * lap0
    state.u_next = u0 + dt * g0 + half * lap0
    return state


def save_snapshot(state: WaveState, basepath) -> None:
    """Dump the diagnosed level as flat binary plus a JSON geometry sidecar.

    Writes basepath.bin (float64, C order: u1, u2, dt_u1, dt_u2 concatenated)
    and basepath.json describing mode, h, t and grid shape.
    """
    import json
    arr = np.concatenate([state.u_curr.ravel(), state.dt_u.ravel()])
    with open(f"{basepath}.bin", "wb") as fh:
        fh.write(arr.astype("<f8").tobytes())
    sidecar = {
        "mode": state.mode,
        "h": state.h,
        "dt": state.dt,
        "t": state.t,
        "shape": list(state.u_curr.shape[1:]),
        "origin": float(state.xs[0]),
        "fields": ["u1", "u2", "dt_u1", "dt_u2"],
        "dtype": "<f8",
    }
    with open(f"{basepath}.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_simulation(config: ScenarioConfig, nonlinear: bool, *,
                   samplers=(), dt: float | None = None) -> EnergyTrace:
    """Advance config.data to config.T, sampling at the nearest grid times.

    samplers is a sequence of (times, callback) pairs; each callback receives
    the read-only state whenever the diagnosed time passes one of its
    requested times (mapped to the nearest step).  The returned EnergyTrace
    is sampled every TRACE_DT time units plus the initial and final levels.
    """
    state = init_state(config, nonlinear, dt=dt)
    n_steps = int(math.ceil(config.T / state.dt - 1e-9))

    requests: dict[int, list] = {}
    for times, callback in samplers:
        for t_req in times:
            if t_req > config.T + state.dt:
                raise ValueError(f"requested sample time {t_req} exceeds T={config.T}")
            idx = min(n_steps, max(0, int(round(t_req / state.dt))))
            requests.setdefault(idx, []).append(callback)

    stride = max(1, int(round(TRACE_DT / state.dt)))
    rows = []

    def record():
        e1, e2 = state.energies()
        rows.append((state.t, e1, e2, state.D, state.cum_dissipation))

    for cb in requests.get(0, ()):
        cb(state)
    record()
    for n in range(1, n_steps + 1):
        state.step()
        for cb in requests.get(n, ()):
            cb(state)
        if n % stride == 0 or n == n_steps:
            record()
    cols = list(zip(*rows))
    return EnergyTrace(t=np.array(cols[0]), E1sq=np.array(cols[1]),
                       E2sq=np.array(cols[2]), D=np.array(cols[3]),
                       cum_D=np.array(cols[4]))
