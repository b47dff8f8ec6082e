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

A step allocates no field arrays.  It advances both components at once on
(2, ...) arrays and writes every intermediate with numpy's out= into
buffers allocated once per state: the three levels and dt_u, a work buffer
that holds the Laplacian, then dt^2 times it, then the linear part of a
nonlinear update, the Laplacian's scratch (contiguous interior arrays in
Cartesian mode), and one component's dissipation integrand.  The oldest
level's buffer receives the new level; during a nonlinear step it first
serves as scratch for the cubic term.  laplacian(u, out) writes the stacked
Laplacian of u into out; init_state uses it for the first level too.
Every operation keeps the order of the one-component formula,
so results are bit-identical to stepping the components one by one.  The
arrays a sampler sees are these buffers: it must copy what it keeps.

Radial windows.  Every radial state keeps its levels in buffers allocated
once for the whole domain and advances only the global cells [lo, hi);
u_prev, u_curr, u_next, dt_u, xs and measure are views of them, and each
step writes its new level over the oldest one.

* the outer edge follows the numerical support: hi grows by one cell, up
  to the domain's n, whenever either of the last two held cells is nonzero
  at the top or middle level.  The stencil reaches one cell per step, so
  every cell past hi - 2 is exactly 0.0 when every cell is stepped too, and
  so is every sampled field (u, d_t u and the fourth-order d_r u) past hi;
  WaveState.sample reads zeros there;
* the inner edge lo stays at the origin unless the run is given a cone.
  A ray profile at sigma >= cone depends only on the cells with
  r >= t + cone, so a light-cone window reads a zero left neighbour at lo.
  The error of that cut travels one cell per step, a ray only dt/h cells,
  so lo follows the numerical domain of dependence: it moves up one cell
  per step and ends CONE_REACH cells below the last sample's stencil, for
  any CFL number and horizon.  The margin, (h/dt - 1)(T - t) length units,
  is 1.2 (T - t) at the default CFL of 0.45, so the first half of a long
  run holds every cell out from the origin.

Both edges are exact by construction: a whole-disk window steps
bit-identically to stepping every cell, and samples at sigma >= cone equal
the whole-disk run's.  WaveState.sample refuses a point with |x| < t + cone,
and a light-cone window raises when stepped past the step count it was
sized for.  Energies and dissipation sum over the whole domain, zeros past
hi, so numpy's pairwise sum groups them as if every cell were stepped; over
a light-cone window they mean nothing, so such a state raises on them and
its run_simulation returns no EnergyTrace.

A ScenarioConfig is the whole description of a run: init_state and
run_simulation take the data, spacing, CFL number and horizon T from it and
nowhere else.  There is no dt override: the step is always cfl * h, and a
caller that needs another step sets cfl.  Boundaries are homogeneous
Dirichlet on a domain sized for that T: the physical support never reaches
them, but the scheme's numerical precursor, which runs ahead of the front,
does (see README).  All integrals use numpy's pairwise summation over arrays
in fixed index order, so results are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import initial_values
from .config import ScenarioConfig

__all__ = [
    "WaveState",
    "EnergyTrace",
    "InstabilityError",
    "init_state",
    "run_simulation",
    "TRACE_DT",
    "CONE_REACH",
]

# spacing in time units of the EnergyTrace records of run_simulation
TRACE_DT = 0.25

# cells a light-cone window keeps below the last sample's stencil at the
# final step: a sample reads two cells below its stencil (the gradient) and
# one level ahead (d_t u); floor and rounding of the foot point take up to
# three more
CONE_REACH = 8


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
      cone        None for the whole disk, else the smallest ray sigma of a
                  light-cone window (radial only; see the module docstring)
      lo, hi      the global cells [lo, hi) held; the arrays above are views
                  of them in buffers sized for the whole domain (a Cartesian
                  state holds every cell)

    step() overwrites the levels, dt_u and the work buffers in place (see
    the module docstring), so a caller that keeps any of them across a step
    must copy it.
    """

    def __init__(self, mode, h, dt, xs, u_prev, u_curr, u_next, dt_u, nonlinear):
        self.mode = mode
        self.h = float(h)
        self.dt = float(dt)
        self.t = 0.0
        self.nonlinear = bool(nonlinear)
        self.cum_dissipation = 0.0
        self.initial_energies = None        # set by init_state from exact data
        self.cone = None
        self._levels, self._dt_u = [u_prev, u_curr, u_next], dt_u
        self._n = len(xs)
        # work buffers (see the module docstring): the Laplacian, windowed
        # like the levels; its scratch, windowed too (radial) or the interior's
        # neighbour sum and centre term (Cartesian); one component's
        # dissipation integrand over the whole domain
        self._work = np.zeros_like(u_curr)
        self._padded = np.zeros(u_curr.shape[1:])
        if self.mode == "radial":
            # r_i, the cell measure 2 pi r_i h, and 1 / (2 h r_i) of the
            # centred first difference
            self._geometry = np.stack([xs, 2.0 * np.pi * xs * self.h,
                                       (1.0 / xs) / (2.0 * self.h)])
            self._scratch = np.zeros_like(u_curr)
        else:
            self.xs, self.measure = xs, self.h * self.h
            self._tmp = np.zeros((2, 2, self._n - 2, self._n - 2))
        self._lo_last, self._steps_left = 0, math.inf   # a whole-disk window never closes
        self.lo = self.hi = None
        self._set_window(0, self._n)
        self.D = self.dissipation()

    # -- spatial operators -------------------------------------------------

    def laplacian(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Discrete Laplacian of both components of u, written into out.

        u and out are (2, ...) arrays on the held window; out must not share
        memory with u.  Each term keeps the order of the one-component
        formula, so both components come out as if computed one by one.
        """
        h2 = self.h * self.h
        if self.mode == "radial":
            # (u[2:] - 2 u[1:-1] + u[:-2]) / h^2 + (u[2:] - u[:-2]) * rinv / (2h)
            inner, diff, c = out[:, 1:-1], self._tmp[:, 1:-1], self._rcoef
            np.multiply(2.0, u[:, 1:-1], out=inner)
            np.subtract(u[:, 2:], inner, out=inner)
            np.add(inner, u[:, :-2], out=inner)
            np.divide(inner, h2, out=inner)
            np.subtract(u[:, 2:], u[:, :-2], out=diff)
            np.multiply(diff, c[1:-1], out=diff)
            np.add(inner, diff, out=inner)
            if self.lo == 0:
                # even ghost across r=0: u[-1 cell] = u[0] makes both terms equal
                out[:, 0] = 2.0 * (u[:, 1] - u[:, 0]) / h2
            else:
                # inner edge of a light-cone window: zero left neighbour
                out[:, 0] = (u[:, 1] - 2.0 * u[:, 0]) / h2 + u[:, 1] * c[0]
            out[:, -1] = (-2.0 * u[:, -1] + u[:, -2]) / h2 + (-u[:, -2]) * c[-1]
            return out
        # the interior goes through contiguous scratch: strided out= into
        # out[:, 1:-1, 1:-1] at every operation is slower
        acc, centre = self._tmp
        np.add(u[:, 2:, 1:-1], u[:, :-2, 1:-1], out=acc)
        np.add(acc, u[:, 1:-1, 2:], out=acc)
        np.add(acc, u[:, 1:-1, :-2], out=acc)
        np.multiply(4.0, u[:, 1:-1, 1:-1], out=centre)
        np.subtract(acc, centre, out=acc)
        np.divide(acc, h2, out=acc)
        out[:, 1:-1, 1:-1] = acc
        out[:, 0] = out[:, -1] = out[:, :, 0] = out[:, :, -1] = 0.0   # Dirichlet ring
        return out

    def _gradient4(self, u: np.ndarray):
        """Fourth-order gradient, for the energy functional and the ray amplitude.

        The higher order shrinks the slowly varying O(h^2) offset of the
        discrete energy, keeping conservation drift well inside tolerance at
        the default resolution.  Fields are 0.0 past a window's outer edge
        and the wall is Dirichlet, so zero padding is exact there; the radial
        axis uses even-ghost values, and the inner edge of a light-cone
        window zeros (wrong there, but no sample reads those cells).
        """
        h12 = 12.0 * self.h
        if self.mode == "radial":
            if self.lo == 0:
                ext = np.concatenate([u[1::-1], u, [0.0, 0.0]])   # even ghosts + Dirichlet
            else:
                ext = np.concatenate([[0.0, 0.0], u, [0.0, 0.0]])
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

    def _require_whole_disk(self, what: str) -> None:
        if self.cone is not None:
            raise ValueError(f"{what} over a light-cone window mean nothing; "
                             "run without cone")

    def energies(self) -> tuple[float, float]:
        self._require_whole_disk("energies")
        out = []
        for j in range(2):
            dsq = self.dt_u[j] ** 2
            if self.mode == "radial":
                dsq = dsq + self._gradient4(self.u_curr[j]) ** 2
            else:
                gx, gy = self._gradient4(self.u_curr[j])
                dsq = dsq + gx * gx + gy * gy
            out.append(0.5 * self._domain_sum(dsq * self.measure))
        return out[0], out[1]

    def dissipation(self) -> float:
        self._require_whole_disk("dissipation integrals")
        prod = self._padded[:self.hi]     # lo == 0; zeros past hi, which never shrinks
        np.multiply(self.dt_u[0], self.dt_u[1], out=prod)
        np.multiply(prod, prod, out=prod)
        np.multiply(prod, self.measure, out=prod)
        return float(np.sum(self._padded))

    def _domain_sum(self, held: np.ndarray) -> float:
        """Sum over all n cells, zeros past hi: numpy's pairwise grouping
        depends on the length, so this groups as stepping every cell does."""
        if self.hi < self._n:
            self._padded[:self.hi] = held      # hi never shrinks: zeros past it
            held = self._padded
        return float(np.sum(held))

    # -- point sampling --------------------------------------------------------

    def sample(self, fields, x) -> np.ndarray:
        """Both components of each (2, *grid) array in fields at the point x.

        Returns shape (len(fields), 2).  One 4-node Lagrange stencil per axis
        serves every field: cubic interpolation in |x| over the cell centres
        r_i = (i + 1/2) h (radial), or in x1 and x2 over the nodes xs
        (Cartesian).  A radial window builds the stencil on the global grid,
        so its weights are the whole disk's; it reads zeros past its outer
        edge and, with a cone, refuses a point with |x| < t + cone.
        """
        out = np.empty((len(fields), 2))
        if self.mode == "radial":
            r = float(np.hypot(x[0], x[1]))
            if self.cone is not None and r < self.t + self.cone - 1e-6 * self.h:
                raise ValueError(f"point |x|={r:.6g} lies inside the light-cone window's "
                                 f"t + cone = {self.t + self.cone:.6g}")
            k0, w = _stencil(r / self.h - 0.5, self._n)
            k0 -= self.lo
            for i, a in enumerate(fields):
                seg = a[:, k0:k0 + 4]
                if seg.shape[1] < 4:        # past the window's outer edge: all 0.0
                    seg = np.concatenate([seg, np.zeros((2, 4 - seg.shape[1]))], axis=1)
                for j in range(2):
                    out[i, j] = seg[j] @ w
            return out
        x0 = self.xs[0]
        i0, wx = _stencil((x[0] - x0) / self.h, self._n)
        j0, wy = _stencil((x[1] - x0) / self.h, self._n)
        for i, a in enumerate(fields):
            for j in range(2):
                out[i, j] = wx @ a[j, i0:i0 + 4, j0:j0 + 4] @ wy
        return out

    # -- time stepping -------------------------------------------------------

    def step(self) -> "WaveState":
        """Advance the diagnosed level by one dt (in place)."""
        if self._steps_left == 0:
            raise ValueError("a light-cone window ends at the step count it was "
                             "opened for")
        dt, dt2 = self.dt, self.dt * self.dt
        top, mid, v = self.u_next, self.u_curr, self.dt_u
        # the new level overwrites the oldest one, which no step reads
        new = self._levels[0][:, self.lo:self.hi]
        # (2 top - mid) + dt^2 lap(top): the new level of a free step; a
        # nonlinear step keeps it in the work buffer and uses new as scratch
        lin = np.multiply(self.laplacian(top, self._lap), dt2, out=self._lap)
        np.multiply(2.0, top, out=new)
        np.subtract(new, mid, out=new)
        np.add(new, lin, out=lin if self.nonlinear else new)
        if self.nonlinear:
            # predictor: lagged one-sided derivative at the top level
            np.subtract(top, mid, out=v)
            np.divide(v, dt, out=v)
            for _ in range(3):           # predictor + two corrector passes
                # new_j = lin_j - (dt2 * (v_k * v_k)) * v_j, k the other component
                np.multiply(v[::-1], v[::-1], out=new)
                np.multiply(dt2, new, out=new)
                np.multiply(new, v, out=new)
                np.subtract(lin, new, out=new)
                np.subtract(new, mid, out=v)
                np.divide(v, 2.0 * dt, out=v)
        else:
            np.subtract(new, mid, out=v)
            np.divide(v, 2.0 * dt, out=v)

        if not np.isfinite(new.sum(axis=1)).all():    # a NaN or inf in a component
            bad = np.argwhere(~np.isfinite(new))[:, 1:]
            bad[:, 0] += self.lo                # a global index, also in a window
            raise InstabilityError(self.t + dt, tuple(bad[0]) if len(bad) else ())

        self._levels.append(self._levels.pop(0))
        self.u_prev, self.u_curr, self.u_next = mid, top, new
        self.t += dt
        self._steps_left -= 1
        self._move_window()
        if self.cone is None:
            D = self.dissipation()
            self.cum_dissipation += 0.5 * dt * (self.D + D)
            self.D = D
        return self

    # -- radial window -------------------------------------------------------

    def _open_window(self, cone: float | None, n_steps: int) -> None:
        """Hold the cells up to the support's edge (radial).  With a cone, lo
        moves up one cell per step and, n_steps steps from now, stands
        CONE_REACH cells below the stencil of a sample at |x| = t + cone."""
        if cone is not None:
            self.cone = float(cone)
            self.D = self.cum_dissipation = None
            self._steps_left = n_steps
            foot = (n_steps * self.dt + self.cone) / self.h - 0.5
            self._lo_last = _stencil(foot, self._n)[0] - CONE_REACH
        held = np.zeros(self._n, dtype=bool)
        for a in (*self._levels, self._dt_u):
            held |= a.any(axis=0)
        nonzero = np.flatnonzero(held)
        last = int(nonzero[-1]) if len(nonzero) else 0
        self._set_window(0, min(max(last + 3, 4), self._n))
        self._move_window()

    def _move_window(self) -> None:
        """Grow hi past a nonzero edge cell; move a cone's lo up one cell per step."""
        hi = self.hi
        if hi < self._n and (self.u_next[:, -2:].any() or self.u_curr[:, -2:].any()):
            hi += 1
        lo = max(self._lo_last - self._steps_left, 0)
        self._set_window(min(lo, hi - 4), hi)     # a stencil's worth at least

    def _set_window(self, lo: int, hi: int) -> None:
        """Hold the global cells [lo, hi): point the views into the buffers.

        Steps write only held cells and hi never falls, so the buffers are
        0.0 past hi; lo never falls either, so no cell below it is read.
        """
        if (lo, hi) == (self.lo, self.hi):
            return
        self.lo, self.hi = lo, hi
        self.u_prev, self.u_curr, self.u_next, self.dt_u, self._lap = (
            a[:, lo:hi] for a in (*self._levels, self._dt_u, self._work))
        if self.mode == "radial":
            self.xs, self.measure, self._rcoef = self._geometry[:, lo:hi]
            self._tmp = self._scratch[:, lo:hi]


def _stencil(p: float, n: int) -> tuple[int, np.ndarray]:
    """4-node Lagrange stencil for fractional index p on a grid of size n."""
    k0 = min(max(int(math.floor(p)) - 1, 0), n - 4)
    x = p - k0
    w = np.array([math.prod((x - j) / (i - j) for j in range(4) if j != i)
                  for i in range(4)])
    return k0, w


def init_state(config: ScenarioConfig, nonlinear: bool, *,
               cone: float | None = None) -> WaveState:
    """Build the t = 0 state of config.data for a run of length config.T.

    The domain reaches n = ceil((R0 + T) / h) + 3 cells out from the origin,
    so the physical support, expanding at unit speed, stays at least 2h away
    from the boundary for all t <= T.  The step is dt = config.cfl * h, which
    ScenarioConfig keeps inside the stability bound.  A radial state holds
    the window up to its numerical support; a cone (radial mode only) makes
    it a light-cone window for rays at sigma >= cone, sized for the
    run_simulation steps to config.T.
    """
    if cone is not None and config.mode != "radial":
        raise ValueError(f"a light-cone window needs radial mode, not {config.mode}")
    h = config.h
    data = config.data
    dt = config.cfl * h

    n = int(math.ceil((data.support_radius + config.T) / h)) + 3
    if config.mode == "radial":
        xs = (np.arange(n) + 0.5) * h
    else:
        xs = (np.arange(2 * n + 1) - n) * h
    u0, g0, grad_sq = _initial_fields(data, config.mode, xs)

    # the nodes and the data's derivatives are freed by now, so the state's
    # work buffers do not add to the memory peak of the bump evaluation
    state = WaveState(config.mode, h, dt, xs,
                      u_prev=np.zeros_like(u0), u_curr=u0,
                      u_next=np.zeros_like(u0), dt_u=g0, nonlinear=nonlinear)
    # initial energies from exact nodal derivatives: cell sums of smooth
    # compactly supported integrands converge superalgebraically
    state.initial_energies = tuple(
        0.5 * float(np.sum((g0[j] ** 2 + grad_sq[j]) * state.measure)) for j in range(2))
    lap0 = state.laplacian(u0, state._lap)
    if nonlinear:
        # d_t u at t=0 is exactly eps*g, so the cubic term needs no iteration
        n0 = np.stack([-(g0[1] ** 2) * g0[0], -(g0[0] ** 2) * g0[1]])
        lap0 = lap0 + n0
    half = 0.5 * dt * dt
    state.u_prev[:] = u0 - dt * g0 + half * lap0
    state.u_next[:] = u0 + dt * g0 + half * lap0
    if config.mode == "radial":
        state._open_window(cone, _step_count(config.T, dt))
    return state


def _initial_fields(data, mode: str, xs: np.ndarray):
    """u, d_t u and |grad u|^2 of both components at t = 0 on the nodes."""
    if mode == "radial":
        pts = np.stack([xs, np.zeros_like(xs)], axis=-1)
    else:
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    iv = initial_values(data, pts)
    return (np.stack([iv["u1"], iv["u2"]]), np.stack([iv["ut1"], iv["ut2"]]),
            [np.sum(grad * grad, axis=-1) for grad in (iv["grad_u1"], iv["grad_u2"])])


def _step_count(T: float, dt: float) -> int:
    """Steps of a run to the horizon T: the last diagnosed time is >= T."""
    return int(math.ceil(T / dt - 1e-9))


def run_simulation(config: ScenarioConfig, nonlinear: bool, *,
                   samplers=(), cone: float | None = None) -> EnergyTrace | None:
    """Advance config.data to config.T, sampling at the nearest grid times.

    samplers is a sequence of (times, callback) pairs; each callback receives
    the read-only state whenever the diagnosed time passes one of its
    requested times (mapped to the nearest step), and must copy what it
    keeps: later steps overwrite the state's arrays.  The returned
    EnergyTrace is sampled every TRACE_DT time units plus the initial and
    final levels.

    cone, the smallest sigma any sampler reads, makes the radial window a
    light-cone window (see the module docstring): samples at sigma >= cone
    stay bit-identical, and the run returns None, having no energy trace.
    """
    state = init_state(config, nonlinear, cone=cone)
    n_steps = _step_count(config.T, state.dt)

    requests: dict[int, list] = {}
    for times, callback in samplers:
        for t_req in times:
            if t_req > config.T + state.dt:
                raise ValueError(f"requested sample time {t_req} exceeds T={config.T}")
            idx = min(n_steps, max(0, int(round(t_req / state.dt))))
            requests.setdefault(idx, []).append(callback)

    stride = max(1, int(round(TRACE_DT / state.dt)))
    rows = []
    for n in range(n_steps + 1):
        if n:
            state.step()
        for cb in requests.get(n, ()):
            cb(state)
        if cone is None and (n % stride == 0 or n == n_steps):
            e1, e2 = state.energies()
            rows.append((state.t, e1, e2, state.D, state.cum_dissipation))
    if cone is not None:
        return None
    cols = list(zip(*rows))
    return EnergyTrace(t=np.array(cols[0]), E1sq=np.array(cols[1]),
                       E2sq=np.array(cols[2]), D=np.array(cols[3]),
                       cum_D=np.array(cols[4]))
