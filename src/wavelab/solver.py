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

Point values come from WaveState.sample(points), the only code that knows
where the grid nodes sit: in either mode one call per level of the kernel
library's sample, which gives every point its 4-node Lagrange stencil and
reads its cells alone, with the radial d_r u differenced on those cells, so
a sampled level costs O(points), not O(window), and goes through no BLAS.
It refuses a point past the last radial cell centre or the node square, and
inside a light-cone window's cone, in Python, once per call: radially by
_check_radii, which RayTraceCollector passes too before its one call of the
kernel's sample writes a level's ray samples into its own storage.  No
points give an empty sample.

The linear part of a step is one folded update per mode,

    lin = A*top - mid + cp*top[i+1] + cm*top[i-1],

which is 2 top - mid + dt^2 Laplace(top) with the grid factors multiplied
in once.  Radial: cp and cm are per-cell rows dt^2 (1/h^2 +- 1/(2 h r_i)),
built with the state and windowed like xs, and A = 2 - 2 dt^2/h^2; the
origin's even ghost is cm[0] = 0 with cp[0] = 2 dt^2/h^2.  Cartesian: k =
dt^2/h^2 times the 4-neighbour sum, and A = 2 - 4k.  A neighbour outside the
held cells (a light-cone window's left one, the outer 0.0 or the wall) is
skipped, not read.  The step is the only code that applies this update:
init_state takes lin(u0, 0) for the first levels from one free step of the
kernel loop, from n = -1 over the whole domain, flushed like every other
radial step.

The components couple only through the product d_t u1 d_t u2, and a step
builds the cubic term from it.  Each pass takes the increment w = top - mid
(predictor, d_t u = w/dt) or w = new - mid (correctors, d_t u = w/(2 dt))
and computes

    P = (c w_0) w_1,    new_j = lin_j - P w_k,  k the other component,

with c = 1/dt or 1/(8 dt), since dt^2 (d_t u_k)^2 d_t u_j = c (w_0 w_1) w_k;
the reciprocals are precomputed: a step divides nothing.  The final d_t u
is (new - mid) * (1/(2 dt)).

The time loop is the kernel library's (_step.c, built once per machine; see
wavelab._step): WaveState.step(count) is one call of its advance, which
takes count steps, so a run makes one call per stretch of steps between the
steps its samplers read.  The state it is given, a _step.State, holds every
choice it reads: the buffers, the grid factors, n, lo, hi and whether the
step is nonlinear.  A step walks the held cells once and does, per cell and
component, the linear update, the three cubic passes, the radial subnormal
flush below and d_t u, and returns whether every new value is finite.  The
loop stops at the first step where one is not, before it counts that step;
only then does the state look, in numpy, for the first NaN or inf of each
component in the level just written, and raise InstabilityError there, at
the time and cell single steps would name.  That per-cell work is written
once per mode: the same code does a radial window's first and last cell,
without the neighbour outside it, and the cells between.  Each value is the
result of the same IEEE operations in the same order as the numpy
expressions above, and the library is built with -ffp-contract=off, so that
results are bit-identical to them, to stepping the components one by one and
to stepping one step per call.  It allocates nothing: the state holds the
three levels and dt_u as C-contiguous float64 (2, ...) buffers (it copies
arrays of another layout and refuses another shape) and the radial geometry
rows; the oldest level's buffer receives the new level.  The arrays a
sampler sees are views of these buffers: it must copy what it keeps.

The numerical precursor ahead of a radial front decays through the
subnormal range, where arithmetic is slow, before it underflows.  So the
one subnormal rule is: a radial step writes 0.0 for every new value below
TINY, the smallest normal float, in every held cell, before it tests hi for
growth, and no level a radial step writes holds a subnormal value.  The
flushed values are below 2.2e-308, but the rounding flips they cause
cascade inward from the front and move reported values in their last
digits.  A Cartesian step flushes nothing.

Radial windows.  Every radial state keeps its levels in buffers allocated
once for the whole domain and advances only the global cells [lo, hi).  The
level of time index j (t = j dt) sits in slot j % 3, which never rotates: a
step writes level n + 2 over level n - 1 and then only updates n, lo and
hi, which the state keeps in the struct it shares with the kernel; t is
n dt, read from n.  The window rule below is the kernel's, written
once: advance applies it after every step, and a window's opening places
its first lo with the same place_lo.  u_prev, u_curr, u_next, dt_u, xs and
measure are read-only properties that slice slots (n - 1) % 3, n % 3,
(n + 1) % 3 and the other buffers to [lo, hi) on each access.

* the outer edge follows the numerical support: hi grows by one cell, up
  to the domain's n, whenever either of the last two held cells is nonzero
  at the top or middle level.  The stencil reaches one cell per step, so
  every cell past hi is exactly 0.0 when every cell is stepped too; the
  buffers hold that 0.0 (a step writes only held cells), and
  WaveState.sample reads them as they are, its d_r u past hi included;
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
and a light-cone window refuses, before it steps at all, a step(count) past
the step count it was sized for.  Energies and dissipation sum the held
cells [0, hi), the whole support; over a light-cone window they mean
nothing, so such a state raises on them, and so does an EnergyTrace of it.
The one integral over time is the dissipation's, which the state's struct
holds: once an EnergyTrace starts it at step 0, the kernel loop computes,
after each step's window rule, the new level's dissipation D_new, the same
sum over the same cells as dissipation(), adds the step's trapezoid
0.5 dt (D + D_new) to cum_D and keeps D_new as D.  The EnergyTrace, a
run_simulation sampler of its rows only, reads D and cum_D at each row.  A
state no EnergyTrace reads computes no dissipation.

A ScenarioConfig is the whole description of a run: init_state and
run_simulation take the data, spacing, CFL number and horizon T from it and
nowhere else.  There is no dt override: the step is always config.dt,
cfl * h; a caller that needs another step sets cfl.  run_size is the one
rule for a run's cells and steps, refused, the grid first, when their arrays
would not fit in memory; a scenario sizes every run with it before any run
or table.  sample_steps is the one rule for the steps a run samples, also
for a caller that checks them before the run: the nearest step to each
requested time, clipped to the last.  The step count n is the one clock: a
step counts n, and a state's t is n dt, which a sum of dt misses in its
last digits, so every time a run records or decides on is exactly the n dt
that sample_steps predicts.  Boundaries are homogeneous Dirichlet on a
domain sized for that T: the physical support never reaches them, but the
scheme's numerical precursor, which runs ahead of the front, does (see
README).  Every integral is a pairwise sum in fixed index order, so results
are reproducible run to run: the energies numpy's np.sum, the dissipation
the kernel library's copy of it, which forms the integrand
((d_t u1 d_t u2)^2) measure as numpy does and adds it in np.sum's order, bit
for bit.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import partial
from itertools import compress

import numpy as np

from . import _step
from .bumps import initial_values
from .config import ConfigValidationError, ScenarioConfig

__all__ = [
    "WaveState",
    "EnergyTrace",
    "InstabilityError",
    "init_state",
    "run_simulation", "sample_steps", "run_size", "fit_memory",
    "TRACE_DT",
    "CONE_REACH",
]

# an EnergyTrace records a row every max(1, round(TRACE_DT / dt)) steps
TRACE_DT = 0.25

# the last step of a state that no light-cone window ends: it never closes
_NEVER = 2 ** 63 - 1

# cells a light-cone window keeps below the last sample's stencil at the
# final step: a sample reads two cells below its stencil (the gradient) and
# one level ahead (d_t u); floor and rounding of the foot point take up to
# three more
CONE_REACH = 8

# bytes per step of a run's per-step arrays, at most: a RayTraceCollector's
# times and the steps run_simulation stops at, 8 each, and its byte per
# sampler and step with the byte of their any(), 8 for up to 7 samplers;
# sample_steps, before the run, holds two 8-byte temporaries.  A collector's
# samples are counted apart, by the scenarios' ray checks
STEP_BYTES = 3 * 8

# physical memory, the bound of the grid and of the per-step arrays
_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

# bytes WaveState holds per cell, at most: 13 float64 values, the three
# levels and d_t u of both components, and the radial geometry rows: the cell
# centres, the cell measure and the two neighbour coefficients
CELL_BYTES = 13 * 8

# the smallest eps |A| of a component's largest bump: the energies, of order
# (eps A)^2, stay normal floats
SMALLEST_DATA = math.sqrt(np.finfo(float).tiny)

# a radial step writes 0.0 for each new value below TINY, the smallest
# normal float (DBL_MIN in the kernel; see the module docstring)
TINY = np.finfo(float).tiny


class InstabilityError(RuntimeError):
    """The scheme produced a non-finite value."""

    def __init__(self, t: float, location):
        super().__init__(f"non-finite field value at t={t:.6g}, grid index {location}")
        self.t = t
        self.location = location


class EnergyTrace:
    """Energy diagnostics of a run of config, a run_simulation sampler of its
    rows: run_simulation(config, nonlinear, samplers=[(trace.times, trace)]).
    Its rows are every round(TRACE_DT / dt) steps and the last, at the times
    trace.times, after which the arrays exist: t, the squared energy norms
    E1sq/E2sq, (1/2) int |du_j|^2 dx, the dissipation D, int (d_t u1)^2
    (d_t u2)^2 dx, and cum_D, its step-resolution trapezoid from 0.  At its
    row at step 0 the trace starts the state's dissipation integral, which
    the kernel loop carries forward at every step, and at each row it reads
    D and cum_D from the state.  A step that is not the next row, another h
    or dt, a second run and a light-cone window raise ValueError.
    """

    def __init__(self, config: ScenarioConfig):
        self._last = run_size(config)[1]
        self._h, self._dt = config.h, config.dt
        self._stride = max(1, round(TRACE_DT / self._dt))
        self.times = np.append(np.arange(0, self._last, self._stride), self._last) * self._dt
        self._next, self._rows = 0, []

    def __call__(self, state: WaveState) -> None:
        n = state.n
        if (state.h, state.dt) != (self._h, self._dt) or n != self._next:
            raise ValueError(f"an energy trace of h={self._h:g}, dt={self._dt:g} expects step "
                             f"{self._next}, not step {n} of h={state.h:g}, dt={state.dt:g}")
        if n == 0:
            state._start_dissipation()
        s = state._struct
        self._rows.append((state.t, *state.energies(), s.D, s.cum_D))
        self._next = min(n + self._stride, self._last) if n < self._last else self._last + 1
        if n == self._last:
            self.t, self.E1sq, self.E2sq, self.D, self.cum_D = map(np.array, zip(*self._rows))

    @property
    def diff(self) -> np.ndarray:
        return self.E1sq - self.E2sq

    @property
    def total(self) -> np.ndarray:
        return self.E1sq + self.E2sq

    def to_csv(self):
        """The (header, rows) of the energy_trace CSV."""
        return (("t", "E1sq", "E2sq", "diff", "sum", "dissipation", "cum_dissipation"),
                zip(self.t, self.E1sq, self.E2sq, self.diff, self.total, self.D, self.cum_D))


class WaveState:
    """Two-component field on a grid, three consecutive time levels.

    Attributes of interest:
      mode        "cartesian-2d" or "radial"
      h, dt, n, t spacing, time step, steps taken, diagnosed time n * dt
      u_prev/u_curr/u_next   arrays (2, ...) at t-dt, t, t+dt
      dt_u        centered time derivative at the diagnosed level, (2, ...)
      xs          1D node coordinates (Cartesian axes) or cell centers r_i
      measure     cell measure of every integral: 2 pi r_i h (radial), h^2
      cone        None for the whole disk, else the smallest ray sigma of a
                  light-cone window (radial only; see the module docstring)
      lo, hi      the global cells [lo, hi) held (a Cartesian state holds
                  every cell)

    The state is its buffers, sized for the whole domain, plus n, lo and hi:
    the level of time index j is slot j % 3 of _levels, and t, n * dt, and
    the six arrays above are read-only properties, the arrays views of the
    held cells sliced on each access.  step() overwrites the levels and
    dt_u in place (see the module docstring), so a caller that keeps any of
    them across a step must copy it.
    """

    def __init__(self, mode, h, dt, xs, u_prev, u_curr, u_next, dt_u, nonlinear):
        self.mode = mode
        self.h = float(h)
        self.dt = float(dt)
        self.nonlinear = bool(nonlinear)
        self.cone = None
        xs = np.asarray(xs, dtype=float)
        self._cells = len(xs)
        shape = (2, self._cells) if mode == "radial" else (2, self._cells, self._cells)
        # the kernel reads and writes these as C-contiguous, aligned, writable
        # float64 buffers of one shape: other arrays are copied, another shape
        # refused, so that it never reaches past a buffer
        buffers = [np.require(a, float, "CAW") for a in (u_prev, u_curr, u_next, dt_u)]
        if any(a.shape != shape for a in buffers):
            raise ValueError(f"the levels and dt_u of {len(xs)} cells must have the shape "
                             f"{shape}, not {', '.join(str(a.shape) for a in buffers)}")
        if self._cells < 4:
            # a sample's stencil and a radial window hold 4 cells or nodes per
            # axis, so that their first, n - 4 and hi - 4 at most, is >= 0
            unit = "cells" if mode == "radial" else "nodes per axis"
            raise ValueError(f"a {mode} state needs 4 {unit} or more, not {self._cells}")
        # the level of time index j in slot j % 3: u_prev, u_curr, u_next are
        # slots 2, 0, 1 at n = 0
        self._levels, self._dt_u = (buffers[1], buffers[2], buffers[0]), buffers[3]
        # the state as the kernel sees it, an attribute so that it lives as
        # long as the state: its buffers, the folded update lin = A*top - mid
        # + cp*top[i+1] + cm*top[i-1] (see the module docstring), the
        # reciprocals of the time step, the predictor's c, a corrector's c
        # and the factor of d_t u, and the trapezoid's dt/2; and n, lo and
        # hi, which only the kernel, init_state and _open_window write.  A
        # whole-disk window never closes
        dt2 = self.dt * self.dt
        k = dt2 / (self.h * self.h)
        slots = [a.ctypes.data for a in self._levels]
        self._struct = _step.State(
            dtu=self._dt_u.ctypes.data, slot0=slots[0], slot1=slots[1], slot2=slots[2],
            cells=self._cells, radial=mode == "radial", nonlinear=self.nonlinear, n=0,
            lo=0, hi=self._cells, lo_last=0, last_n=_NEVER, h=self.h, k=k,
            inv_dt=1.0 / self.dt, inv_8dt=0.125 / self.dt, inv_2dt=0.5 / self.dt,
            half_dt=0.5 * self.dt)
        lib = _step.library()
        address = ctypes.addressof(self._struct)
        if self.mode == "radial":
            c = dt2 / (2.0 * self.h * xs)        # dt^2 / (2 h r_i)
            cp, cm = k + c, k - c
            cp[0], cm[0] = 2.0 * k, 0.0           # even ghost across r = 0
            # r_i, the cell measure 2 pi r_i h, and the neighbour coefficients
            self._geometry = np.stack([xs, 2.0 * np.pi * xs * self.h, cp, cm])
            self._struct.cp = self._geometry[2].ctypes.data
            self._struct.cm = self._geometry[3].ctypes.data
            self._struct.A = 2.0 - 2.0 * k
        else:
            # h^2, the one measure of every node, with an address for the kernel
            self._geometry = (xs, np.array(self.h * self.h))
            self._struct.A = 2.0 - 4.0 * k
        self._struct.measure = self._geometry[1].ctypes.data
        self._sample = partial(lib.sample, address)
        self._advance = partial(lib.advance, address)
        self._place_lo = partial(lib.place_lo, address)
        self._dissipation = partial(lib.dissipation, address)

    # -- the held window, sliced on access ------------------------------------

    n = property(lambda self: self._struct.n)
    t = property(lambda self: self.n * self.dt)
    lo = property(lambda self: self._struct.lo)
    hi = property(lambda self: self._struct.hi)
    u_prev = property(lambda self: self._levels[(self.n - 1) % 3][:, self.lo:self.hi])
    u_curr = property(lambda self: self._levels[self.n % 3][:, self.lo:self.hi])
    u_next = property(lambda self: self._levels[(self.n + 1) % 3][:, self.lo:self.hi])
    dt_u = property(lambda self: self._dt_u[:, self.lo:self.hi])
    xs = property(lambda self: self._geometry[0][self.lo:self.hi])

    @property
    def measure(self):
        if self.mode == "radial":
            return self._geometry[1, self.lo:self.hi]
        return self._geometry[1]

    # -- diagnostics ---------------------------------------------------------

    def _require_whole_disk(self, what: str) -> None:
        if self.cone is not None:
            raise ValueError(f"{what} over a light-cone window mean nothing; "
                             "run without cone")

    def energies(self) -> tuple[float, float]:
        """(1/2) int (d_t u_j)^2 + |grad u_j|^2 dx over the held cells, with a
        fourth-order gradient: its smaller O(h^2) energy offset keeps the
        conservation drift well inside tolerance.  Even ghosts across r = 0."""
        self._require_whole_disk("energies")
        u, h = self.u_curr, self.h
        if self.mode == "radial":
            grads = (_diff4(np.concatenate([u[:, 1::-1], u, np.zeros((2, 2))], axis=1), h),)
        else:
            grads = np.zeros((2, *u.shape))
            grads[0][:, 2:-2] = _diff4(u.swapaxes(1, 2), h).swapaxes(1, 2)
            grads[1][..., 2:-2] = _diff4(u, h)
        dsq = self.dt_u ** 2
        for g in grads:
            dsq += g * g
        return tuple(0.5 * float(np.sum(d * self.measure)) for d in dsq)

    def dissipation(self) -> float:
        """int (d_t u1)^2 (d_t u2)^2 dx over the held cells: the kernel library's
        sum of ((d_t u1 d_t u2)^2) measure in numpy's pairwise order, np.sum of
        that integrand bit for bit."""
        self._require_whole_disk("dissipation integrals")
        return self._dissipation()

    # -- point sampling --------------------------------------------------------

    def sample(self, points) -> np.ndarray:
        """Fields of the diagnosed level at the points, an (m, 2) array, by
        cubic interpolation, one call of the kernel library's sample:
        (3, 2, m), u, d_t u and the fourth-order d_r u of both components, in
        |x| over the cell centres (radial); (1, 2, m), u, in x1 and x2 over
        the nodes xs (Cartesian).  Each stencil's cells are read from the
        whole-domain buffers (0.0 past hi, even ghosts across r = 0, 0.0 past
        the wall); d_r u is differenced on them alone.  A point past the last
        cell centre (n - 1/2) h, outside the node square or, with a cone, at
        |x| < t + cone raises ValueError.  No points give an empty (3, 2, 0)
        or (1, 2, 0) array.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        radial = self.mode == "radial"
        if not len(pts):
            return np.empty((3 if radial else 1, 2, 0))
        first, last = self.xs[0], self.xs[-1]
        if radial:
            x = np.hypot(pts[:, 0], pts[:, 1])              # the radii
            self._check_radii(x.min(), x.max())
        elif not first <= pts.min() <= pts.max() <= last:
            bad = pts[~((first <= pts) & (pts <= last)).all(axis=1)][0]
            raise ValueError(f"point ({bad[0]:.6g}, {bad[1]:.6g}) lies outside the node square")
        else:       # the m first-axis, then the m second-axis fractional node indices
            x = np.ascontiguousarray((pts.T - first) / self.h)
        out = np.empty((3 if radial else 1, 2, len(pts)))  # u (, d_t u, d_r u)
        self._sample(x.ctypes.data, len(pts), out.ctypes.data)
        return out

    def _check_radii(self, r_min: float, r_max: float) -> None:
        """The refusals of a radial sample of radii in [r_min, r_max] by the
        kernel library's sample, the one radial sampling path:
        ValueError for a radius inside a light-cone window's t + cone or past
        the last cell centre (n - 1/2) h."""
        if self.cone is not None and r_min < self.t + self.cone - 1e-6 * self.h:
            raise ValueError(f"point |x|={r_min:.6g} lies inside the light-cone "
                             f"window's t + cone = {self.t + self.cone:.6g}")
        if not r_max <= (self._cells - 0.5) * self.h:          # NaN too
            raise ValueError(f"point |x|={r_max:.6g} lies past the last cell centre")

    # -- time stepping -------------------------------------------------------

    def step(self, count: int = 1) -> "WaveState":
        """Advance the diagnosed level by count dt (in place), in one kernel
        call: count steps, each followed by the window rule and, once started,
        the dissipation's trapezoid.  A light-cone window that ends before
        step n + count raises ValueError before any step; a new value that is
        not finite raises InstabilityError (see _instability) at the step
        that wrote it, with n, t, lo and hi as the steps before left them."""
        s = self._struct
        if count > s.last_n - s.n:
            raise ValueError(f"a light-cone window ends at the step count it was sized for, "
                             f"{s.last_n}; step {s.n} cannot take {count} more")
        status = self._advance(count)
        if status:
            raise self._instability((s.n + 1) * self.dt)
        return self

    def _instability(self, t: float) -> InstabilityError:
        """The InstabilityError at time t of the level the kernel loop's
        failed step wrote, time index n + 2: located at component 1's first
        non-finite value in the held cells, else component 2's."""
        failed = ~np.isfinite(self._levels[(self.n + 2) % 3][:, self.lo:self.hi]
                              .reshape(2, -1))
        i = int(np.argmax(failed[0] if failed[0].any() else failed[1]))
        location = (self.lo + i,) if self.mode == "radial" else divmod(i, self._cells)
        return InstabilityError(t, location)

    def _start_dissipation(self) -> None:
        """Start the dissipation integral at the diagnosed level: the
        struct's D is dissipation() now and cum_D 0.0, and every later step
        of the kernel loop adds its trapezoid to cum_D and keeps its D.  A
        light-cone window raises ValueError."""
        s = self._struct
        s.D, s.cum_D, s.dissipating = self.dissipation(), 0.0, True

    # -- radial window -------------------------------------------------------

    def _open_window(self, cone: float | None, n_steps: int) -> None:
        """Hold the cells up to the support's edge (radial).  With a cone, lo
        moves up one cell per step and, n_steps steps from now, stands
        CONE_REACH cells below the stencil of a sample at |x| = t + cone."""
        s = self._struct
        if cone is not None:
            self.cone = float(cone)
            s.last_n = self.n + n_steps
            foot = (s.last_n * self.dt + self.cone) / self.h - 0.5
            # the first node of the foot point's stencil, by the kernel's rule
            s.lo_last = min(max(math.floor(foot) - 1, 0), self._cells - 4) - CONE_REACH
        held = np.zeros(self._cells, dtype=bool)
        for a in (*self._levels, self._dt_u):
            held |= a.any(axis=0)
        nonzero = np.flatnonzero(held)
        last = int(nonzero[-1]) if len(nonzero) else 0
        # the window ends two zero cells past the last nonzero one, or at the
        # domain's edge, so it does not grow before the first step
        s.hi = min(max(last + 3, 4), self._cells)
        self._place_lo()


def _diff4(a: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centred first difference along the last axis of a, at
    a[..., 2:-2]: four values fewer."""
    return (a[..., :-4] - 8.0 * a[..., 1:-3] + 8.0 * a[..., 3:-1] - a[..., 4:]) / (12.0 * h)


def init_state(config: ScenarioConfig, nonlinear: bool, *,
               cone: float | None = None) -> WaveState:
    """Build the t = 0 state of config.data for a run of length config.T.

    The domain and the step count are run_size(config); the step is
    config.dt, which ScenarioConfig keeps inside the stability bound.  A
    radial state holds the window up to its numerical support; a cone (radial
    mode only) makes it a light-cone window for rays at sigma >= cone, sized
    for the run_simulation steps to config.T.  Before any grid array exists:
    ConfigValidationError("epsilon") when a component's largest eps |A| lies
    below SMALLEST_DATA, and the refusals of run_size.
    ConfigValidationError("h") when a component with nonzero bumps samples
    to 0 at every grid point.
    """
    if cone is not None and config.mode != "radial":
        raise ValueError(f"a light-cone window needs radial mode, not {config.mode}")
    h, dt, data = config.h, config.dt, config.data
    largest = [max((abs(b.amplitude) for bumps in pair for b in bumps), default=0.0)
                  for pair in ((data.f1, data.g1), (data.f2, data.g2))]
    for j, a in enumerate(largest):
        if a and data.epsilon * a < SMALLEST_DATA:
            raise ConfigValidationError("epsilon", f"eps={data.epsilon:g} times component "
                                        f"{j + 1}'s largest amplitude {a:g} lies below "
                                        f"{SMALLEST_DATA:.3g}, where its energy underflows to 0")

    n, n_steps = run_size(config)
    if config.mode == "radial":
        xs = (np.arange(n) + 0.5) * h
        pts = np.stack([xs, np.zeros_like(xs)], axis=-1)
    else:
        xs = (np.arange(2 * n + 1) - n) * h
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    u0, g0 = initial_values(data, pts)[:2]
    del pts
    for j, a in enumerate(largest):
        if a and not (u0[j].any() or g0[j].any()):
            raise ConfigValidationError("h", f"h={h:g} samples component {j + 1}'s "
                                        f"nonzero data to 0 at every grid point")

    # the nodes and the data's derivatives are freed by now, so the state's
    # work buffers do not add to the memory peak of the bump evaluation
    state = WaveState(config.mode, h, dt, xs,
                      u_prev=np.zeros_like(u0), u_curr=u0, u_next=np.zeros_like(u0),
                      dt_u=np.zeros_like(u0), nonlinear=nonlinear)
    # 2 u0 + dt^2 Laplace(u0) into u_next: one free step of the kernel loop
    # from n = -1 over the whole domain, with u_prev, still 0.0, as the middle
    # level, flushed like every radial step; g0 then replaces the d_t u it
    # wrote and is held only by the state.  A value it makes non-finite is
    # reported at t = dt, the time of u_next
    s = state._struct
    s.n, s.nonlinear = -1, False
    if state._advance(1):
        raise state._instability(dt)
    s.nonlinear = nonlinear
    np.copyto(state.dt_u, g0)
    g0 = state.dt_u
    base = 0.5 * state.u_next
    if nonlinear:
        # d_t u at t=0 is exactly eps*g, so the cubic term needs no iteration
        base += (0.5 * dt * dt) * (-(g0[::-1] ** 2) * g0)
    state.u_prev[:] = base - dt * g0
    state.u_next[:] = base + dt * g0
    if config.mode == "radial":
        state._open_window(cone, n_steps)
    return state


def run_size(config: ScenarioConfig) -> tuple[int, int]:
    """(cells, steps) of config's run, each counted in floating point first
    and refused in this order.  cells = ceil((R0 + T) / h) + 3 out from the
    origin: the physical support, expanding at unit speed, stays at least 2h
    from the boundary for all t <= T; ConfigValidationError("grid") naming h,
    T and the cells when WaveState's buffers for them would exceed physical
    memory.  steps to T, at least one, so the last diagnosed time is >= T;
    ConfigValidationError("cfl") naming cfl, h, T and the steps when they are
    not finite or the run's per-step arrays would exceed physical memory."""
    reach = (config.data.support_radius + config.T) / config.h
    side = 2.0 * (reach + 3) + 1          # Cartesian nodes per axis
    cells = reach + 3 if config.mode == "radial" else side * side
    fit_memory(cells * CELL_BYTES, "grid", f"h={config.h:g} and T={config.T:g} need "
               f"{cells:.3g} cells, whose buffers")
    steps = config.T / config.dt if config.dt else math.inf
    fit_memory(steps * STEP_BYTES, "cfl", f"cfl={config.cfl:g}, h={config.h:g} and "
               f"T={config.T:g} take {steps:.3g} steps, whose per-step arrays")
    return int(math.ceil(reach)) + 3, max(1, int(math.ceil(steps - 1e-9)))


def fit_memory(nbytes: float, field_name: str, what: str) -> None:
    """ConfigValidationError(field_name) "WHAT exceed the ... GiB of physical
    memory" unless nbytes, counted before anything is allocated, fit in it."""
    if not nbytes <= _MEMORY:
        raise ConfigValidationError(
            field_name, f"{what} exceed the {_MEMORY / 2 ** 30:.3g} GiB of physical memory")


def sample_steps(config: ScenarioConfig, times) -> np.ndarray:
    """The steps at which run_simulation samples the requested times: the
    nearest step, clipped to the run's last; ValueError past T + dt."""
    dt, times = config.dt, np.asarray(times, dtype=float)
    if not np.all(times <= config.T + dt):
        raise ValueError(f"requested sample time {times.max()} exceeds T={config.T}")
    return np.clip(np.round(times / dt), 0, run_size(config)[1]).astype(int)


def run_simulation(config: ScenarioConfig, nonlinear: bool, *,
                   samplers=(), cone: float | None = None) -> None:
    """Advance config.data to config.T, sampling at the nearest grid times.

    samplers is a sequence of (times, callback) pairs; each callback receives
    the read-only state once at each step sample_steps takes for its times,
    however many of them round to it, and must copy what it keeps: later
    steps overwrite the state's arrays.  An EnergyTrace is such a sampler.
    Between the steps a sampler reads, and from the last of them to the
    run's end, the state advances in one WaveState.step call.

    cone, the smallest sigma any sampler reads, makes the radial window a
    light-cone window, whose samples at sigma >= cone are bit-identical.
    """
    state = init_state(config, nonlinear, cone=cone)
    last = run_size(config)[1]
    # one byte per step and sampler: whether the sampler reads that step
    due = np.zeros((last + 1, len(samplers)), dtype=bool)
    for j, (times, _) in enumerate(samplers):
        due[sample_steps(config, times), j] = True
    callbacks = [callback for _, callback in samplers]
    for n in np.flatnonzero(due.any(axis=1)):
        if n > state.n:
            state.step(int(n) - state.n)
        for callback in compress(callbacks, due[n]):
            callback(state)
    if state.n < last:
        state.step(last - state.n)
