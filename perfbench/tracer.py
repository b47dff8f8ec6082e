"""Outside-in tracer: wraps wavelab's public functions and times each layer.

Nothing inside the program changes.  Each hook replaces one function (or one
method) with a wrapper that records calls, inclusive time and self time, the
inclusive time minus the time spent in other hooked calls it made.  Module
functions are replaced in *every* wavelab module that holds a binding to the
same function object, because scenarios, solver, radiation and free_wave
import run_simulation, radiation_pair, free_field and sum_value_grad_hess by
name; patching only the defining module would miss those calls.

A hook whose target no longer exists is reported as absent and skipped, so
renaming or deleting a function degrades the trace instead of breaking it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (span key, defining module, attribute path); a dotted path is a method.
HOOKS = (
    ("solver.run", "solver", "run_simulation"),
    ("solver.init", "solver", "init_state"),
    ("solver.step", "solver", "WaveState.step"),
    ("solver.energy", "solver", "WaveState.energies"),
    ("profile.collect", "profile", "RayTraceCollector.__call__"),
    ("profile.ode", "profile", "solve_reduced_ode"),
    ("radiation.table", "radiation", "radiation_table"),
    ("radiation.pair", "radiation", "radiation_pair"),
    ("bumps.eval", "bumps", "sum_value_grad_hess"),
    ("bumps.eval", "bumps", "eval_sum"),
    ("free_wave.field", "free_wave", "free_field"),
    ("reporting.write", "reporting", "write_csv"),
    ("reporting.write", "reporting", "write_summary"),
)


class Span:
    """Accumulated calls, inclusive and self seconds of one span key."""

    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs the hooks on an imported wavelab package and keeps the tallies.

    counts holds work counters (steps, cells, points, ...); step_runs holds,
    per WaveState stepped, [mode, cells, steps, seconds] for the fixed-cost fit.
    """

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, float] = defaultdict(float)
        self.step_runs: list[list] = []
        self._run_of = weakref.WeakKeyDictionary()
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self._cone = None          # smallest ray sigma of the running simulation
        self._collectors: list = []

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "wavelab") -> None:
        consumers = [m for name, m in list(sys.modules.items())
                     if m is not None and (name == package or name.startswith(package + "."))]
        for key, modname, path in HOOKS:
            module = sys.modules.get(f"{package}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None or not callable(target):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(key, target)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in consumers:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, name, wrapper)

    def reset(self) -> None:
        """Forget the tallies so far; the hooks stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.step_runs.clear()
        self._run_of = weakref.WeakKeyDictionary()

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def _patch(self, obj, name, wrapper) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    # -- spans ------------------------------------------------------------------

    def span(self, key: str, fn, *args, **kwargs):
        """Call fn as a span of its own and return its result."""
        t0 = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(key, t0)

    def _close(self, key: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        s = self.spans[key]
        s.calls += 1
        s.incl += dt
        s.self_s += dt - child
        return dt

    def _wrap(self, key: str, fn):
        before = getattr(self, "_before_" + key.replace(".", "_"), None)
        after = getattr(self, "_after_" + key.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            t0 = time.perf_counter()
            self._stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(key, t0)
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- per-hook counters ---------------------------------------------------------

    def _before_solver_run(self, args, kwargs):
        samplers = kwargs.get("samplers", args[3] if len(args) > 3 else ())
        # ray collectors are the samplers that carry sigmas
        self._collectors = [cb for _times, cb in samplers if hasattr(cb, "sigmas")]
        self._cone = None
        if self._collectors:
            self._cone = min(min(c.sigmas) for c in self._collectors)

    def _after_solver_run(self, args, kwargs, result, dt):
        for c in self._collectors:
            try:
                self.counts["profile.samples"] += sum(len(tr.t) for tr in c.traces())
            except ValueError:      # a sigma without samples; the scenario reports it
                pass
        self._collectors = []
        self._cone = None

    def _after_solver_step(self, args, kwargs, result, dt):
        state = args[0]
        cells = state.u_curr[0].size
        self.counts["solver.steps"] += 1
        self.counts["solver.cell_steps"] += cells
        run = self._run_of.get(state)
        if run is None:
            run = self._run_of[state] = [state.mode, cells, 0, 0.0]
            self.step_runs.append(run)
        run[2] += 1
        run[3] += dt
        if self._cone is not None and state.mode == "radial":
            xs = state.xs
            edge = state.t + self._cone - 1.0
            inside = cells - int(xs.searchsorted(edge))
            self.counts["solver.ray_cells"] += cells
            self.counts["solver.ray_cone_cells"] += inside

    def _after_profile_collect(self, args, kwargs, result, dt):
        self.counts["profile.levels"] += 1

    def _after_radiation_table(self, args, kwargs, result, dt):
        self.counts["radiation.entries"] += result.F.size

    def _after_bumps_eval(self, args, kwargs, result, dt):
        specs = args[0] if args else kwargs.get("specs", ())
        pts = args[1] if len(args) > 1 else kwargs.get("pts", kwargs.get("x"))
        shape = getattr(pts, "shape", (1, 2))
        npts = math.prod(shape[:-1]) if len(shape) > 1 else 1
        self.counts["bumps.points"] += npts * len(specs) if hasattr(specs, "__len__") else npts

    # -- report -----------------------------------------------------------------

    def fixed_step_us(self, mode: str) -> float:
        """Intercept of per-run mean step time (us) against cell count.

        Needs runs at two or more distinct cell counts; 0.0 otherwise.
        """
        runs = [(cells, secs / steps * 1e6) for m, cells, steps, secs
                in self.step_runs if m == mode and steps]
        if len({cells for cells, _ in runs}) < 2:
            return 0.0
        cells, step_us = zip(*runs)
        return statistics.linear_regression(cells, step_us).intercept

    def mode_totals(self, mode: str) -> tuple[int, int, float]:
        """(steps, cell-steps, seconds) over all runs of one grid mode."""
        steps = cells = 0
        secs = 0.0
        for m, c, n, s in self.step_runs:
            if m == mode:
                steps += n
                cells += c * n
                secs += s
        return steps, cells, secs
