"""wavelab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload scaling --seed 0 --seconds 25 --trace 0

Run from anywhere; the program is imported from ../src next to this
directory, never from an installed copy.  The workload's scenario list is
run back to back as one *pass*; passes repeat while another one would still
end within --seconds (at least one pass).  The last stdout line is one JSON
object:

  --trace 0  end-to-end metrics: wall_s (median pass time to verified
             results; the first pass is left out when there are more),
             setup_s (median interpreter start to first run_scenario over
             several fresh processes), cpu_s (median pass user+sys, same
             passes), peak_rss_mb (ru_maxrss of this process).
  --trace 1  per-layer metrics from wrapping the program's public functions
             (see tracer.py), per pass, over the same passes.

Exit status: 0 when every output matches the reference, 1 when any does not
(the JSON is still printed), 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# several fresh interpreters per run; setup_s is their median
SETUP_PROBES = 3

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SCENARIO_NAMES = tuple(name for w in ("scaling", "energy", "quadrature")
                       for name in workloads.WORKLOADS[w])

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "solver.steps": "count",
    "solver.cell_steps": "count",
    "solver.cells_mean": "count",
    "solver.step_s": "s",
    "solver.step_us.radial": "us",
    "solver.cell_step_ns.radial": "ns",
    "solver.step_fixed_us.radial": "us",
    "solver.step_us.cartesian": "us",
    "solver.cell_step_ns.cartesian": "ns",
    "solver.energy_s": "s",
    "solver.init_s": "s",
    "solver.run_self_s": "s",
    "solver.ray_cone_frac": "ratio",
    "profile.levels": "count",
    "profile.samples": "count",
    "profile.collect_s": "s",
    "profile.sample_us": "us",
    "profile.ode_calls": "count",
    "profile.ode_s": "s",
    "radiation.entries": "count",
    "radiation.table_s": "s",
    "radiation.entry_us": "us",
    "radiation.pairs": "count",
    "radiation.pair_s": "s",
    "bumps.points": "count",
    "bumps.eval_s": "s",
    "bumps.point_ns": "ns",
    "free_wave.points": "count",
    "free_wave.field_s": "s",
    "free_wave.point_ms": "ms",
    "reporting.bytes": "B",
    "reporting.write_s": "s",
    **{f"scenarios.wall_s.{name}": "s" for name in SCENARIO_NAMES},
    "scenarios.untraced_s": "s",
    "trace.wall_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: import and build configs, print the clock")
    p.add_argument("--record-reference", action="store_true",
                   help="run seed 0 once and store its outputs as the reference")
    return p.parse_args(argv)


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be subtracted from the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_program():
    sys.path.insert(0, str(SRC))
    import wavelab
    import wavelab.scenarios

    where = Path(wavelab.__file__).resolve().parent
    if where != SRC / "wavelab":
        raise ImportError(f"wavelab imported from {where}, not from {SRC}")
    return wavelab.scenarios


def _measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = _clock()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _output_bytes(path) -> int:
    """Bytes of the files a pass wrote, leaving out summary.json, whose
    runtimes block changes length from run to run."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files
               if f != "summary.json")


class Run:
    """Passes of one workload with their timings and correctness tally."""

    def __init__(self, scenarios, configs, reference, exact, tracer=None):
        self.scenarios = scenarios
        self.configs = configs
        self.reference = reference
        self.exact = exact
        self.tracer = tracer
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.out_bytes = 0

    def one_pass(self, out_dir: str) -> None:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        for name, cfg in self.configs:
            self.attempted += 1
            scen_dir = os.path.join(out_dir, name)
            try:
                if self.tracer is not None:
                    self.tracer.span(f"scenarios.wall_s.{name}",
                                     self.scenarios.run_scenario, cfg, out_dir=scen_dir)
                else:
                    self.scenarios.run_scenario(cfg, out_dir=scen_dir)
                with open(os.path.join(scen_dir, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                errors = workloads.check_summary(summary, self.reference[name], self.exact)
            except Exception as exc:  # any failure of one scenario is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                errors = [f"{type(exc).__name__}: {exc}"]
            if errors:
                self.failed += 1
                self.problems += [f"{name}: {e}" for e in errors]
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(_cpu_seconds() - c0)
        self.out_bytes += _output_bytes(out_dir)

    def run(self, seconds: float) -> None:
        OUT_ROOT.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
        try:
            start = time.perf_counter()
            while True:
                self.one_pass(os.path.join(out_dir, f"pass{len(self.walls)}"))
                # the next pass would take about as long as the last one
                if time.perf_counter() - start + self.walls[-1] > seconds:
                    break
                if len(self.walls) == 1:        # the first pass was a warm-up
                    self.out_bytes = 0
                    if self.tracer is not None:
                        self.tracer.reset()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def _timed(passes: list) -> list:
    """The passes that count: the first one warms up (first calls, fresh
    memory) and is left out whenever a later pass exists.  Run.run resets
    the tracer and the byte count after it on the same condition."""
    return passes[1:] or passes


def end_to_end_metrics(run: Run, setup: list[float]) -> dict:
    return {
        "wall_s": statistics.median(_timed(run.walls)),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(_timed(run.cpus)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run) -> dict:
    """Per-pass layer figures from the tracer's tallies (absent spans read 0)."""
    tr = run.tracer
    n = len(_timed(run.walls))
    calls = {k: s.calls // n for k, s in tr.spans.items()}
    incl = {k: s.incl / n for k, s in tr.spans.items()}
    self_s = {k: s.self_s / n for k, s in tr.spans.items()}
    counts = {k: round(v) // n for k, v in tr.counts.items()}

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    r_steps, r_cells, r_secs = tr.mode_totals("radial")
    c_steps, c_cells, c_secs = tr.mode_totals("cartesian-2d")
    steps = counts.get("solver.steps", 0)
    cell_steps = counts.get("solver.cell_steps", 0)
    samples = counts.get("profile.samples", 0)
    entries = counts.get("radiation.entries", 0)
    points = counts.get("bumps.points", 0)
    field_points = calls.get("free_wave.field", 0)
    m = {
        "solver.steps": steps,
        "solver.cell_steps": cell_steps,
        "solver.cells_mean": ratio(cell_steps, steps),
        "solver.step_s": self_s.get("solver.step", 0.0),
        "solver.step_us.radial": ratio(r_secs, r_steps, 1e6),
        "solver.cell_step_ns.radial": ratio(r_secs, r_cells, 1e9),
        "solver.step_fixed_us.radial": tr.fixed_step_us("radial"),
        "solver.step_us.cartesian": ratio(c_secs, c_steps, 1e6),
        "solver.cell_step_ns.cartesian": ratio(c_secs, c_cells, 1e9),
        "solver.energy_s": self_s.get("solver.energy", 0.0),
        "solver.init_s": self_s.get("solver.init", 0.0),
        "solver.run_self_s": self_s.get("solver.run", 0.0),
        "solver.ray_cone_frac": ratio(tr.counts.get("solver.ray_cone_cells", 0.0),
                                      tr.counts.get("solver.ray_cells", 0.0)),
        "profile.levels": counts.get("profile.levels", 0),
        "profile.samples": samples,
        "profile.collect_s": self_s.get("profile.collect", 0.0),
        "profile.sample_us": ratio(self_s.get("profile.collect", 0.0), samples, 1e6),
        "profile.ode_calls": calls.get("profile.ode", 0),
        "profile.ode_s": self_s.get("profile.ode", 0.0),
        "radiation.entries": entries,
        "radiation.table_s": incl.get("radiation.table", 0.0),
        "radiation.entry_us": ratio(incl.get("radiation.table", 0.0), entries, 1e6),
        "radiation.pairs": calls.get("radiation.pair", 0),
        "radiation.pair_s": self_s.get("radiation.pair", 0.0),
        "bumps.points": points,
        "bumps.eval_s": self_s.get("bumps.eval", 0.0),
        "bumps.point_ns": ratio(self_s.get("bumps.eval", 0.0), points, 1e9),
        "free_wave.points": field_points,
        "free_wave.field_s": self_s.get("free_wave.field", 0.0),
        "free_wave.point_ms": ratio(self_s.get("free_wave.field", 0.0), field_points, 1e3),
        "reporting.bytes": run.out_bytes // n,
        "reporting.write_s": self_s.get("reporting.write", 0.0),
        "scenarios.untraced_s": sum(v for k, v in self_s.items()
                                    if k.startswith("scenarios.")),
        "trace.wall_s": statistics.fmean(_timed(run.walls)),   # same basis as above
    }
    for name in SCENARIO_NAMES:
        m[f"scenarios.wall_s.{name}"] = incl.get(f"scenarios.wall_s.{name}", 0.0)
    return {k: m[k] for k in PER_LAYER_UNITS}


def _record_reference(args, scenarios, configs) -> int:
    if args.seed != 0:
        print("perfbench: the reference is recorded at seed 0", file=sys.stderr)
        return 2
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=OUT_ROOT)
    try:
        entries = {name: workloads.reference_entry(
            scenarios.run_scenario(cfg, out_dir=os.path.join(out_dir, name)))
            for name, cfg in configs}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    path = workloads.REFERENCE_PATH
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    stored[args.workload] = json.loads(json.dumps(entries))
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} scenarios of {args.workload} in {path}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wavelab" / "__init__.py").is_file():
        print(f"perfbench: no wavelab source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)       # before numpy is first imported

    if args.probe:
        _import_program()
        workloads.build_configs(args.workload, args.seed)
        print(repr(_clock()))
        return 0

    scenarios = _import_program()
    configs = workloads.build_configs(args.workload, args.seed)
    if args.record_reference:
        return _record_reference(args, scenarios, configs)
    setup = [] if args.trace else _measure_setup(args)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for hook in tracer.absent:
            print(f"trace: hook {hook} absent; its layer reads 0", file=sys.stderr)
    run = Run(scenarios, configs, workloads.load_reference(args.workload),
              exact=args.seed == 0, tracer=tracer)
    try:
        run.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        values, units = per_layer_metrics(run), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(run, setup), END_TO_END_UNITS
    correct = run.failed == 0
    for problem in run.problems:
        print(f"MISMATCH {problem}")
    print(f"workload={args.workload} seed={args.seed} "
          f"passes={' '.join(f'{w:.3f}' for w in run.walls)} s "
          f"fail_frac={run.failed / run.attempted:.4g} ({run.failed}/{run.attempted})")
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
