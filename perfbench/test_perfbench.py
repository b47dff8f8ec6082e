"""Tests of the benchmark itself, on the shrunken "smoke" workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import HOOKS, Tracer

RUN = Path(run.__file__).resolve()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer self times that, with scenarios.untraced_s, tile the traced wall
SELF_TIMES = ("solver.step_s", "solver.energy_s", "solver.init_s",
              "solver.run_self_s", "profile.collect_s", "profile.ode_s",
              "radiation.pair_s", "bumps.eval_s", "free_wave.field_s",
              "reporting.write_s", "scenarios.untraced_s")


def _bench(trace, seconds=0):
    done = subprocess.run([sys.executable, str(RUN), "--workload", "smoke", "--seed", "0",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _bench(0)


@pytest.fixture(scope="module")
def traced():
    """One single-pass run and one that drops a warm-up pass."""
    return [_bench(1), _bench(1, seconds=12)]


def _check_metrics(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] % 4 == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_end_to_end_metrics_printed_with_units(untraced):
    _check_metrics(untraced, BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced):
    for result in traced:
        _check_metrics(result, BENCHMARK["per_layer"])


def test_self_times_tile_the_traced_wall(traced):
    for result in traced:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(m[k] for k in SELF_TIMES)
        assert total == pytest.approx(m["trace.wall_s"], rel=0.03)


def test_counts_repeat_exactly(traced):
    first, second = ({k: v["value"] for k, v in r["metrics"].items()
                      if v["unit"] in ("count", "B")} for r in traced)
    assert first == second
    assert first["solver.steps"] > 0 and first["bumps.points"] > 0
    assert traced[1]["attempted"] > traced[0]["attempted"]     # warm-up dropped


def test_tracer_patches_consumers_and_reports_absent_hooks(monkeypatch):
    scenarios = run._import_program()
    import wavelab.solver

    original = scenarios.free_field
    monkeypatch.setattr("tracer.HOOKS", HOOKS + (("solver.gone", "solver", "no_such_fn"),))
    tracer = Tracer()
    tracer.install()
    try:
        assert scenarios.free_field.__wrapped__ is original
        assert scenarios.run_simulation is wavelab.solver.run_simulation
        assert tracer.absent == ["solver.no_such_fn"]
    finally:
        tracer.uninstall()
    assert scenarios.free_field is original


def test_reference_tolerance():
    ref = {"a": 0.0123456789, "b": [1.0, None], "c": True}
    assert workloads.differences(ref, {"a": 0.0123456789 * (1 + 1e-12),
                                       "b": [1.0, None], "c": True}) == []
    assert workloads.differences(ref, {"a": 0.0123456789 * (1 + 1e-5),
                                       "b": [1.0, None], "c": True})
    assert workloads.differences(ref, {"a": 0.0123456789, "b": [1.0, 0.0], "c": True})
    assert workloads.differences(ref, {"a": 0.0123456789, "b": [1.0, None], "c": 1})


def test_seeded_runs_check_verdicts_only():
    entry = workloads.load_reference("smoke")["profile-oracle"]
    summary = json.loads(json.dumps(entry))
    summary["values"]["worst_drift"] *= 2.0
    assert workloads.check_summary(summary, entry, exact=False) == []
    assert workloads.check_summary(summary, entry, exact=True)
    summary["assertions"][0]["passed"] = not summary["assertions"][0]["passed"]
    assert workloads.check_summary(summary, entry, exact=False)


def test_seed_scales_amplitudes():
    run._import_program()
    base = dict(workloads.build_configs("energy", 0))
    again = dict(workloads.build_configs("energy", 5))
    assert again == dict(workloads.build_configs("energy", 5))
    for name, cfg in again.items():
        pairs = [(b.amplitude, d.amplitude) for comp in ("f1", "g1", "f2", "g2")
                 for b, d in zip(getattr(cfg.data, comp), getattr(base[name].data, comp))]
        factors = {round(a / d, 12) for a, d in pairs}
        assert len(factors) == 1
        assert 0.98 <= factors.pop() <= 1.02
        assert cfg.data != base[name].data


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scaling",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
