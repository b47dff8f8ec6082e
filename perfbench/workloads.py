"""Workloads of the wavelab benchmark, their seeded inputs and the output check.

Each workload is a fixed list of named scenarios run back to back through
the public API (one client, one process, one thread; each scenario starts
after the previous one returns).  The three timed workloads together run
exactly the seven scenarios of the acceptance suite; "smoke" runs shrunken
configs of four of them so the benchmark's own tests stay fast.

Seed 0 runs the default configs and compares every assertion and value with
the recorded reference.  Any other seed scales every bump amplitude of a
scenario by one seeded factor in [0.98, 1.02] and checks only that each
assertion reaches the reference verdict, so no two seeds share a config.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from pathlib import Path

WORKLOADS = {
    "scaling": ("epsilon-scaling",),
    "energy": ("conservation", "symmetric-decay", "nondecay-demo"),
    "quadrature": ("radiation-decay", "free-validation", "profile-oracle"),
    "smoke": ("epsilon-scaling", "symmetric-decay", "free-validation",
              "profile-oracle"),
}

# config overrides that shrink the smoke workload to a few seconds
SMOKE_OVERRIDES = {
    "epsilon-scaling": {"eps_list": (1.0, 0.8, 0.6), "h": 1.0 / 32.0},
    "symmetric-decay": {"T": 4.0, "h": 1.0 / 32.0},
    "free-validation": {"h": 1.0 / 8.0},
}

AMPLITUDE_SPREAD = 0.02

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reordering the arithmetic of the leapfrog update moves the reported values
# by at most 2e-9 relative (the epsilon-scaling floors, which are differences
# of nearly equal invariants).  Dropping one corrector pass, or a quarter of
# the half-order quadrature nodes, moves them by 6e-7 to 4e-5.  ATOL covers
# values that are exactly 0 at the reference, such as the symmetry gap.
RTOL = 1e-7
ATOL = 1e-13


def _scale_amplitudes(data, factor: float):
    def scaled(bumps):
        return tuple(replace(b, amplitude=b.amplitude * factor) for b in bumps)
    return replace(data, f1=scaled(data.f1), g1=scaled(data.g1),
                   f2=scaled(data.f2), g2=scaled(data.g2))


def build_configs(workload: str, seed: int) -> list:
    """[(scenario name, ScenarioConfig)] for one workload and seed."""
    from wavelab.scenarios import default_config    # src/ is on the path by now

    rng = random.Random(seed)
    out = []
    for name in WORKLOADS[workload]:
        cfg = default_config(name)
        if workload == "smoke":
            cfg = replace(cfg, **SMOKE_OVERRIDES.get(name, {}))
        if seed:
            factor = rng.uniform(1.0 - AMPLITUDE_SPREAD, 1.0 + AMPLITUDE_SPREAD)
            cfg = replace(cfg, data=_scale_amplitudes(cfg.data, factor))
        out.append((name, cfg))
    return out


# -- correctness ---------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def reference_entry(summary: dict) -> dict:
    """The compared part of a summary; the runtimes block never is."""
    return {"passed": summary["passed"], "assertions": summary["assertions"],
            "values": summary["values"]}


def _verdicts(entry: dict) -> dict:
    return {"passed": entry["passed"],
            "assertions": [{k: a[k] for k in ("name", "op", "threshold", "passed")}
                           for a in entry["assertions"]]}


def _numbers_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def differences(ref, got, path: str = "") -> list[str]:
    """Human-readable mismatches between a reference and a result tree."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path or '.'}: keys {sorted(got)} != reference {sorted(ref)}"]
        out = []
        for k in sorted(ref):
            out += differences(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += differences(r, g, f"{path}[{i}]")
        return out
    numeric = (int, float)
    if (isinstance(ref, numeric) and isinstance(got, numeric)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if _numbers_close(float(ref), float(got)):
            return []
    elif ref == got and type(ref) is type(got):
        return []
    return [f"{path}: {got!r} != reference {ref!r}"]


def check_summary(summary: dict, reference: dict, exact: bool) -> list[str]:
    """Mismatches of one scenario summary against its reference entry.

    exact compares every assertion value and every reported value within
    RTOL; otherwise only the assertion names, thresholds and verdicts.
    """
    got = reference_entry(summary)
    if exact:
        return differences(reference, got)
    return differences(_verdicts(reference), _verdicts(got))
