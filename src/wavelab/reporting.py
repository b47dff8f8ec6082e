"""Deterministic CSV / JSON report writing.

Floats, numpy scalars included, are rendered as the repr of a Python float
(shortest round-trip form), so identical numerical results produce
byte-identical files whatever the numpy version.  The one intentionally
non-deterministic part of a summary is the "runtimes" block; everything
else is covered by the reproducibility contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

__all__ = ["Assertion", "write_csv", "write_summary"]


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail check with its measured value and threshold."""

    name: str
    value: float
    threshold: float
    op: str                       # "<=" or ">="
    passed: bool
    detail: str = ""

    @staticmethod
    def le(name, value, threshold, detail=""):
        return Assertion(name, float(value), float(threshold), "<=",
                         bool(value <= threshold), detail)

    @staticmethod
    def ge(name, value, threshold, detail=""):
        return Assertion(name, float(value), float(threshold), ">=",
                         bool(value >= threshold), detail)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path, scenario: str, assertions, values: dict,
                  runtimes: dict) -> dict:
    """Write summary.json; returns the summary dict.

    Keys are sorted and floats serialized by json, so reruns with identical
    results differ only in the "runtimes" block.
    """
    summary = {
        "scenario": scenario,
        "passed": all(a.passed for a in assertions),
        "assertions": [asdict(a) for a in assertions],
        "values": values,
        "runtimes": {k: round(v, 3) for k, v in runtimes.items()},
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
