"""Deterministic CSV / JSON reports, rendered first and written after.

Floats, numpy scalars included, are rendered as the repr of a Python float
(shortest round-trip form), so identical numerical results produce
byte-identical files whatever the numpy version.  The one intentionally
non-deterministic part of a summary is the "runtimes" block; everything
else is covered by the reproducibility contract.  Rendering a NaN or inf
raises NonFiniteReportError, naming the file and where it sits; the writers
only write what rendered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

__all__ = ["Assertion", "NonFiniteReportError", "render_csv", "render_summary",
           "write_csv", "write_summary"]


class NonFiniteReportError(ValueError):
    """A report would hold a NaN or inf (CLI exit code 2)."""


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail check with its measured value and threshold."""

    name: str
    value: float
    threshold: float
    op: str                       # "<=" or ">="
    passed: bool
    detail: str = ""              # always "", kept as a key of summary.json

    @staticmethod
    def le(name, value, threshold):
        return Assertion(name, float(value), float(threshold), "<=", bool(value <= threshold))

    @staticmethod
    def ge(name, value, threshold):
        return Assertion(name, float(value), float(threshold), ">=", bool(value >= threshold))


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


_NON_FINITE = frozenset({"nan", "inf", "-inf"})     # the cells they render as


def render_csv(path, header, rows) -> str:
    """The CSV text of a header and rows; path names the file in an error."""
    lines = [",".join(header)]
    for i, row in enumerate(rows, 1):
        cells = [_fmt(v) for v in row]
        if not _NON_FINITE.isdisjoint(cells):
            name, cell = next(nc for nc in zip(header, cells) if nc[1] in _NON_FINITE)
            raise NonFiniteReportError(f"{path}: column {name}, row {i} is {cell}, "
                                       "not a finite number")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _non_finite_keys(value, key: str = ""):
    """The dotted keys of the NaNs and infs in a tree of dicts and lists."""
    if isinstance(value, float) and not math.isfinite(value):
        yield key
    elif isinstance(value, (dict, list, tuple)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _non_finite_keys(v, f"{key}.{k}" if key else str(k))


def render_summary(path, scenario: str, assertions, values: dict, runtimes: dict) -> dict:
    """The summary dict; path names the file in an error.  Written with sorted
    keys, reruns with identical results differ only in the "runtimes" block."""
    summary = {
        "scenario": scenario,
        "passed": all(a.passed for a in assertions),
        "assertions": [asdict(a) for a in assertions],
        "values": values,
        "runtimes": {k: round(v, 3) for k, v in runtimes.items()},
    }
    bad = next(_non_finite_keys(summary), None)
    if bad is not None:
        raise NonFiniteReportError(f"{path}: {bad} is not a finite number")
    return summary


def write_csv(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
