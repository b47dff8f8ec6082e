"""Compare two trees of scenario reports.

    python tools/compare_reports.py A B

A and B are output roots holding one directory per scenario (or a single
scenario directory each).  Every CSV must be byte-identical, and every
summary.json must match once its "runtimes" block is dropped.  A report
present in only one tree counts as a difference.  Prints one line per
difference, with the largest relative difference of a report's numbers and
the CSV column or summary key where it occurs; a differing summary's line is
followed by one indented line per differing key, with both values and their
relative difference.  Exits 1 if there is any difference (or if neither
tree holds a report), 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _reports(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.suffix == ".csv" or p.name == "summary.json"}


def _summary_data(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("runtimes", None)
    return data


def _summary(path: Path) -> str:
    # canonical text, so NaN compares equal to NaN
    return json.dumps(_summary_data(path), sort_keys=True)


def _json_leaves(obj, key: str = ""):
    """(key, value) of every scalar in obj; list items are keyed by their
    "name" entry when they have one (the assertions), else by position."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            label = v.get("name", i) if isinstance(v, dict) else i
            yield from _json_leaves(v, f"{key}[{label}]")
    else:
        yield key, obj


def _csv_cells(path: Path):
    """(column, text) of every cell of a CSV report, row by row."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    for row in rows[1:]:
        yield from zip(header, row, strict=True)


def _relative(x, y) -> float:
    """|x - y| / max(|x|, |y|) of two numbers, 0 if they are equal (NaN
    too), inf if either is no number or only one is NaN."""
    try:
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        return 0.0 if x == y else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(diff) else diff


def _changes(a: Path, b: Path):
    """(key, value in a, value in b, relative difference) of every entry
    whose numbers differ between the reports a and b, in report order;
    ValueError when their layouts differ."""
    if a.name == "summary.json":
        pairs = zip(_json_leaves(_summary_data(a)), _json_leaves(_summary_data(b)), strict=True)
    else:
        pairs = zip(_csv_cells(a), _csv_cells(b), strict=True)
    for (ka, va), (kb, vb) in pairs:
        if ka != kb:
            raise ValueError(f"entry {ka} against {kb}")
        rel = _relative(va, vb)
        if rel:
            yield ka, va, vb, rel


def largest_difference(a: Path, b: Path) -> str:
    """Where the reports a and b differ most, as text for a "differs" line."""
    try:                # zip(strict=True) raises on a different number of entries
        worst = max(_changes(a, b), key=lambda change: change[3], default=None)
    except ValueError:
        return "different layout"
    if worst is None:
        return "same numbers, different text"
    where = "key" if a.name == "summary.json" else "column"
    return f"max relative difference {worst[3]:.3g} in {where} {worst[0]}"


def moved_values(a: Path, b: Path) -> list[str]:
    """One indented line per key whose numbers differ between the summaries
    a and b: the key, both values and their relative difference; none when
    their layouts differ."""
    try:
        return [f"  {key}: {va!r} -> {vb!r} (relative {rel:.3g})"
                for key, va, vb, rel in _changes(a, b)]
    except ValueError:
        return []


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the report trees a and b."""
    ra, rb = _reports(a), _reports(b)
    if not ra and not rb:
        return [f"no reports under {a} or {b}"]
    diffs = [f"only in {a if rel in ra else b}: {rel}" for rel in sorted(ra ^ rb)]
    for rel in sorted(ra & rb):
        if rel.name == "summary.json":
            same = _summary(a / rel) == _summary(b / rel)
        else:
            same = (a / rel).read_bytes() == (b / rel).read_bytes()
        if not same:
            diffs.append(f"differs: {rel} ({largest_difference(a / rel, b / rel)})")
            if rel.name == "summary.json":
                diffs += moved_values(a / rel, b / rel)
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = Path(args[0]), Path(args[1])
    diffs = compare(a, b)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"{len(_reports(a))} reports identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
