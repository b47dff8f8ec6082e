"""Compare two trees of scenario reports.

    python tools/compare_reports.py A B

A and B are output roots holding one directory per scenario (or a single
scenario directory each).  Every CSV must be byte-identical, and every
summary.json must match once its "runtimes" block is dropped.  A report
present in only one tree counts as a difference.  Prints one line per
difference; exits 1 if there is any (or if neither tree holds a report),
0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _reports(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.suffix == ".csv" or p.name == "summary.json"}


def _summary(path: Path) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("runtimes", None)
    # canonical text, so NaN compares equal to NaN
    return json.dumps(data, sort_keys=True)


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
            diffs.append(f"differs: {rel}")
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
