"""Run named scenarios with their default configs into one output root.

    PYTHONPATH=src python tools/run_scenarios.py OUT [NAME ...]

Each scenario writes its reports into OUT/<name>; without a NAME all seven
run.  The wavelab package is imported from the path, so pointing PYTHONPATH
at another checkout's src/ runs that checkout's code.  Prints one line per
scenario; exits 2 on an unknown name, 1 if any scenario fails an assertion,
0 otherwise.  tools/compare_reports.py compares two such output roots.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from wavelab.scenarios import SCENARIOS, UsageError, default_config, run_scenario, scenario


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out, names = Path(args[0]), args[1:] or list(SCENARIOS)
    try:
        for name in names:
            scenario(name)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        t0 = time.perf_counter()
        summary = run_scenario(default_config(name), out_dir=out / name)
        failed += not summary["passed"]
        print(f"{name}: {'passed' if summary['passed'] else 'FAILED'} "
              f"({time.perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
