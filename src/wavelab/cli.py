"""Command line entry points.

    wavelab run --config FILE --out DIR
    wavelab scenario NAME --out DIR [--h H] [--cfl C] [--T T] [--eps LIST]

Exit status: 0 when every scenario assertion passes, 1 on assertion failure,
2 on usage errors (unknown scenario, malformed, non-UTF-8 or non-finite
configuration or option, a key set twice, a mode the scenario does not run
in, data it cannot use or whose energy underflows, a ray sigma it cannot
sample, a grid spacing that samples nonzero data to 0, a grid whose buffers
or a step count whose per-step arrays exceed physical memory, a step count
that is not finite, or a setting it never reads) and when a field, a
radiation table or a report value turns non-finite; only a failed write
leaves part of the reports then.  Both commands check what they are given
against the reads of the scenario's record (scenarios.scenario), the
optional config keys it reads: `run` the keys the file sets
(config.set_keys) and `scenario` the key each option sets: --T scenario.T,
--h grid.h, --cfl grid.cfl and --eps data.epsilon.  An option is read by
its key's reader and sets its key's ScenarioConfig field (config.read and
config.settings), as a file line does.  A multi-valued epsilon also sets
scenarios.EPS_LIST.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import (ConfigParseError, ConfigValidationError, epsilons, parse_scenario, read,
                     set_keys, settings)
from .reporting import NonFiniteReportError
from .scenarios import (EPS_LIST, SCENARIOS, UsageError, default_config, run_scenario,
                        scenario)
from .solver import InstabilityError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="desk-scale experiments for a cubic semilinear wave system")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario described by a config file")
    p_run.add_argument("--config", required=True, help="configuration file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sc = sub.add_parser("scenario", help="run a named scenario with its defaults")
    p_sc.add_argument("name", help=f"one of {', '.join(sorted(SCENARIOS))}")
    p_sc.add_argument("--out", default=None, help="output directory")
    p_sc.add_argument("--h", default=None, help="grid spacing override")
    p_sc.add_argument("--cfl", default=None)
    p_sc.add_argument("--T", default=None, help="final time override")
    p_sc.add_argument("--eps", default=None, help="epsilon (scalar or comma list)")
    return parser


# the config key each `wavelab scenario` option sets
_OPTION_KEYS = {"h": "grid.h", "cfl": "grid.cfl", "T": "scenario.T", "eps": "data.epsilon"}
# the required keys, and the output directory every scenario writes to
_UNCHECKED_KEYS = {"scenario.name", "data.epsilon", "scenario.out"}


def _reject_unread(name: str, given: dict) -> None:
    """given maps each config key the user set to the words that name it."""
    reads = scenario(name).reads
    unread = sorted(label for key, label in given.items() if key not in reads)
    if unread:
        raise UsageError(f"scenario {name} does not read {', '.join(unread)}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "run":
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError(f"{args.config}: not UTF-8 text ({exc.reason} "
                                 f"at byte {exc.start})") from None
            config = parse_scenario(text)
            given = {key: key for key in set_keys(text) - _UNCHECKED_KEYS}
            if len(config.eps_list) > 1:
                given[EPS_LIST] = EPS_LIST
            _reject_unread(config.name, given)
        else:
            config = default_config(args.name)
            given, values = {}, {}
            for option, key in _OPTION_KEYS.items():
                text = getattr(args, option)
                if text is not None:
                    given[key] = f"--{option}"
                    try:
                        values[key] = read(key, text)
                    except ValueError as exc:
                        raise UsageError(f"--{option}: {exc}") from None
            overrides = settings(values)
            if "eps_list" in overrides:
                eps = overrides["eps_list"] = epsilons(overrides["eps_list"], "--eps")
                overrides["data"] = config.data.with_epsilon(eps[0])
                if len(eps) > 1:
                    given[EPS_LIST] = "--eps with more than one value"
            _reject_unread(args.name, given)
            if overrides:
                config = replace(config, **overrides)
        # an unstable run ends in InstabilityError: its one line is the report,
        # not numpy's overflow and invalid-value warnings on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            summary = run_scenario(config, out_dir=args.out)
    except (ConfigParseError, ConfigValidationError, UsageError, OSError, InstabilityError,
            FloatingPointError, NonFiniteReportError) as exc:
        print(f"wavelab: {exc}", file=sys.stderr)
        return 2

    for item in summary["assertions"]:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"[{status}] {item['name']}: value={item['value']:.6g} "
              f"{item['op']} {item['threshold']:.6g}")
    print(f"scenario {summary['scenario']}: "
          f"{'all assertions passed' if summary['passed'] else 'FAILED'}")
    return 0 if summary["passed"] else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
