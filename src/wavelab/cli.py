"""Command line entry points.

    wavelab run --config FILE --out DIR
    wavelab scenario NAME --out DIR [--h H] [--cfl C] [--T T] [--eps LIST]

Exit status: 0 when every scenario assertion passes, 1 on assertion failure,
2 on usage errors (unknown scenario, malformed configuration or option, or
an override the scenario never reads; see scenarios.IGNORED_OVERRIDES).  A
config file key counts as the override it stands for: scenario.T as --T,
grid.h as --h, grid.cfl as --cfl, and a multi-valued data.epsilon as an
--eps list.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigParseError, ConfigValidationError, parse_scenario, set_keys
from .scenarios import (EPS_LIST, IGNORED_OVERRIDES, SCENARIOS, UsageError,
                        default_config, run_scenario)


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
    p_sc.add_argument("--h", type=float, default=None, help="grid spacing override")
    p_sc.add_argument("--cfl", type=float, default=None)
    p_sc.add_argument("--T", type=float, default=None, help="final time override")
    p_sc.add_argument("--eps", default=None, help="epsilon (scalar or comma list)")
    return parser


# config file keys that stand for a `wavelab scenario` override
_FILE_OVERRIDES = {"scenario.T": "--T", "grid.h": "--h", "grid.cfl": "--cfl"}


def _reject_ignored(name: str, given: dict) -> None:
    """given maps each override the user gave to the words that name it."""
    ignored = sorted(label for flag, label in given.items()
                     if flag in IGNORED_OVERRIDES.get(name, ()))
    if ignored:
        raise UsageError(f"scenario {name} does not read {', '.join(ignored)}")


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--eps: cannot parse {text!r} as a number list") from None
    if not eps:
        raise UsageError(f"--eps: empty epsilon list {text!r}")
    if not all(e > 0 for e in eps):
        raise UsageError(f"--eps: every epsilon must be positive, got {text!r}")
    return eps


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "run":
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
            config = parse_scenario(text)
            keys = set_keys(text)
            given = {flag: key for key, flag in _FILE_OVERRIDES.items() if key in keys}
            if len(config.eps_list) > 1:
                given[EPS_LIST] = "data.epsilon with more than one value"
            _reject_ignored(config.name, given)
        else:
            config = default_config(args.name)
            overrides = {key: getattr(args, key) for key in ("h", "cfl", "T")
                         if getattr(args, key) is not None}
            given = {f"--{key}" for key in overrides}
            if args.eps is not None:
                eps = _parse_eps(args.eps)
                overrides["eps_list"] = eps
                overrides["data"] = config.data.with_epsilon(eps[0])
                given |= {"--eps", EPS_LIST} if len(eps) > 1 else {"--eps"}
            _reject_ignored(args.name, {flag: flag for flag in given})
            if overrides:
                config = replace(config, **overrides)
    except (ConfigParseError, ConfigValidationError, UsageError, OSError) as exc:
        print(f"wavelab: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run_scenario(config, out_dir=args.out)
    except (UsageError, OSError) as exc:
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
