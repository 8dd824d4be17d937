"""volterra-lq command line interface.

Usage:
    volterra-lq run --config path/to/run.cfg
    volterra-lq list-problems
    volterra-lq list-scenarios
    volterra-lq clear-cache [--cache-dir DIR]

`run` executes the configured scenario, writes CSV artifacts and a JSON
report into the output directory, prints one line per check, and exits 0
exactly when every check passed; 1 means a check failed, 2 bad input (one
`error:` line), 3 an unexpected error (traceback, then `internal error:`).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .cache import cache_dir, clear_cache
from .catalog import get_problem, problem_names
from .config import SCENARIOS, load_config
from .errors import AssumptionError, ConfigError, NumericalError
from .scenarios import run_scenario


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.outdir:
        cfg.outdir = args.outdir
    report = run_scenario(cfg)
    print(f"scenario {report.scenario} on {report.problem}")
    for line in report.summary_lines():
        print(line)
    print(f"artifacts in {cfg.outdir} ({'ok' if report.passed else 'FAILED'})")
    return 0 if report.passed else 1


def _cmd_list_problems(_args) -> int:
    for name in problem_names():
        entry = get_problem(name, beta=0.75, T=1.0, seed=0)
        print(f"{name:16s} {entry.description}")
    return 0


def _cmd_list_scenarios(_args) -> int:
    for name, description in SCENARIOS.items():
        print(f"{name:18s} {description}")
    return 0


def _cmd_clear_cache(args) -> int:
    removed = clear_cache(args.cache_dir)
    print(f"removed {removed} cached kernel file(s) from {cache_dir(args.cache_dir)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="volterra-lq",
        description="linear-quadratic control of weakly singular Volterra equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("--config", required=True, help="path to the key=value config")
    p_run.add_argument("--outdir", help="override the configured output directory")
    p_run.set_defaults(func=_cmd_run)

    p_lp = sub.add_parser("list-problems", help="print the problem catalog")
    p_lp.set_defaults(func=_cmd_list_problems)

    p_ls = sub.add_parser("list-scenarios", help="print the available scenarios")
    p_ls.set_defaults(func=_cmd_list_scenarios)

    p_cc = sub.add_parser("clear-cache", help="delete cached kernel files")
    p_cc.add_argument("--cache-dir", help="cache directory override")
    p_cc.set_defaults(func=_cmd_clear_cache)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AssumptionError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
