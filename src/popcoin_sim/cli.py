"""Command-line entry point.

Subcommands::

    popcoin-sim run <config.json> --out <dir> [--plot-data]
    popcoin-sim validate <config.json>
    popcoin-sim agent <problems.json> [--out <file.csv>] [--alpha A]
    popcoin-sim exchange <scenario.json> [--out <dir>]

Exit codes: 0 on success, 2 for invalid configs or inputs, 3 for a model
invariant violated at runtime. The only environment influence is
POPCOIN_SIM_LOG, which sets stderr log verbosity (debug, info, warning,
error); it never changes outputs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, PopcoinError
from .scenario import (
    AGENT_COLUMNS,
    EXCHANGE_COLUMNS,
    check_alpha,
    load_config,
    normalize_agent_input,
    normalize_exchange_params,
    read_json,
    run_agent_batch,
    run_exchange_grid,
    run_scenario,
    validate_config,
    write_agent_csv,
    write_exchange,
    write_rows,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _configure_logging() -> None:
    level_name = os.environ.get("POPCOIN_SIM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _cmd_run(args) -> int:
    config = load_config(args.config)
    summary = run_scenario(config, args.out, include_plot_data=args.plot_data)
    print(f"wrote {', '.join(summary['files'])} to {summary['out_dir']}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    diagnostics = validate_config(read_json(args.config))
    if diagnostics:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: valid")
    return EXIT_OK


def _cmd_agent(args) -> int:
    problems, alpha = normalize_agent_input(read_json(args.problems))
    if args.alpha is not None:
        problem = check_alpha(args.alpha)
        if problem:
            raise ConfigError([f"--alpha: must {problem}"])
        alpha = args.alpha
    if args.out:
        write_agent_csv(Path(args.out), problems, alpha)
        print(f"wrote {args.out}")
    else:
        write_rows(sys.stdout, AGENT_COLUMNS, run_agent_batch(problems, alpha))
    return EXIT_OK


def _cmd_exchange(args) -> int:
    params = normalize_exchange_params(read_json(args.scenario))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        print(f"wrote {', '.join(write_exchange(out, params))} to {out}")
    else:
        rows, _ = run_exchange_grid(params)
        write_rows(sys.stdout, EXCHANGE_COLUMNS, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popcoin-sim",
        description="Deterministic ledger and economy simulator for a "
        "demurrage-funded basic-income currency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write output files")
    p_run.add_argument("config", help="scenario config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--plot-data", action="store_true", help="also write long-format plot_data.csv"
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config", help="scenario config JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_agent = sub.add_parser("agent", help="solve a batch of two-period problems")
    p_agent.add_argument("problems", help="JSON problem list (or object with 'problems')")
    p_agent.add_argument("--out", help="CSV output path (default stdout)")
    p_agent.add_argument(
        "--alpha", type=float, help="demurrage rate for the tax column (overrides input)"
    )
    p_agent.set_defaults(func=_cmd_agent)

    p_ex = sub.add_parser("exchange", help="run the overshooting grid for a scenario")
    p_ex.add_argument("scenario", help="exchange scenario JSON")
    p_ex.add_argument("--out", help="output directory (default: CSV to stdout)")
    p_ex.set_defaults(func=_cmd_exchange)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        for line in err.diagnostics:
            print(line, file=sys.stderr)
        return EXIT_CONFIG
    except PopcoinError as err:
        # model or ledger guarantee broken at runtime, distinct from bad input
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
