"""Command-line front end: validate scenarios, run them, emit examples.

Exit codes: 0 success, 1 I/O failure, 2 invalid scenario or usage.
"""

from __future__ import annotations

import argparse
import sys

from .engine import Simulation
from .errors import ValidationError
from .scenario import EXAMPLE_KINDS, example_scenario, load_scenario, scenario_to_json


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    if not args.quiet:
        print(f"{args.scenario}: ok")
    return 0


def _cmd_run(args) -> int:
    sim = Simulation(load_scenario(args.scenario), seed=args.seed)
    final_tick = sim.run_until_idle()
    if args.trace:
        sim.write_trace(args.trace)
    if args.stats:
        sim.write_stats(args.stats)
    if not args.quiet:
        sessions = sim.stats()["sessions"]
        print(f"sessions: {sessions['established']} established, "
              f"{sessions['failed']} failed | final tick {final_tick}")
    return 0


def _cmd_example(args) -> int:
    sys.stdout.write(scenario_to_json(example_scenario(args.kind)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnet",
        description="Deterministic simulator of an entanglement-signaling data network.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="path to the scenario JSON file")
    p_validate.add_argument("--quiet", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario to completion")
    p_run.add_argument("scenario", help="path to the scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--trace", metavar="PATH",
                       help="write the newline-delimited trace here")
    p_run.add_argument("--stats", metavar="PATH",
                       help="write the run statistics here")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the summary line")
    p_run.set_defaults(func=_cmd_run)

    p_example = sub.add_parser("example", help="print a ready-to-run scenario")
    p_example.add_argument("kind", choices=EXAMPLE_KINDS)
    p_example.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        for finding in exc.findings:
            print(f"invalid: {finding}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
