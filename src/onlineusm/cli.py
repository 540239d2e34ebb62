"""Command-line entry point.

Subcommands: simulate-usm, simulate-balance, offline, verify.  Exit
codes: 0 success, 1 configuration error, 2 runtime error, 3 the
submodularity verifier found a violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, InvalidInstanceError, SizeError, UsmError
from .harness import SUBROUTINE_NAMES, ExperimentConfig, run_experiment, write_results


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route everything through ConfigError
    # so the documented exit code (1) applies.
    def error(self, message: str):
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser, *, alpha_default: str) -> None:
    p.add_argument("--rounds", type=int, required=True, help="rounds per trial (required)")
    p.add_argument("--subroutine", default="balancer", choices=SUBROUTINE_NAMES)
    p.add_argument("--alpha", type=float, default=None,
                   help=f"regret factor in (0, 1]; default {alpha_default}")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="result file; summary prints to stdout either way")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--workers", type=int, default=1,
                   help="must be 1: trials run in one process (accepted so existing command lines still run)")
    p.add_argument("--summary-only", action="store_true", help="omit per-round rows from the output file")


def _add_usm(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="ground set size (required)")
    p.add_argument("--adversary", default=None,
                   help="cycle-random:k=4[,density=..] | fixed-random[:density=..] | "
                        "fresh-random[:density=..] | cycle-files:a.dg;b.dg | fixed-file:a.dg | "
                        "adaptive:punish-last-set")
    p.add_argument("--keep-transcripts", action="store_true",
                   help="retain round transcripts and add replay diagnostics to the summary (json)")
    _add_common(p, alpha_default="0.5")


def _add_balance(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adversary", default=None,
                   help="pattern:<string over U,R,L> | adaptive:punish-last | adaptive:reward-chase")
    _add_common(p, alpha_default="1")


def _add_offline(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default=None, help="graph file; omit to generate a random instance")
    p.add_argument("--n", type=int, default=None, help="size of the random instance")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10000, help="randomized double-greedy repetitions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="json", choices=["json"])


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file to verify")
    p.add_argument("--samples", type=int, default=None,
                   help="randomized triples instead of the exhaustive check (needed for n > 16)")
    p.add_argument("--seed", type=int, default=0)


#: subcommand name -> (help line, function that adds its arguments), in help order
COMMANDS = {
    "simulate-usm": ("online submodular maximization game", _add_usm),
    "simulate-balance": ("balance subproblem game", _add_balance),
    "offline": ("offline baselines on one instance", _add_offline),
    "verify": ("submodularity check of a graph file's cut function", _add_verify),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by a new parser that fills in only the subcommand run.

    argparse hands the arguments after the first one naming a subcommand
    (an option string cannot name one) to that subcommand's parser, and no
    other subparser formats any output, so only that one gets its
    arguments.  When ``argv[0]`` names it, that parser is built alone,
    with the prog ``add_subparsers`` would give it, and parses the rest.
    Otherwise (``--help``, no arguments, an unknown name, an option first)
    the top-level parser registers every name, so that its help and its
    choice errors list all four.  Help texts, usage lines, error messages
    and exit codes are those of one parser holding every argument.
    Nothing is kept between calls: a one-shot command builds its parser
    once anyway.
    """
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"onlineusm {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    parser = _Parser(prog="onlineusm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (help_line, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == run:
            add_arguments(p)
    return parser.parse_args(argv)


def parse_config(argv) -> ExperimentConfig:
    args = _parse_args(list(argv))
    game = {"simulate-usm": "usm", "simulate-balance": "balance"}.get(args.command, args.command)
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    workers = fields.pop("workers", 1)
    if workers != 1:
        raise ConfigError(f"--workers must be 1, got {workers}: trials run in one process")
    return ExperimentConfig(game=game, **fields).validated()


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        columns, summary = run_experiment(config)
        if config.output:
            write_results(columns, summary, config.format, config.output,
                          config=config, summary_only=config.summary_only)
            rows = 0 if config.summary_only else len(columns["trial"])
            print(f"wrote {rows} rows to {config.output}", file=sys.stderr)
        print(json.dumps(summary, indent=1))
        if config.game == "verify" and not summary["passed"]:
            return 3
        return 0
    except (ConfigError, SizeError, InvalidInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsmError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
