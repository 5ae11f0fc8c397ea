"""Command line interface.

One JSON config file names the inputs (metadata, sonnet texts,
annotation files, lexicons); flags override the run-level choices (key
mode, output directory, report format), before or after the command.
Each command runs one :class:`~versemood.pipeline.Session` over the
reports that ``COMMANDS`` lists for it (``versemood --help`` lists the
commands) and writes delimited reports plus JSON mirrors into the
output directory.

This module parses arguments, asks the session for the decisions log,
prints what was written, and maps outcomes to exit codes: 0 on success,
1 on input errors, 2 when --strict is set and a computation degenerated
(non-computable regression rows, degenerate agreement cells, undefined
correlations, ANOVA combinations skipped or without within-group variance).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .pipeline import FORMATS, REPORTS, ReportWriter, Session
from .textnorm import MODES, InputError

__all__ = ["COMMANDS", "main"]

# Command -> its help line and its reports; missing_words is written only when asked for.
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "stats": ("corpus word-count statistics and per-tag totals", ("corpus_stats",)),
    "coverage": (
        "lexicon coverage of the corpus vocabulary", ("word_counts", "coverage", "missing_words")
    ),
    "agree": ("inter-annotator agreement table", ("agreement",)),
    "features": ("per-sonnet feature matrix", ("features",)),
    "validate": (
        "bivariate, regression, and ANOVA reports", ("bivariate", "partial_dependence", "anova")
    ),
    "all": ("every report in one run", tuple(REPORTS)),
}


class _Parser(argparse.ArgumentParser):
    # Argument errors are input errors, exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    commands = "".join(f"  {name:<9} {text}\n" for name, (text, _) in COMMANDS.items())
    parser = _Parser(
        prog="versemood",
        description="Affective profiling of Spanish sonnets from lexical norms.",
        epilog="commands:\n" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="one of the commands below")
    parser.add_argument("--config", help="path to the JSON run config (required)")
    parser.add_argument("--mode", choices=MODES, help="key mode override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--format", choices=FORMATS, help="report format override")
    parser.add_argument(
        "--missing-words",
        action="store_true",
        help="also emit the missing-words report (coverage and all)",
    )
    parser.add_argument(
        "--log-decisions",
        action="store_true",
        help="write fallbacks and degenerate cells to decisions.log in the output directory",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any computation degenerated",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    reports = [
        name for name in COMMANDS[args.command][1]
        if name != "missing_words" or args.missing_words
    ]
    session = Session(
        args.config, reports, mode=args.mode, out_dir=args.out, fmt=args.format
    )
    writer = ReportWriter(session.config.out_dir, session.config.format)
    degenerate = session.write(writer, args.log_decisions)
    for path in writer.written:
        print(f"wrote {path}")
    if degenerate:
        print(f"{degenerate} degenerate or skipped computations", file=sys.stderr)
        if args.strict:
            return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    if args.config is None:  # checked here, so that no command at all prints the usage alone
        parser.error("the following arguments are required: --config")
    try:
        return _run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
