"""Command line interface.

One JSON config file names the inputs (metadata, sonnet texts,
annotation files, lexicons); flags override the run-level choices (key
mode, output directory, report format).  Each subcommand runs one
:class:`~versemood.pipeline.Session` over the reports that
``pipeline.COMMANDS`` lists for it and writes delimited reports plus
JSON mirrors into the output directory:

    stats      corpus_stats          word counts and per-tag totals
    agree      agreement             alpha per feature and annotator pair
    coverage   word_counts, coverage lexicon coverage of the corpus
    features   features              the 32-feature matrix
    validate   bivariate, partial_dependence, anova
    all        everything above

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

from .pipeline import COMMANDS, FORMATS, ReportWriter, Session
from .textnorm import MODES, InputError

__all__ = ["main"]

_HELP = {
    "stats": "corpus word-count statistics and per-tag totals",
    "coverage": "lexicon coverage of the corpus vocabulary",
    "agree": "inter-annotator agreement table",
    "features": "per-sonnet feature matrix",
    "validate": "bivariate, regression, and ANOVA reports",
    "all": "every report in one run",
}


class _Parser(argparse.ArgumentParser):
    # Argument errors are input errors, exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="versemood",
        description="Affective profiling of Spanish sonnets from lexical norms.",
    )
    sub = parser.add_subparsers(dest="command", metavar="|".join(_HELP))
    for name, help_text in _HELP.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--mode", choices=MODES, help="key mode override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--format", choices=FORMATS, help="report format override")
        p.add_argument(
            "--missing-words",
            action="store_true",
            help="also emit the missing-words report (coverage and all)",
        )
        p.add_argument(
            "--log-decisions",
            action="store_true",
            help="write fallbacks and degenerate cells to decisions.log in the output directory",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 2 when any computation degenerated",
        )
    return parser


def _run(args: argparse.Namespace) -> int:
    reports = [
        name for name in COMMANDS[args.command]
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
    try:
        return _run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
