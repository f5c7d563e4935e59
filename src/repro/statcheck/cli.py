"""Command-line front end of the analyzer.

Reached two ways -- ``repro-dvfs check ...`` and ``python -m
repro.statcheck ...`` -- both share :func:`add_arguments` /
:func:`run_checked`.  Exit codes are part of the contract (CI diagnoses
failures from them):

* ``0`` -- analysis ran, no findings;
* ``1`` -- analysis ran, findings reported;
* ``2`` -- the analyzer itself failed (bad usage, unknown rule,
  unreadable path, or an internal crash).
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import time
from typing import List, Optional

from repro.statcheck.engine import AnalysisReport, Analyzer
from repro.statcheck.registry import all_rules
from repro.statcheck.reporters import RENDERERS

#: Exit statuses of the ``check`` command.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def default_paths() -> List[str]:
    """Scan ``src/`` when invoked from a checkout root, else the cwd."""
    return ["src"] if os.path.isdir("src") else ["."]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: src/ if present, "
        "else the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_const",
        const="json",
        dest="format",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a run summary (files, per-rule finding counts, "
        "wall time) to stderr; stdout stays pure",
    )


def _split_rules(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _print_stats(report: "AnalysisReport", wall_s: float) -> None:
    """One human summary of the run on stderr (``--stats``)."""
    parts = [f"files={report.files_scanned}"]
    by_rule = collections.Counter(f.rule for f in report.findings)
    if by_rule:
        counts = ",".join(
            f"{rule}:{count}" for rule, count in sorted(by_rule.items())
        )
        parts.append(f"findings={counts}")
    else:
        parts.append("findings=0")
    parts.append(f"rules={len(report.rules)}")
    parts.append(f"wall_s={wall_s:.2f}")
    print("statcheck stats: " + " ".join(parts), file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    """Execute one analysis; may raise (callers map crashes to exit 2)."""
    if args.list_rules:
        for cls in all_rules():
            scope = ", ".join(cls.scope) if cls.scope else "all code"
            print(f"{cls.id}  [{cls.severity.value}]  ({scope})")
            print(f"    {cls.description}")
        return EXIT_CLEAN
    started = time.monotonic()
    try:
        analyzer = Analyzer(
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
        )
        report = analyzer.analyze_paths(args.paths or default_paths())
    except (ValueError, OSError) as exc:
        # bad rule selection or unreadable input: usage error, not findings
        print(f"statcheck: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.stats:
        _print_stats(report, time.monotonic() - started)
    print(RENDERERS[args.format](report))
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def run_checked(args: argparse.Namespace) -> int:
    """:func:`run` with internal crashes mapped to :data:`EXIT_ERROR`.

    A rule bug must fail CI *diagnosably* -- exit 2 with a traceback --
    rather than masquerading as a clean tree or a finding.
    """
    try:
        return run(args)
    except BrokenPipeError:
        # the consumer (e.g. `| head`) closed the pipe: not a crash.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ERROR
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"statcheck: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="AST-based invariant analysis for the repro codebase",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run_checked(build_parser().parse_args(argv))
