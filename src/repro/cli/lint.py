"""``python -m repro lint`` — simlint static analysis.

Exit codes: ``0`` when there are no findings and no parse errors;
``1`` on any finding not silenced by an inline ``# simlint: disable=``
comment, or on an unparsable file; ``2`` on a usage error (argparse's
convention).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..analysis import all_rules, render_human, run_lint

NAME = "lint"
HELP = "simlint: determinism & simulation-safety checks"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: src)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:28s} [{rule.severity}] "
                  f"{rule.description}")
        return 0
    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    result = run_lint(paths, select=_split(args.select),
                      ignore=_split(args.ignore))
    try:
        print(render_human(result))
    except BrokenPipeError:  # reader (e.g. `| head`) closed early
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0 if result.ok else 1
