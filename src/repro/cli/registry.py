"""The declarative subcommand registry behind ``python -m repro``.

Each command lives in its own module under :mod:`repro.cli` and
registers itself as a :class:`Command` — ``(name, help,
configure_parser, run)`` — in :data:`COMMANDS`.  The parser, the
dispatch loop and the README command table are all derived from that
one tuple, so adding a subcommand is one new module plus one entry
here; nothing else grows.

``run`` callables return the process exit code (int).  Argument
surfaces and exit codes are identical to the pre-package monolithic
``repro/__main__.py`` — that module is now a shim over this registry.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import (checkpoint, families, fig1, lint, metrics, pipeview,
               population, regress, report, runs, simulate, tables,
               tracediff)


@dataclass(frozen=True)
class Command:
    """One subcommand: its name, one-line help, and the two hooks."""

    name: str
    help: str
    configure_parser: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


def _command(module) -> Command:
    """Adapt a command module (NAME/HELP/configure_parser/run)."""
    return Command(name=module.NAME, help=module.HELP,
                   configure_parser=module.configure_parser,
                   run=module.run)


#: Every subcommand, in CLI listing order.
COMMANDS: Tuple[Command, ...] = tuple(_command(m) for m in (
    simulate,
    tables,
    population,
    fig1,
    report,
    families,
    metrics,
    pipeview,
    tracediff,
    checkpoint,
    runs,
    regress,
    lint,
))


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser, built from the registry."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Exynos M-series microarchitecture reproduction "
                    "(ISCA 2020)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        parser = sub.add_parser(cmd.name, help=cmd.help)
        cmd.configure_parser(parser)
        parser.set_defaults(func=cmd.run)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def command_table() -> str:
    """The CLI command table as GitHub markdown, straight from the
    registry — the README section between the ``cli-table`` markers is
    this string (``tests/test_cli_registry.py`` pins the two equal)."""
    lines = ["| Command | What it does |", "|---|---|"]
    for cmd in COMMANDS:
        lines.append(f"| `python -m repro {cmd.name}` | {cmd.help} |")
    return "\n".join(lines)
