"""``python -m repro tables`` — render Tables I-IV."""

from __future__ import annotations

import argparse

from .common import add_engine_flags, engine_kwargs

NAME = "tables"
HELP = "render Tables I-IV"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", action="store_true",
                        help="also run the population for Table IV")
    parser.add_argument("--slices", type=int, default=24)
    parser.add_argument("--length", type=int, default=12_000)
    add_engine_flags(parser)


def run(args: argparse.Namespace) -> int:
    from ..engine import run_population
    from ..harness import (render_table1, render_table2, render_table3,
                           render_table4)
    print(render_table1())
    print()
    print(render_table2())
    print()
    print(render_table3())
    if args.population:
        pop = run_population(n_slices=args.slices,
                             slice_length=args.length,
                             **engine_kwargs(args))
        print()
        print(render_table4(pop))
    return 0
