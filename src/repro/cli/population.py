"""``python -m repro population`` — Figures 9/16/17 + summary."""

from __future__ import annotations

import argparse
import sys

from ..config import GENERATION_ORDER
from .common import add_engine_flags, engine_kwargs

NAME = "population"
HELP = "Figures 9/16/17 + summary"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slices", type=int, default=24)
    parser.add_argument("--length", type=int, default=12_000)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--profile", action="store_true",
                        help="report engine phase/task wall-time breakdown "
                             "(forces --no-cache so tasks actually execute)")
    parser.add_argument("--profile-top", type=int, default=10,
                        help="slowest tasks to list with --profile")
    parser.add_argument("--save", default=None, metavar="POP.json",
                        help="also write the population archive JSON "
                             "(the `repro regress` input format)")
    add_engine_flags(parser)


def run(args: argparse.Namespace) -> int:
    from ..engine import execute_population
    from ..harness import (figure9_mpki, figure16_load_latency, figure17_ipc,
                           figure_windowed_ipc, overall_summary,
                           render_curves)
    kwargs = engine_kwargs(args)
    if args.profile:
        # Cached tasks carry no timings; profiling wants executed ones.
        kwargs["cache"] = "off"
    pop, stats = execute_population(n_slices=args.slices,
                                    slice_length=args.length,
                                    seed=args.seed, **kwargs)
    print(render_curves(figure17_ipc(pop), "FIG 17 - IPC per slice"))
    print()
    print(render_curves(figure9_mpki(pop),
                        "FIG 9 - MPKI per slice (clipped at 20)"))
    print()
    print(render_curves(figure16_load_latency(pop),
                        "FIG 16 - avg load latency per slice"))
    print()
    print(render_curves(figure_windowed_ipc(pop),
                        "FIG W - IPC per window (warmup excluded)"))
    s = overall_summary(pop)
    print("\nsummary:")
    for g in GENERATION_ORDER:
        print(f"  {g}: ipc {s[g]['ipc']:.2f}  mpki {s[g]['mpki']:.2f}  "
              f"load-lat {s[g]['load_latency']:.1f}")
    print(f"  IPC growth/yr: {s['summary']['ipc_growth_per_year_pct']:.1f}% "
          f"(paper 20.6%)")
    print(f"  engine: {stats.describe()}", file=sys.stderr)
    if args.save:
        from ..serialization import population_to_json
        with open(args.save, "w") as f:
            f.write(population_to_json(pop))
        print(f"  archive written to {args.save}", file=sys.stderr)
    if args.profile:
        from ..observe import describe_profile
        print()
        print(describe_profile(stats, top=args.profile_top))
    return 0
