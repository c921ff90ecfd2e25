"""``python -m repro simulate`` — one (family, seed, generation) run."""

from __future__ import annotations

import argparse

from ..config import GENERATION_ORDER
from ..engine import run as run_one
from ..engine.tasks import _build_compiled
from ..traces import FAMILIES, Kind, TraceSpec

NAME = "simulate"
HELP = "simulate one workload"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="specint_like",
                        choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--gen", default="all",
                        help="M1..M6 or 'all'")


def run(args: argparse.Namespace) -> int:
    spec = TraceSpec(args.family, args.seed, args.length)
    # Memoized: every run below, given the spec, reuses this compiled
    # trace and the rows the branch unit caches on it.
    trace = _build_compiled(spec.to_dict())
    gens = [args.gen.upper()] if args.gen != "all" else list(GENERATION_ORDER)
    print(f"workload {trace.name}: {len(trace)} uops, "
          f"{trace.branch_count} branches, "
          f"{trace.kind.count(Kind.LOAD)} loads")
    print(f"{'gen':4s} {'IPC':>6s} {'MPKI':>7s} {'load-lat':>9s} "
          f"{'bubbles/br':>11s} {'dram':>6s}")
    for g in gens:
        r = run_one(spec, g)
        print(f"{g:4s} {r.ipc:6.2f} {r.mpki:7.2f} "
              f"{r.average_load_latency:9.1f} "
              f"{r.branch.bubbles_per_branch:11.2f} "
              f"{r.memory.dram_accesses:6d}")
    return 0
