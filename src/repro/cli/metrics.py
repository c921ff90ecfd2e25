"""``python -m repro metrics`` — stat dump, window series, diffs."""

from __future__ import annotations

import argparse

from ..traces import FAMILIES, TraceSpec

NAME = "metrics"
HELP = "hierarchical stat dump + window series"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="specint_like",
                        choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--gen", default="M6", help="M1..M6")
    parser.add_argument("--window", type=int, default=2000,
                        help="window interval in instructions (0 disables)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="windows to mark/exclude as warmup")
    parser.add_argument("--json", action="store_true",
                        help="emit the schema-versioned JSON document")
    parser.add_argument("--window-counters", default=None,
                        help="comma-separated registry counters the window "
                             "series should snapshot (default: standard "
                             "eight incl. stall buckets)")
    parser.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                        default=None,
                        help="diff two saved --json documents instead of "
                             "running a simulation (population archives: "
                             "`repro regress`)")
    parser.add_argument("--top", type=int, default=0,
                        help="with --diff: keep only the N largest relative "
                             "movers (0 = all, lexicographic)")


def run(args: argparse.Namespace) -> int:
    import json

    from ..config import get_generation
    from ..core import GenerationSimulator
    from ..engine.results import RESULT_SCHEMA_VERSION
    from ..metrics import window_metric_series

    if args.diff:
        path_a, path_b = args.diff
        with open(path_a) as f:
            doc_a = json.load(f)
        with open(path_b) as f:
            doc_b = json.load(f)
        if any(isinstance(doc.get("metrics"), list)
               for doc in (doc_a, doc_b)):
            print("error: population archives are compared by "
                  f"`repro regress {path_a} {path_b}`; metrics --diff "
                  "takes two single-run --json documents")
            return 2
        from ..metrics import diff_metric_documents, render_metric_diff
        diff = diff_metric_documents(doc_a, doc_b)
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_metric_diff(diff, top=args.top))
        return 0

    spec = TraceSpec(args.family, args.seed, args.length)
    trace = spec.build()
    gen = args.gen.upper()
    counters = (tuple(args.window_counters.split(","))
                if args.window_counters else None)
    sim = GenerationSimulator(get_generation(gen))
    r = sim.run(trace, window_interval=args.window,
                window_counters=counters)

    if args.json:
        doc = {
            "schema": RESULT_SCHEMA_VERSION,
            "generation": gen,
            "trace": spec.to_dict(),
            "window_interval": args.window,
            "warmup_windows": args.warmup,
            "metrics": sim.metrics.as_dict(),
            "windows": [w.to_dict() for w in r.windows],
            "series": {
                attr: window_metric_series(r.windows, attr,
                                           warmup=args.warmup)
                for attr in ("ipc", "mpki", "average_load_latency")
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print(f"{gen} on {trace.name}: {len(trace)} uops, "
          f"ipc {r.ipc:.3f}, mpki {r.mpki:.2f}, "
          f"avg load latency {r.average_load_latency:.1f}")
    print()
    print(sim.metrics.dump())
    if r.windows:
        print()
        print(f"windows (interval={args.window} instructions; first "
              f"{args.warmup} marked as warmup):")
        print(f"  {'#':>3s} {'instrs':>13s} {'IPC':>7s} {'MPKI':>7s} "
              f"{'load-lat':>9s}")
        for w in r.windows:
            tag = "  warmup" if w.index < args.warmup else ""
            print(f"  {w.index:3d} {w.start_instruction:6d}-"
                  f"{w.end_instruction:<6d} {w.ipc:7.3f} {w.mpki:7.2f} "
                  f"{w.average_load_latency:9.1f}{tag}")
    return 0
