"""``python -m repro tracediff`` — first-divergence trace comparison."""

from __future__ import annotations

import argparse
import sys

NAME = "tracediff"
HELP = ("align two generations' event streams for one workload and "
        "report the first divergent event")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", default=None,
                        help="trace spec as family:seed:length, "
                             "e.g. specint_like:1:6000 (omit with "
                             "--streams)")
    parser.add_argument("--a", default="M1", metavar="GEN",
                        help="baseline generation (default M1)")
    parser.add_argument("--b", default="M6", metavar="GEN",
                        help="comparison generation (default M6)")
    parser.add_argument("--streams", nargs=2, metavar=("A", "B"),
                        default=None,
                        help="diff two persisted streams (chunked "
                             "directories or flat .jsonl files) instead "
                             "of simulating")
    parser.add_argument("--json", action="store_true",
                        help="emit the divergence report as JSON")


def run(args: argparse.Namespace) -> int:
    import json

    from ..observe import diff_event_streams, render_tracediff

    if args.streams:
        from ..observe import load_events
        path_a, path_b = args.streams
        a_events = load_events(path_a)
        b_events = load_events(path_b)
        diff = diff_event_streams(a_events, b_events,
                                  a_label=path_a, b_label=path_b,
                                  workload=args.spec or "")
    else:
        if args.spec is None:
            print("tracediff: a family:seed:length spec is required "
                  "unless --streams is given", file=sys.stderr)
            return 2
        from ..engine import run as run_one
        from .common import parse_trace_spec
        try:
            spec = parse_trace_spec(args.spec)
        except ValueError:
            print(f"bad trace spec {args.spec!r}; expected "
                  f"family:seed:length (e.g. specint_like:1:6000)",
                  file=sys.stderr)
            return 2
        gen_a, gen_b = args.a.upper(), args.b.upper()
        a, b = (run_one(spec, gen, trace_to=True) for gen in (gen_a, gen_b))
        diff = diff_event_streams(a.events, b.events,
                                  a_label=gen_a, b_label=gen_b,
                                  workload=a.trace_name)

    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_tracediff(diff))
    return 0
