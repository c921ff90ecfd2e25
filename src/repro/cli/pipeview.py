"""``python -m repro pipeview`` — pipeline timeline + exports."""

from __future__ import annotations

import argparse
import sys

NAME = "pipeview"
HELP = ("traced pipeline timeline (gem5-o3-pipeview-style) + "
        "Chrome/Perfetto export")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="trace spec as family:seed:length, "
                                     "e.g. specint_like:1:8000")
    parser.add_argument("--gen", default="M6", help="M1..M6")
    parser.add_argument("--start", type=int, default=0,
                        help="first trace index to render")
    parser.add_argument("--count", type=int, default=40,
                        help="instructions (or events with --events) to "
                             "render")
    parser.add_argument("--width", type=int, default=48,
                        help="timeline band width in columns")
    parser.add_argument("--events", action="store_true",
                        help="flat event log instead of the stage timeline")
    parser.add_argument("--chrome", default=None, metavar="OUT.json",
                        help="also export a Chrome trace-event JSON "
                             "(with per-window counter tracks)")
    parser.add_argument("--save", default=None, metavar="OUT.jsonl",
                        help="also dump the raw event stream as JSONL")
    parser.add_argument("--stream", default=None, metavar="DIR",
                        help="persist the stream as chunked JSONL + "
                             "manifest under DIR (read back with "
                             "repro.observe.load_events)")


def run(args: argparse.Namespace) -> int:
    from ..engine import run as run_one
    from ..observe import (chrome_trace_json, events_to_jsonl, load_events,
                           read_manifest, render_event_log, render_pipeview)
    from .common import parse_trace_spec

    try:
        spec = parse_trace_spec(args.spec)
    except ValueError:
        print(f"bad trace spec {args.spec!r}; expected family:seed:length "
              f"(e.g. specint_like:1:8000)", file=sys.stderr)
        return 2
    gen = args.gen.upper()
    # The run's default windows feed the Chrome counter tracks.
    r = run_one(spec, gen, trace_to=args.stream or True)
    events = load_events(args.stream) if args.stream else r.events

    print(f"{gen} on {r.trace_name}: {spec.n_instructions} uops, "
          f"ipc {r.ipc:.3f}; {len(events)} events recorded")
    if args.events:
        print(render_event_log(events, limit=args.count))
    else:
        print(render_pipeview(events, start=args.start, count=args.count,
                              width=args.width))
    if args.chrome:
        with open(args.chrome, "w") as f:
            f.write(chrome_trace_json(events, windows=r.windows))
        print(f"chrome trace written to {args.chrome} "
              f"(load in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            f.write(events_to_jsonl(events) + "\n")
        print(f"events written to {args.save}", file=sys.stderr)
    if args.stream:
        chunks = len(read_manifest(args.stream)["chunks"])
        print(f"chunked stream written to {args.stream} "
              f"({len(events)} events, {chunks} chunks)", file=sys.stderr)
    return 0
