"""repro.observe — pipeline event tracing and engine self-profiling.

The observability layer: opt-in pipeline event capture that the
scoreboard, branch unit, uop-cache controller and memory hierarchy emit
lifecycle events into, started by ``repro.run(..., trace_to=...)`` —
in memory (:class:`TraceSink`) or as a chunked on-disk stream
(:class:`StreamingTraceSink`), read back with :func:`load_events`;
generation-over-generation divergence analysis
(:func:`diff_event_streams`, the ``python -m repro tracediff``
subcommand); exporters for Chrome/Perfetto
(:func:`chrome_trace_json`, with per-window counter tracks) and a
gem5-pipeview-style ASCII timeline (:func:`render_pipeview`, the
``python -m repro pipeview`` subcommand); and the engine
self-profiling report types behind ``python -m repro population
--profile``.

Contracts (``docs/observability.md``):

- default off, ``None``-guarded at every emission site — with tracing
  disabled, simulated results are bit-identical to an uninstrumented
  build and wall-clock overhead stays within 2%
  (``benchmarks/test_observe_overhead.py``);
- tracing never perturbs simulated timing — events only *read* values
  the model computed anyway;
- deterministic — for a fixed seed the event stream is byte-identical
  (:func:`events_to_jsonl`) across serial and worker execution.
"""

from .chrome import (  # noqa: F401
    chrome_trace,
    chrome_trace_json,
    window_counter_events,
)
from .events import (  # noqa: F401
    STALL_BUCKETS,
    BranchEvent,
    InstEvent,
    MemEvent,
    PrefetchEvent,
    TraceEvent,
    UocModeEvent,
    event_from_dict,
    events_from_jsonl,
    events_to_jsonl,
)
from .ledger import (  # noqa: F401
    LEDGER_SCHEMA_VERSION,
    append_record,
    compare_records,
    find_record,
    gc_ledger,
    ledger_enabled,
    ledger_path,
    read_ledger,
    record_id,
)
from .pipeview import render_event_log, render_pipeview  # noqa: F401
from .profile import (  # noqa: F401
    PHASES,
    TaskTiming,
    describe_profile,
    kind_hit_rates,
    slowest_tasks,
)
from .sink import TraceSink  # noqa: F401
from .stream import (  # noqa: F401
    DEFAULT_CHUNK_EVENTS,
    MANIFEST_NAME,
    STREAM_SCHEMA_VERSION,
    StreamingTraceSink,
    load_events,
    read_manifest,
    trace,
)
from .telemetry import (  # noqa: F401
    TELEMETRY_SCHEMA_VERSION,
    TelemetryConfig,
    TelemetryMonitor,
    start_watchdog,
    write_status_file,
)
from .tracediff import (  # noqa: F401
    DIVERGENCE_CLASSES,
    Divergence,
    TraceDiff,
    diff_event_streams,
    render_tracediff,
)

__all__ = [
    "STALL_BUCKETS",
    "TraceEvent",
    "InstEvent",
    "BranchEvent",
    "MemEvent",
    "PrefetchEvent",
    "UocModeEvent",
    "event_from_dict",
    "events_to_jsonl",
    "events_from_jsonl",
    "TraceSink",
    "StreamingTraceSink",
    "DEFAULT_CHUNK_EVENTS",
    "MANIFEST_NAME",
    "STREAM_SCHEMA_VERSION",
    "read_manifest",
    "load_events",
    "trace",
    "DIVERGENCE_CLASSES",
    "Divergence",
    "TraceDiff",
    "diff_event_streams",
    "render_tracediff",
    "chrome_trace",
    "chrome_trace_json",
    "window_counter_events",
    "render_pipeview",
    "render_event_log",
    "PHASES",
    "TaskTiming",
    "describe_profile",
    "kind_hit_rates",
    "slowest_tasks",
    "LEDGER_SCHEMA_VERSION",
    "ledger_enabled",
    "ledger_path",
    "append_record",
    "read_ledger",
    "find_record",
    "gc_ledger",
    "compare_records",
    "record_id",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryConfig",
    "TelemetryMonitor",
    "start_watchdog",
    "write_status_file",
]
