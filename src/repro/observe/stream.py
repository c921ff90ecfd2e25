"""Chunked trace streaming, the trace reader, and the capture targets.

:class:`StreamingTraceSink` spills the event stream to disk in bounded,
sorted-key JSONL chunks, so a run's trace need not fit in memory::

    trace_dir/
        trace-000001.jsonl      # chunk_events events, one JSON line each
        trace-000002.jsonl
        ...
        manifest.json           # per-chunk event counts + stream totals

Chunks hold exactly ``chunk_events`` events (the final one may be
partial) in emission order, serialized through the same canonical
:func:`~repro.observe.events.events_to_jsonl` form as everything else
in the tracing layer — so for a fixed seed the on-disk bytes are
identical whether the events were produced serially or inside a worker
process, and ``cat trace-*.jsonl`` is itself a valid event stream.

:func:`load_events` reads either layout back — a stream directory or a
flat ``.jsonl`` file — checking each chunk's event count against the
manifest (truncation) and the manifest's schema.

:func:`trace` turns a ``repro.run(..., trace_to=...)`` target into the
right sink and guarantees the flush/manifest write on exit.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, List, Optional, Union

from ..atomic import atomic_write
from .events import TraceEvent, events_from_jsonl, events_to_jsonl
from .sink import TraceSink

#: Bump when the manifest/chunk layout changes.  History: 1 = per-chunk
#: seq ranges, byte sizes and offsets, and a chunk codec; 2 = JSONL
#: chunks indexed by file name and event count only.
STREAM_SCHEMA_VERSION = 2

#: Events per chunk file.  Small enough that a chunk is a cheap unit of
#: IO and diffing, large enough that a full default CLI run stays in a
#: handful of files.
DEFAULT_CHUNK_EVENTS = 16384

MANIFEST_NAME = "manifest.json"
_CHUNK_TEMPLATE = "trace-{:06d}.jsonl"


class StreamingTraceSink:
    """Spills the event stream to disk in bounded JSONL chunks.

    Drop-in for :class:`TraceSink` at every emission site (producers
    only call ``emit``): events are buffered up to ``chunk_events`` and
    flushed as numbered chunk files; :meth:`close` flushes the final
    partial chunk and writes the manifest.

    ``meta`` (generation name, trace name, ...) is carried verbatim
    into the manifest for later identification; it must be JSON-safe.
    """

    def __init__(self, directory: Union[str, os.PathLike],
                 chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.directory = os.fspath(directory)
        self.chunk_events = int(chunk_events)
        self.meta = dict(meta) if meta else {}
        #: Total events emitted into the stream.
        self.emitted = 0
        self.closed = False
        self._buffer: List[TraceEvent] = []
        self._chunks: List[Dict[str, Any]] = []
        os.makedirs(self.directory, exist_ok=True)

    def emit(self, event: TraceEvent) -> None:
        """Stamp ``event`` with the next sequence number and buffer it."""
        if self.closed:
            raise ValueError("cannot emit into a closed stream")
        event.seq = self.emitted
        self.emitted += 1
        self._buffer.append(event)
        if len(self._buffer) >= self.chunk_events:
            self._flush_chunk()

    def events(self) -> List[TraceEvent]:
        """The not-yet-flushed tail (interface parity with TraceSink).

        The durable record is on disk; use :func:`load_events` on the
        directory after :meth:`close` for the full stream.
        """
        return list(self._buffer)

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        name = _CHUNK_TEMPLATE.format(len(self._chunks) + 1)
        with open(os.path.join(self.directory, name), "w") as f:
            f.write(events_to_jsonl(self._buffer) + "\n")
        self._chunks.append({"file": name, "events": len(self._buffer)})
        self._buffer = []

    def manifest(self) -> Dict[str, Any]:
        """The manifest document (chunk index + stream totals)."""
        return {
            "schema": STREAM_SCHEMA_VERSION,
            "chunk_events": self.chunk_events,
            "events": self.emitted,
            "chunks": list(self._chunks),
            "meta": dict(self.meta),
        }

    def close(self) -> Dict[str, Any]:
        """Flush the final partial chunk and write ``manifest.json``."""
        if not self.closed:
            self._flush_chunk()
            self.closed = True
            text = json.dumps(self.manifest(), indent=2,
                              sort_keys=True) + "\n"
            atomic_write(os.path.join(self.directory, MANIFEST_NAME), text)
        return self.manifest()

    def __enter__(self) -> "StreamingTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.emitted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamingTraceSink({self.directory!r}, "
                f"chunk_events={self.chunk_events}, "
                f"emitted={self.emitted}, chunks={len(self._chunks)})")


# ---------------------------------------------------------------------------
# Reading a persisted stream back
# ---------------------------------------------------------------------------

def read_manifest(directory: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load and validate a stream directory's ``manifest.json``."""
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != STREAM_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace stream schema {schema!r} "
            f"(this build reads {STREAM_SCHEMA_VERSION})")
    return doc


def load_events(path: Union[str, os.PathLike]) -> List[TraceEvent]:
    """Every event of a persisted stream, oldest first: a chunked
    stream directory (``manifest.json`` present) or a flat ``.jsonl``
    event file.  Raises ``ValueError`` if a chunk's event count
    disagrees with the manifest (truncation/corruption check)."""
    path = os.fspath(path)
    if not os.path.isdir(path):
        with open(path) as f:
            return events_from_jsonl(f.read())
    events: List[TraceEvent] = []
    for entry in read_manifest(path)["chunks"]:
        with open(os.path.join(path, entry["file"])) as f:
            chunk = events_from_jsonl(f.read())
        if len(chunk) != entry["events"]:
            raise ValueError(
                f"chunk {entry['file']} holds {len(chunk)} events, "
                f"manifest says {entry['events']}")
        events.extend(chunk)
    return events


# ---------------------------------------------------------------------------
# Capture targets
# ---------------------------------------------------------------------------

TraceTarget = Union[None, str, os.PathLike]


@contextlib.contextmanager
def trace(target: TraceTarget = None, *,
          meta: Optional[Dict[str, Any]] = None):
    """Context manager yielding the sink for a ``trace_to`` target.

    - ``None`` — an in-memory :class:`TraceSink` (read ``result.events``
      afterwards);
    - a ``*.jsonl`` path — in-memory capture, written as one flat
      sorted-key JSONL file on exit;
    - any other path — a directory: a :class:`StreamingTraceSink`
      writing chunked JSONL + manifest there, closed on exit (``meta``
      goes into the manifest).

    ``repro.run(..., trace_to=...)`` is the way to use it::

        repro.run(("specint_like", 1), "M6", trace_to="run_trace/")
    """
    if target is None:
        yield TraceSink()
        return
    path = os.fspath(target)
    if path.endswith(".jsonl"):
        sink = TraceSink()
        try:
            yield sink
        finally:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "w") as f:
                text = events_to_jsonl(sink.events())
                f.write(text + "\n" if text else text)
        return
    with StreamingTraceSink(path, meta=meta) as streaming:
        yield streaming
