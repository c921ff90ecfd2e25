"""Tests for chunked trace streaming (repro.observe.stream).

The contracts under test (docs/observability.md):

- chunks hold exactly ``chunk_events`` events and the manifest's event
  counts agree with the files on disk;
- a traced run round-trips losslessly through a stream (manifest count
  == emitted, read back in order from seq 0);
- for a fixed seed the event stream, and the chunk bytes written from
  it, are identical whether the run happened in-process or inside a
  worker process;
- ``repro.run(..., trace_to=...)`` captures over every target flavor.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.observe import (InstEvent, MANIFEST_NAME, STREAM_SCHEMA_VERSION,
                           StreamingTraceSink, TraceSink, events_from_jsonl,
                           events_to_jsonl, load_events, read_manifest,
                           trace)
from repro.traces.spec import TraceSpec
from repro.traces.workloads import make_trace


def _emit_n(sink, n):
    for i in range(n):
        sink.emit(InstEvent(seq=-1, cycle=float(i), index=i))


# ---------------------------------------------------------------------------
# StreamingTraceSink: chunk rollover + manifest integrity
# ---------------------------------------------------------------------------

def test_chunk_rollover_and_manifest_integrity(tmp_path):
    d = tmp_path / "stream"
    sink = StreamingTraceSink(d, chunk_events=8, meta={"gen": "M6"})
    _emit_n(sink, 20)  # 8 + 8 + 4
    manifest = sink.close()

    files = sorted(p.name for p in d.iterdir())
    assert files == [MANIFEST_NAME, "trace-000001.jsonl",
                     "trace-000002.jsonl", "trace-000003.jsonl"]
    assert manifest == {
        "schema": STREAM_SCHEMA_VERSION,
        "chunk_events": 8,
        "events": 20,
        "chunks": [{"file": f"trace-00000{i}.jsonl", "events": n}
                   for i, n in ((1, 8), (2, 8), (3, 4))],
        "meta": {"gen": "M6"},
    }
    # The on-disk manifest is the same document.
    assert read_manifest(d) == manifest
    # Read-back preserves order and count; the chunks concatenate into
    # one flat event stream.
    events = load_events(d)
    assert [e.seq for e in events] == list(range(20))
    flat = "".join((d / c["file"]).read_text() for c in manifest["chunks"])
    assert flat == events_to_jsonl(events) + "\n"


def test_streaming_sink_close_is_idempotent_and_seals(tmp_path):
    sink = StreamingTraceSink(tmp_path / "s", chunk_events=4)
    _emit_n(sink, 5)
    first = sink.close()
    assert sink.close() == first
    with pytest.raises(ValueError):
        sink.emit(InstEvent(seq=-1, cycle=0.0, index=0))


def test_streaming_sink_rejects_bad_chunk_size(tmp_path):
    with pytest.raises(ValueError):
        StreamingTraceSink(tmp_path / "s", chunk_events=0)


def test_load_events_detects_chunk_truncation(tmp_path):
    d = tmp_path / "s"
    with StreamingTraceSink(d, chunk_events=4) as sink:
        _emit_n(sink, 8)
    chunk = d / "trace-000001.jsonl"
    lines = chunk.read_text().splitlines()
    chunk.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="manifest says"):
        load_events(d)


def test_read_manifest_rejects_unknown_schema(tmp_path):
    d = tmp_path / "s"
    with StreamingTraceSink(d, chunk_events=4) as sink:
        _emit_n(sink, 2)
    doc = json.loads((d / MANIFEST_NAME).read_text())
    doc["schema"] = STREAM_SCHEMA_VERSION + 1
    (d / MANIFEST_NAME).write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported trace stream"):
        read_manifest(d)


# ---------------------------------------------------------------------------
# A traced run round-trips losslessly through a stream
# ---------------------------------------------------------------------------

def test_traced_run_roundtrips_losslessly_through_chunks(tmp_path):
    trace_obj = make_trace("specint_like", seed=3, n_instructions=6000)
    config = get_generation("M4")

    stream_dir = tmp_path / "full"
    sink = StreamingTraceSink(stream_dir, chunk_events=1024)
    GenerationSimulator(config, trace_sink=sink).run(
        trace_obj, window_interval=0)
    manifest = sink.close()
    memory = repro.run(trace_obj, config, trace_to=True).events

    # Several chunks, none lost: manifest count == emitted, and the
    # read-back is the complete in-order sequence from seq 0 — the same
    # stream the in-memory sink holds.
    assert len(manifest["chunks"]) > 1
    assert manifest["events"] == sink.emitted == len(memory)
    assert sum(c["events"] for c in manifest["chunks"]) == sink.emitted
    events = load_events(stream_dir)
    assert [e.seq for e in events] == list(range(sink.emitted))
    assert events_to_jsonl(events) == events_to_jsonl(memory)


def test_sink_is_unbounded():
    sink = TraceSink()
    _emit_n(sink, 5000)
    assert sink.emitted == len(sink) == 5000
    assert [e.seq for e in sink.events()] == list(range(5000))


# ---------------------------------------------------------------------------
# Determinism: in-process vs worker-produced streams are byte-identical
# ---------------------------------------------------------------------------

def _traced_jsonl(spec: TraceSpec, gen: str) -> str:
    return events_to_jsonl(repro.run(spec, gen, trace_to=True).events)


def test_stream_serial_vs_workers_byte_identical(tmp_path):
    jobs = [(TraceSpec("loop_kernel", 3, 3000), gen)
            for gen in ("M1", "M4", "M6")]
    # Spawned workers start from a fresh import: nothing is inherited.
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        parallel = list(pool.map(_traced_jsonl, *zip(*jobs)))
    serial = [_traced_jsonl(*job) for job in jobs]
    assert parallel == serial
    assert len(set(serial)) == len(jobs)  # the generations do differ

    def persist(texts, where):
        for i, text in enumerate(texts):
            with StreamingTraceSink(where / str(i),
                                    chunk_events=512) as sink:
                for event in events_from_jsonl(text):
                    sink.emit(event)

    persist(serial, tmp_path / "serial")
    persist(parallel, tmp_path / "parallel")
    for i in range(len(jobs)):
        a_dir = tmp_path / "serial" / str(i)
        b_dir = tmp_path / "parallel" / str(i)
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert len(a_files) > 2  # a manifest and several chunks
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        for name in a_files:
            assert (a_dir / name).read_bytes() == \
                (b_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# The public capture API: trace() and run(trace_to=...)
# ---------------------------------------------------------------------------

def test_trace_none_yields_unbounded_memory_sink():
    with trace() as sink:
        assert isinstance(sink, TraceSink)


def test_trace_jsonl_path_writes_flat_file(tmp_path):
    path = tmp_path / "events.jsonl"
    with trace(path) as sink:
        _emit_n(sink, 3)
    assert path.read_text() == events_to_jsonl(sink.events()) + "\n"
    assert [e.seq for e in load_events(path)] == [0, 1, 2]


def test_trace_directory_streams_and_closes(tmp_path):
    d = tmp_path / "stream"
    with trace(d, meta={"k": "v"}) as sink:
        assert isinstance(sink, StreamingTraceSink)
        _emit_n(sink, 5)
    assert sink.closed
    manifest = read_manifest(d)
    assert manifest["events"] == 5
    assert manifest["meta"] == {"k": "v"}
    assert len(load_events(d)) == 5


def test_run_trace_to_jsonl_writes_the_captured_stream(tmp_path):
    path = tmp_path / "out" / "events.jsonl"
    r = repro.run(("specint_like", 1, 2000), "M6", trace_to=path)
    assert r.events
    assert path.read_text() == events_to_jsonl(r.events) + "\n"


def test_run_trace_to_directory_persists_stream(tmp_path):
    d = tmp_path / "run_stream"
    r = repro.run(("specint_like", 1, 2000), "M6", trace_to=d)
    manifest = read_manifest(d)
    assert manifest["events"] > 0
    assert manifest["meta"]["generation"] == "M6"
    assert manifest["meta"]["trace"] == r.trace_name
    events = load_events(d)
    assert len(events) == manifest["events"]


def test_run_trace_to_true_captures_in_memory():
    r = repro.run(("specint_like", 1, 2000), "M6", trace_to=True)
    assert len(r.events) > 0
    assert r.events[0].seq == 0


def test_run_trace_to_none_keeps_tracing_off():
    r = repro.run(("specint_like", 1, 2000), "M6")
    assert len(r.events) == 0


def test_run_trace_to_never_changes_timing(tmp_path):
    base = repro.run(("loop_kernel", 2, 2500), "M5")
    traced = repro.run(("loop_kernel", 2, 2500), "M5",
                       trace_to=tmp_path / "s")
    assert traced.ipc == base.ipc
    assert traced.core.cycles == base.core.cycles
    assert traced.mpki == base.mpki
