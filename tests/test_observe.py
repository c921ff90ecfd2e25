"""Tests for repro.observe: event capture, exporters, profiling.

The contracts under test (docs/observability.md):

- attaching a sink never changes simulated timing (bit-identity on/off);
- the event stream is deterministic — byte-identical run to run
  (serial vs. worker processes: ``tests/test_stream.py``);
- the Chrome exporter emits valid, schema-complete trace-event JSON;
- the pipeview renderer is a pure function of the event list;
- engine self-profiling fills ``EngineStats.phase_breakdown`` and
  per-task timings without leaking wall-clock into results.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.engine import execute_population
from repro.metrics import WINDOW_COUNTERS
from repro.observe import (BranchEvent, InstEvent, MemEvent, PrefetchEvent,
                           STALL_BUCKETS, TraceSink, UocModeEvent,
                           chrome_trace, chrome_trace_json, describe_profile,
                           event_from_dict, events_from_jsonl,
                           events_to_jsonl, kind_hit_rates,
                           render_event_log, render_pipeview, slowest_tasks,
                           TaskTiming)
from repro.traces.workloads import make_trace


def _traced_run(gen="M5", family="specint_like", seed=3, n=6000):
    return repro.run(make_trace(family, seed=seed, n_instructions=n), gen,
                     trace_to=True)


# ---------------------------------------------------------------------------
# TraceSink
# ---------------------------------------------------------------------------

def test_sink_assigns_monotonic_seq_and_keeps_order():
    sink = TraceSink()
    for cycle in range(5):
        sink.emit(InstEvent(seq=-1, cycle=float(cycle), index=cycle))
    events = sink.events()
    assert [e.seq for e in events] == [0, 1, 2, 3, 4]
    assert sink.emitted == len(sink) == 5


# ---------------------------------------------------------------------------
# Tracing must not perturb simulated timing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen", ["M1", "M3", "M6"])
def test_sink_attached_timing_bit_identical(gen):
    trace = make_trace("specint_like", seed=3, n_instructions=5000)
    plain = GenerationSimulator(get_generation(gen)).run(trace)
    traced = _traced_run(gen=gen, n=5000)
    assert repr(plain.core.cycles) == repr(traced.core.cycles)
    assert repr(plain.ipc) == repr(traced.ipc)
    assert repr(plain.mpki) == repr(traced.mpki)
    assert repr(plain.average_load_latency) == \
        repr(traced.average_load_latency)


def test_untraced_result_has_no_events():
    trace = make_trace("loop_kernel", seed=1, n_instructions=2000)
    result = GenerationSimulator(get_generation("M5")).run(trace)
    assert result.events == []


# ---------------------------------------------------------------------------
# Event stream content
# ---------------------------------------------------------------------------

def test_traced_run_emits_every_family():
    result = _traced_run()
    kinds = {e.EVENT for e in result.events}
    assert {"inst", "branch", "mem", "prefetch"} <= kinds
    insts = [e for e in result.events if isinstance(e, InstEvent)]
    assert len(insts) == 6000  # one per retired micro-op
    assert all(e.stall in STALL_BUCKETS for e in insts)
    assert all(e.fetch <= e.complete for e in insts)
    branches = [e for e in result.events if isinstance(e, BranchEvent)]
    mispredicts = sum(1 for b in branches if b.mispredicted)
    assert mispredicts == result.core.branch_mispredicts
    assert {b.unit for b in branches} <= {"ubtb", "shp", "vpc", "ras",
                                          "mbtb"}
    mems = [e for e in result.events if isinstance(e, MemEvent)]
    assert {m.level for m in mems} <= {"l1", "l1_late", "inflight", "l2",
                                       "l3", "dram"}


def test_uoc_mode_transitions_recorded_on_uoc_generation():
    result = _traced_run(gen="M6", family="loop_kernel", seed=2)
    modes = [e for e in result.events if isinstance(e, UocModeEvent)]
    assert modes, "loop kernel on M6 must exercise the UOC mode machine"
    assert {m.to_mode for m in modes} <= {"filter", "build", "fetch"}
    total = result.metrics.value("uoc.transitions.to_build")
    assert sum(1 for m in modes if m.to_mode == "build") == total


def test_stall_buckets_cover_mispredicts_and_memory():
    result = _traced_run(family="pointer_chase", seed=5)
    insts = [e for e in result.events if isinstance(e, InstEvent)]
    buckets = {e.stall for e in insts}
    assert "memory" in buckets
    assert "mispredict" in buckets


# ---------------------------------------------------------------------------
# Serialization round-trips and determinism
# ---------------------------------------------------------------------------

def test_jsonl_round_trip():
    result = _traced_run(n=2000)
    text = events_to_jsonl(result.events)
    back = events_from_jsonl(text)
    assert back == result.events
    assert events_to_jsonl(back) == text


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        event_from_dict({"event": "nope", "seq": 0, "cycle": 0.0})


def test_same_seed_event_stream_is_byte_identical():
    a = _traced_run(n=3000)
    b = _traced_run(n=3000)
    assert events_to_jsonl(a.events) == events_to_jsonl(b.events)


# ---------------------------------------------------------------------------
# Chrome / Perfetto exporter
# ---------------------------------------------------------------------------

def test_chrome_trace_is_valid_schema_complete_json():
    result = _traced_run(n=2000)
    text = chrome_trace_json(result.events)
    doc = json.loads(text)  # must parse
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert "X" in phases        # stage slices
    assert "M" in phases        # track metadata
    assert {"b", "e"} <= phases  # async memory spans
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= set(e)
        if e["ph"] != "M":
            assert "ts" in e
        if e["ph"] == "X":
            assert e["dur"] >= 0
    # Async begin/end ids must pair up.
    begins = sorted(e["id"] for e in events if e["ph"] == "b")
    ends = sorted(e["id"] for e in events if e["ph"] == "e")
    assert begins == ends


def test_chrome_trace_deterministic():
    result = _traced_run(n=2000)
    assert chrome_trace_json(result.events) == \
        chrome_trace_json(result.events)
    doc = chrome_trace(result.events, generation="M5",
                       trace_name="specint_like-3")
    assert doc["otherData"]["generation"] == "M5"


# ---------------------------------------------------------------------------
# pipeview renderer
# ---------------------------------------------------------------------------

def test_pipeview_renders_selected_window():
    result = _traced_run(n=2000)
    out = render_pipeview(result.events, start=100, count=10)
    lines = out.splitlines()
    assert len(lines) == 12  # header + column row + 10 instructions
    assert "f=fetch d=dispatch i=issue c=complete" in lines[0]
    body = "\n".join(lines[2:])
    for mark in ("i", "c"):
        assert mark in body
    assert "   100 " in lines[2]
    # Pure function: same events, same bytes.
    assert render_pipeview(result.events, start=100, count=10) == out


def test_pipeview_empty_window():
    assert "no instruction events" in render_pipeview([], start=0, count=5)


def test_event_log_renders_all_families():
    result = _traced_run(n=2000)
    out = render_event_log(result.events, limit=50)
    assert len(out.splitlines()) == 50


# ---------------------------------------------------------------------------
# Engine self-profiling
# ---------------------------------------------------------------------------

def test_engine_stats_phase_breakdown_and_timings():
    _result, stats = execute_population(
        n_slices=2, slice_length=1500, seed=11,
        generations=("M1", "M5"), cache="off")
    # The four engine phases are always present; trace preparation adds
    # trace_generate/trace_compile sub-phases when workers built traces
    # this run (depends on what earlier tests left in the trace memo).
    assert {"fingerprint", "cache_lookup", "execute",
            "cache_store"} <= set(stats.phase_breakdown)
    assert set(stats.phase_breakdown) <= {
        "fingerprint", "cache_lookup", "execute", "cache_store",
        "trace_generate", "trace_compile"}
    assert all(v >= 0.0 for v in stats.phase_breakdown.values())
    assert len(stats.task_timings) == stats.executed == 4
    assert all(t.seconds >= 0.0 for t in stats.task_timings)
    assert any("M5" in t.label for t in stats.task_timings)
    text = describe_profile(stats, top=2)
    assert "phase breakdown" in text
    assert "slowest 2 tasks" in text


def test_slowest_tasks_ranking_is_deterministic():
    timings = [TaskTiming("b", 1.0), TaskTiming("a", 1.0),
               TaskTiming("c", 3.0)]
    ranked = slowest_tasks(timings, 2)
    assert [t.label for t in ranked] == ["c", "a"]  # ties break by label


def test_cached_run_reports_no_task_timings():
    kwargs = dict(n_slices=1, slice_length=1500, seed=13,
                  generations=("M1",), cache="memory")
    execute_population(**kwargs)
    _result, stats = execute_population(**kwargs)
    assert stats.cache_hits == stats.tasks_total
    assert "served from cache" in describe_profile(stats)


def test_kind_hit_rates_split_warmup_from_measure():
    # warmup>0 runs two task kinds: one warmup checkpoint per (config,
    # trace) plus the measure-phase population tasks.  Sharing the
    # in-memory cache across two calls leaves the second run all-hit,
    # and the per-kind split must survive the stats absorb().
    kwargs = dict(n_slices=2, slice_length=1500, seed=19,
                  generations=("M1",), cache="memory", warmup=500)
    from repro.engine import clear_caches
    clear_caches()
    _result, cold = execute_population(**kwargs)
    assert cold.kind_stats["population"] == {"hits": 0, "executed": 2}
    assert cold.kind_stats["warmup"] == {"hits": 0, "executed": 2}

    # population + warmup, plus the trace_compile pseudo-kind when
    # compiled traces were prepared during this run.
    lines = kind_hit_rates(cold.kind_stats)
    assert 2 <= len(lines) <= 3
    assert any("population" in line for line in lines)
    assert any("warmup" in line and "0.0% hit" in line for line in lines)
    text = describe_profile(cold)
    assert "cache hit-rate by task kind" in text
    assert "warmup" in text


def test_kind_hit_rates_all_cached_on_rerun(tmp_path):
    kwargs = dict(n_slices=2, slice_length=1500, seed=19,
                  generations=("M1",), cache="disk", warmup=500,
                  cache_dir=tmp_path)
    from repro.engine import clear_caches
    clear_caches()  # cold start: earlier tests share these fingerprints
    execute_population(**kwargs)
    clear_caches()  # drop the population memo: rerun hits the disk tier
    _result, warm = execute_population(**kwargs)
    assert warm.kind_stats["population"] == {"hits": 2, "executed": 0}
    assert warm.kind_stats["warmup"] == {"hits": 2, "executed": 0}
    assert any("100.0% hit" in line
               for line in kind_hit_rates(warm.kind_stats))


# ---------------------------------------------------------------------------
# Configurable window counters
# ---------------------------------------------------------------------------

def test_window_counters_knob_selects_counters():
    trace = make_trace("specint_like", seed=3, n_instructions=4000)
    custom = ("core.instructions", "core.cycles", "mem.l1.hits")
    sim = GenerationSimulator(get_generation("M5"))
    r = sim.run(trace, window_interval=1000, window_counters=custom)
    assert r.windows
    assert all(set(w.values) == set(custom) for w in r.windows)
    # Default stays the standard five.
    r2 = GenerationSimulator(get_generation("M5")).run(
        trace, window_interval=1000)
    assert all(set(w.values) == set(WINDOW_COUNTERS) for w in r2.windows)


@pytest.mark.parametrize("gen,interval", [
    (gen, interval) for gen in ("M1", "M5", "M6") for interval in (1, 7, 500)])
def test_window_counters_never_perturb_timing(gen, interval):
    # Every window boundary ends a front-end pass (at interval 1 the
    # pass runs once per instruction); the windows also read counters
    # the front end owns.
    config = get_generation(gen)
    trace = make_trace("web_like", seed=3, n_instructions=3000)
    counters = WINDOW_COUNTERS + ("frontend.mispredicts",
                                  "frontend.bubbles.total",
                                  "energy.shp_lookup", "energy.icache_fetch")
    if config.uoc_uops:
        counters += ("uoc.fetch_cycles", "uoc.build_cycles")
    base = GenerationSimulator(config).run(trace, window_interval=0)
    custom = GenerationSimulator(config).run(
        trace, window_interval=interval, window_counters=counters)
    assert repr(base.core.cycles) == repr(custom.core.cycles)
    assert base.metrics.as_dict() == custom.metrics.as_dict()
    assert len(custom.windows) == -(-len(trace) // interval)


def test_window_counters_split_population_memo():
    kwargs = dict(n_slices=1, slice_length=1500, seed=17,
                  generations=("M1",), cache="memory")
    default_pop, _ = execute_population(**kwargs)
    custom_pop, _ = execute_population(
        window_counters=("core.instructions", "core.cycles"), **kwargs)
    assert default_pop is not custom_pop
    dw = default_pop.metrics[0].windows[0]
    cw = custom_pop.metrics[0].windows[0]
    assert set(cw.values) == {"core.instructions", "core.cycles"}
    assert set(dw.values) == set(WINDOW_COUNTERS)
