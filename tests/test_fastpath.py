"""Tests for compiled traces and throughput plumbing
(docs/performance.md).

The compiled-trace binary format round-trips and fails closed (corrupt
store entries regenerate), the two-slot port tracker issues
bit-identically to the O(ports) scan, and run throughput reaches
engine stats, the ledger and the CLI.  The simulated results themselves
are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.core.scoreboard import _PortGroup
from repro.engine import execute_population
from repro.engine.cache import CTRACE_DIRNAME, CompiledTraceStore
from repro.engine.runner import clear_caches
from repro.engine.tasks import _CTRACE_MEMO, _TRACE_MEMO, _build_compiled
from repro.traces import TraceSpec, make_trace
from repro.traces.compiled import (CompiledTraceError, compile_trace,
                                   compiled_fingerprint, dump_bytes,
                                   load_bytes)


def _fields(rec):
    """TraceRecord as a comparable tuple (records compare by identity)."""
    return (rec.pc, rec.kind, rec.taken, rec.target, rec.addr, rec.size,
            rec.src1_dist, rec.src2_dist)


def _all_fields(trace_like):
    return [_fields(r) for r in trace_like]


# ---------------------------------------------------------------------------
# Port group: two-slot tracker == reference first-minimum scan
# ---------------------------------------------------------------------------

class _NaivePortGroup:
    """The pre-optimisation issue policy: rescan every port, pick the
    first minimum."""

    def __init__(self, count):
        self.free = [0.0] * max(1, count)

    def issue(self, ready, occupancy=1.0):
        best = 0
        for i in range(1, len(self.free)):
            if self.free[i] < self.free[best]:
                best = i
        t = max(self.free[best], ready)
        self.free[best] = t + occupancy
        return t


@pytest.mark.parametrize("ports", [1, 2, 3, 4])
def test_port_group_matches_reference_scan(ports):
    rng = random.Random(1234 + ports)
    tracked, ref = _PortGroup(ports), _NaivePortGroup(ports)
    ready = 0.0
    for _ in range(3000):
        ready = max(0.0, ready + rng.uniform(-0.5, 1.5))
        occupancy = rng.choice([1.0, 1.0, 2.0, 12.0])
        assert tracked.issue(ready, occupancy) == ref.issue(ready, occupancy)
        assert tracked.free == ref.free


def test_port_group_rescan_after_bulk_edit():
    group = _PortGroup(3)
    group.free[:] = [7.0, 2.0, 5.0]
    group._rescan()
    assert group.issue(0.0) == 2.0  # picks the true minimum, port 1


# ---------------------------------------------------------------------------
# CompiledTrace: decode-once columns and the binary round trip
# ---------------------------------------------------------------------------

def test_compile_trace_preserves_every_record():
    trace = make_trace("specint_like", seed=3, n_instructions=4000)
    compiled = compile_trace(trace)
    assert len(compiled) == len(trace)
    assert compiled.branch_count == trace.branch_count
    assert _all_fields(compiled) == _all_fields(trace.records)
    # Exact field types: the branch unit sees Kind members and bools.
    rec = next(r for r in compiled if r.taken)
    assert isinstance(rec.taken, bool)
    assert rec.kind.__class__ is trace.records[0].kind.__class__


def test_compiled_slice_matches_trace_slice():
    trace = make_trace("pointer_chase", seed=5, n_instructions=3000)
    compiled = compile_trace(trace)
    sub, ref = compiled.slice(500, 2000), trace.slice(500, 2000)
    assert _all_fields(sub) == _all_fields(ref.records)


def test_dump_load_roundtrip():
    trace = make_trace("specfp_like", seed=9, n_instructions=2500)
    compiled = compile_trace(trace)
    loaded = load_bytes(dump_bytes(compiled))
    assert loaded.name == compiled.name
    assert loaded.family == compiled.family
    assert loaded.seed == compiled.seed
    for col in ("pc", "kind", "taken", "target", "addr", "size",
                "src1", "src2", "line", "is_branch"):
        assert list(getattr(loaded, col)) == list(getattr(compiled, col))
    assert _all_fields(loaded.to_trace().records) == \
        _all_fields(trace.records)


@pytest.mark.parametrize("mutate", [
    lambda b: b"XXXX" + b[4:],                    # wrong magic
    lambda b: b[:40],                             # truncated header
    lambda b: b[:-8],                             # truncated body
    lambda b: b + b"\x00" * 8,                    # trailing bytes
    lambda b: b[:-4] + bytes(x ^ 0xFF for x in b[-4:]),  # flipped body
])
def test_load_bytes_rejects_corruption(mutate):
    compiled = compile_trace(make_trace("specint_like", seed=1,
                                        n_instructions=600))
    with pytest.raises(CompiledTraceError):
        load_bytes(mutate(dump_bytes(compiled)))


# ---------------------------------------------------------------------------
# Compiled-trace store: disk reuse and regeneration fallback
# ---------------------------------------------------------------------------

def _store_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_STORE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def test_store_round_trip_and_hit_counters(tmp_path):
    store = CompiledTraceStore(tmp_path)
    compiled = compile_trace(make_trace("specint_like", seed=2,
                                        n_instructions=800))
    fp = compiled_fingerprint("specint_like", 2, 800)
    assert store.get(fp) is None and store.misses == 1
    store.put(fp, compiled)
    got = store.get(fp)
    assert got is not None and store.hits == 1
    assert _all_fields(got) == _all_fields(compiled)


def test_build_compiled_regenerates_over_corrupt_store(monkeypatch,
                                                       tmp_path):
    _store_env(monkeypatch, tmp_path)
    spec = TraceSpec(family="specint_like", seed=21, n_instructions=1200)
    _CTRACE_MEMO.clear()
    first = _build_compiled(spec.to_dict())
    blobs = list(tmp_path.glob(f"{CTRACE_DIRNAME}/*/*.ctrace"))
    assert len(blobs) == 1

    # Corrupt the blob; a fresh process (cleared memo) must fall back to
    # regeneration, produce identical records, and rewrite the entry.
    blobs[0].write_bytes(b"RPCT garbage that is not a compiled trace")
    _CTRACE_MEMO.clear()
    again = _build_compiled(spec.to_dict())
    assert _all_fields(again) == _all_fields(first)
    repaired = blobs[0].read_bytes()
    assert repaired[:4] == b"RPCT" and len(repaired) > 100
    assert _all_fields(load_bytes(repaired)) == _all_fields(first)


def test_store_disk_hit_skips_regeneration(monkeypatch, tmp_path):
    _store_env(monkeypatch, tmp_path)
    spec = TraceSpec(family="pointer_chase", seed=8, n_instructions=1000)
    _CTRACE_MEMO.clear()
    first = _build_compiled(spec.to_dict())
    _CTRACE_MEMO.clear()  # simulate a fresh worker process
    from repro.engine.tasks import _TRACE_STATS
    before = dict(_TRACE_STATS)
    second = _build_compiled(spec.to_dict())
    assert _TRACE_STATS["store_hits"] == before["store_hits"] + 1
    assert _TRACE_STATS["generated"] == before["generated"]
    assert _all_fields(second) == _all_fields(first)


def test_cache_dir_roots_the_compiled_trace_store(monkeypatch, tmp_path):
    """``cache_dir=`` roots both disk tiers, whatever
    ``$REPRO_CACHE_DIR`` says."""
    root, env_root = tmp_path / "a", tmp_path / "b"
    _store_env(monkeypatch, env_root)
    clear_caches()
    for memo in (_TRACE_MEMO, _CTRACE_MEMO):
        memo.clear()
    execute_population(n_slices=2, slice_length=1000, generations=["M1"],
                       cache="disk", cache_dir=root, ledger=False)
    assert len(list(root.glob("tasks/*/*.json"))) == 2
    assert len(list(root.glob(f"{CTRACE_DIRNAME}/*/*.ctrace"))) == 2
    assert not list(env_root.glob("**/*.ctrace"))


# ---------------------------------------------------------------------------
# Observability: throughput lands in stats, ledger, profile, CLI
# ---------------------------------------------------------------------------

def test_engine_stats_track_instructions_and_kips():
    clear_caches()
    _, stats = execute_population(n_slices=1, slice_length=2000,
                                  generations=("M1",), cache="off")
    assert stats.instructions_total == 2000
    assert stats.instructions_executed == 2000
    assert stats.kips > 0.0
    text = __import__("repro.observe.profile",
                      fromlist=["describe_profile"]).describe_profile(stats)
    assert "trace prep:" in text
    assert "throughput:" in text and "kips" in text


def test_ledger_records_and_cli_show_kips(tmp_path, capsys, monkeypatch):
    import argparse

    from repro.cli import runs as runs_cli
    from repro.observe.ledger import read_ledger

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    repro.run(("specint_like", 17, 2000), "M3", ledger=True)
    records = read_ledger(tmp_path)
    assert len(records) == 1
    engine = records[0]["engine"]
    assert engine["instructions"] == 2000
    assert engine["kips"] > 0.0

    parser = argparse.ArgumentParser()
    runs_cli.configure_parser(parser)
    args = parser.parse_args(["--cache-dir", str(tmp_path), "list"])
    assert runs_cli.run(args) == 0
    out = capsys.readouterr().out
    assert "1 ledger records" in out
    assert "k" in out.splitlines()[-1]  # the KIPS column
