"""Tests for the checkpoint/restore layer (repro.state + save_state).

The contracts under test (docs/checkpoint.md):

- every generation's full simulator state survives a
  ``save_state`` -> JSON -> ``restore`` round trip exactly;
- a run interrupted at an arbitrary instruction and resumed in a fresh
  simulator is *bit-identical* to an uninterrupted run — stats, window
  series, and the traced event stream;
- one checkpoint document can be restored any number of times (the
  warmup memo hands the same document to many restores);
- ``repro.run(..., warmup=N)`` only reschedules work — results never
  change — and a traced run captures only the measured suffix, from a
  spec or a materialized ``Trace`` alike.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

import repro
from repro.config import GENERATION_ORDER
from repro.core import GenerationSimulator
from repro.engine import clear_caches
from repro.metrics import WINDOW_COUNTERS
from repro.observe.events import InstEvent, events_to_jsonl
from repro.observe.sink import TraceSink
from repro.state import (CHECKPOINT_SCHEMA_VERSION, checkpoint_to_json,
                         save_checkpoint, validate_checkpoint)
from repro.traces import TraceSpec


def _trace(family="specint_like", seed=7, n=6000):
    return TraceSpec(family=family, seed=seed, n_instructions=n).build()


def _json_roundtrip(doc):
    return json.loads(checkpoint_to_json(doc))


# ---------------------------------------------------------------------------
# state_dict round trips: every generation, whole simulator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen", GENERATION_ORDER)
def test_save_state_roundtrips_through_json(gen):
    trace = _trace()
    sim = GenerationSimulator(gen)
    sim.run(trace.slice(0, 2500), finalize=False)
    doc = _json_roundtrip(sim.save_state())
    assert doc["schema"] == CHECKPOINT_SCHEMA_VERSION
    assert doc["generation"] == gen
    assert doc["instructions"] == 2500

    fresh = GenerationSimulator(gen)
    fresh.restore(doc)
    # The restored simulator checkpoints to the identical document.
    assert checkpoint_to_json(fresh.save_state()) == \
        checkpoint_to_json(doc)


def test_restore_rejects_mismatched_simulator():
    trace = _trace(n=3000)
    sim = GenerationSimulator("M5")
    sim.run(trace.slice(0, 1000), finalize=False)
    doc = sim.save_state()

    with pytest.raises(ValueError, match="generation"):
        GenerationSimulator("M4").restore(doc)
    with pytest.raises(ValueError, match="corunners"):
        GenerationSimulator("M5", corunners=2).restore(doc)
    bad = dict(doc)
    bad["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        validate_checkpoint(bad)
    # Schema 1 also kept a ledger copy of the energy counts and the UOC
    # cursor outside the UOC; this build does not read it.
    with pytest.raises(ValueError, match="schema 1"):
        GenerationSimulator("M5").restore(dict(doc, schema=1))
    # An energy event outside the ledger's table, or any counter the
    # simulator does not have, is refused, not silently created.
    unknown = _json_roundtrip(doc)
    unknown["components"]["metrics"]["counters"]["energy.bogus"] = 1
    with pytest.raises(ValueError, match="energy.bogus"):
        GenerationSimulator("M5").restore(unknown)


# ---------------------------------------------------------------------------
# Interrupted == uninterrupted, bit for bit
# ---------------------------------------------------------------------------

#: Window counters with the energy the legacy front end (M1-M4)
#: charges per fetched block.
ENERGY_WINDOW_COUNTERS = WINDOW_COUNTERS + ("energy.icache_fetch",
                                            "energy.decode")


@pytest.mark.parametrize("gen,counters", [
    pytest.param(gen, counters, id=gen + suffix)
    for suffix, counters in (("", None), ("-energy", ENERGY_WINDOW_COUNTERS))
    for gen in ("M3", "M6")])
def test_interrupted_run_is_bit_identical(gen, counters):
    trace = _trace(family="loop_kernel", seed=11, n=6000)
    windows = {"window_counters": counters}

    sink_full = TraceSink()
    full = GenerationSimulator(gen, trace_sink=sink_full).run(trace,
                                                              **windows)

    sink_a = TraceSink()
    first = GenerationSimulator(gen, trace_sink=sink_a)
    first.run(trace.slice(0, 2200), finalize=False, **windows)
    prefix_events = sink_a.events()
    doc = _json_roundtrip(first.save_state())

    sink_b = TraceSink()
    resumed = GenerationSimulator(gen, trace_sink=sink_b)
    resumed.restore(doc)
    result = resumed.run(trace.slice(2200), **windows)

    assert result.core.cycles == full.core.cycles
    assert result.metrics.as_dict() == full.metrics.as_dict()
    assert [w.to_dict() for w in result.windows] == \
        [w.to_dict() for w in full.windows]
    # Sequence numbering continues across the restore, so the two
    # streams concatenate into the uninterrupted one byte for byte.
    assert events_to_jsonl(prefix_events + sink_b.events()) == \
        events_to_jsonl(full.events)


def test_one_checkpoint_restores_many_times():
    trace = _trace(n=4000)
    sim = GenerationSimulator("M6")
    sim.run(trace.slice(0, 1500), finalize=False)
    doc = _json_roundtrip(sim.save_state())

    runs = []
    for _ in range(2):  # restore() must never mutate the document
        resumed = GenerationSimulator("M6")
        resumed.restore(doc)
        runs.append(resumed.run(trace.slice(1500)))
    assert runs[0].core.cycles == runs[1].core.cycles
    assert runs[0].metrics.as_dict() == runs[1].metrics.as_dict()


# ---------------------------------------------------------------------------
# Warmup-snapshot reuse through repro.run
# ---------------------------------------------------------------------------

def test_run_warmup_is_bit_identical_and_memoized(monkeypatch):
    spec = ("loop_kernel", 5, 5000)
    base = repro.run(spec, "M5")
    clear_caches()
    simulated = []
    real_run = GenerationSimulator.run

    def counting_run(self, trace, **kwargs):
        simulated.append(len(trace))
        return real_run(self, trace, **kwargs)

    monkeypatch.setattr(GenerationSimulator, "run", counting_run)
    warm1 = repro.run(spec, "M5", warmup=2000)
    assert simulated == [2000, 3000]
    warm2 = repro.run(spec, "M5", warmup=2000)
    assert simulated == [2000, 3000, 3000]  # memo hit: suffix only
    for warm in (warm1, warm2):
        assert warm.core.cycles == base.core.cycles
        assert warm.metrics.as_dict() == base.metrics.as_dict()
        assert [w.to_dict() for w in warm.windows] == \
            [w.to_dict() for w in base.windows]


def test_materialized_trace_warmup_traces_only_the_suffix():
    spec = TraceSpec("specint_like", 11, 5000)
    from_spec = repro.run(spec, "M6", warmup=1500, trace_to=True)
    from_trace = repro.run(spec.build(), "M6", warmup=1500, trace_to=True)
    assert min(e.index for e in from_trace.events
               if isinstance(e, InstEvent)) == 1500
    assert events_to_jsonl(from_trace.events) == \
        events_to_jsonl(from_spec.events)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def _checkpoint(instructions):
    sim = GenerationSimulator("M1")
    sim.run(_trace(n=2000).slice(0, instructions), finalize=False)
    return sim.save_state()


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt.json"
    save_checkpoint(path, _checkpoint(500))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_checkpoint(path, _checkpoint(1000))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp


def test_saved_checkpoint_has_the_mode_open_gives(tmp_path):
    saved, plain = tmp_path / "run.ckpt.json", tmp_path / "plain.json"
    save_checkpoint(saved, _checkpoint(500))
    with open(plain, "w"):
        pass
    assert stat.S_IMODE(saved.stat().st_mode) == \
        stat.S_IMODE(plain.stat().st_mode)
