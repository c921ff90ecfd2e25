"""Tests for trace divergence analysis (repro.observe.tracediff).

Contracts (docs/observability.md): streams of the *same* seeded
workload align by instruction index / event ordinal; identical
configurations produce no divergence; differing generations report the
earliest divergent event (min sequence number, class rank breaking
ties) plus a per-class census; persisted streams diff identically to
in-memory ones.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.observe import (DIVERGENCE_CLASSES, diff_event_streams,
                           load_events, render_tracediff)


def _events(gen, family="specint_like", seed=1, n=6000):
    return repro.run((family, seed, n), gen, trace_to=True).events


def test_identical_generations_do_not_diverge():
    a = _events("M4")
    b = _events("M4")
    diff = diff_event_streams(a, b, a_label="M4", b_label="M4(bis)",
                              workload="specint_like-1")
    assert not diff.diverged
    assert diff.first is None
    assert diff.total_divergences == 0
    assert diff.counts == {}
    text = render_tracediff(diff)
    assert "no divergence" in text


def test_m1_vs_m3_reports_first_divergence_on_branchy_family():
    a = _events("M1", family="dense_branch", seed=2, n=5000)
    b = _events("M3", family="dense_branch", seed=2, n=5000)
    diff = diff_event_streams(a, b, a_label="M1", b_label="M3",
                              workload="dense_branch-2")
    assert diff.diverged
    first = diff.first
    assert first is not None
    assert first.kind in DIVERGENCE_CLASSES
    assert first.seq >= 0
    assert first.instruction >= 0  # anchored to a retired micro-op
    # Census is consistent with itself.
    assert sum(diff.counts.values()) == diff.total_divergences
    assert diff.counts[first.kind] >= 1
    # Determinism: the diff is a pure function of the event lists.
    again = diff_event_streams(a, b, a_label="M1", b_label="M3",
                               workload="dense_branch-2")
    assert again.to_dict() == diff.to_dict()
    text = render_tracediff(diff)
    assert "first divergence" in text
    assert first.kind in text


def test_divergence_classes_census_covers_known_pair():
    a = _events("M1")
    b = _events("M3")
    diff = diff_event_streams(a, b, a_label="M1", b_label="M3",
                              workload="specint_like-1")
    assert diff.diverged
    assert set(diff.counts) <= set(DIVERGENCE_CLASSES)
    # Timing-only fields are deliberately not divergence classes: the
    # same workload on two machines of the same generation agrees.
    assert "inst.cycle" not in DIVERGENCE_CLASSES


def test_structural_mismatch_is_its_own_class():
    a = _events("M4", family="specint_like", seed=1, n=3000)
    b = _events("M4", family="loop_kernel", seed=1, n=3000)
    diff = diff_event_streams(a, b, a_label="A", b_label="B",
                              workload="mixed")
    assert diff.diverged
    assert diff.first.kind == "stream.structure"


def test_persisted_stream_diff_equals_in_memory(tmp_path):
    mem = {}
    for gen in ("M1", "M3"):
        d = tmp_path / gen
        repro.run(("specint_like", 1, 6000), gen, trace_to=d)
        mem[gen] = _events(gen)
        assert len(load_events(d)) == len(mem[gen])
    disk = diff_event_streams(load_events(tmp_path / "M1"),
                              load_events(tmp_path / "M3"),
                              a_label="M1", b_label="M3",
                              workload="specint_like-1")
    ram = diff_event_streams(mem["M1"], mem["M3"],
                             a_label="M1", b_label="M3",
                             workload="specint_like-1")
    assert disk.to_dict() == ram.to_dict()


def test_to_dict_round_trip_fields():
    a = _events("M1", n=4000)
    b = _events("M3", n=4000)
    diff = diff_event_streams(a, b, a_label="M1", b_label="M3",
                              workload="specint_like-1")
    doc = diff.to_dict()
    assert doc["a"] == "M1" and doc["b"] == "M3"
    assert doc["counts"] == diff.counts
    assert doc["compared"]["inst"] == 4000
    json.dumps(doc)  # JSON-safe
    if diff.first is not None:
        assert doc["first"]["kind"] == diff.first.kind
        assert doc["first"]["seq"] == diff.first.seq
