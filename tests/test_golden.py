"""Golden results: outputs pinned by the files under ``tests/golden/``,
each reached through every route that must agree — a 2-slice M1-M6
population (serial, two workers, warmup-resumed), single-run metric
snapshots (spec, plain ``Trace``, ``warmup=``, checkpoint resume), a
traced run's event stream (``repro.run(trace_to=True)`` in-process and
in a worker process), and one population-task fingerprint (a disk-cache
key).

A mismatch prints a cell-level diff.  Regenerate only in a change that
means to move results, and say so in it:
``PYTHONPATH=src python scripts/update_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.core import GenerationSimulator
from repro.engine import tasks
from repro.engine.runner import clear_caches, run_population
from repro.metrics.diff import diff_metric_documents, render_metric_diff
from repro.metrics.regress import (compare_populations, population_rows,
                                   render_regress)
from repro.serialization import population_to_json
from repro.traces.spec import TraceSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

POPULATION_ROUTES = {"serial": {}, "workers2": {"workers": 2},
                     "warmup1000": {"warmup": 1000}}
SPECINT = TraceSpec("specint_like", 11, 5000)
STREAM = TraceSpec("stream_like", 13, 4000)
#: label -> (spec, generation, the routes that must reproduce it).
SNAPSHOTS = {
    "specint_like:11:5000@M1": (SPECINT, "M1", ("spec", "trace")),
    "specint_like:11:5000@M6": (SPECINT, "M6", ("spec", "trace", "warmup")),
    "stream_like:13:4000@M6": (STREAM, "M6", ("spec", "checkpoint")),
}
EVENTS = ("specint_like:2:1500@M4", TraceSpec("specint_like", 2, 1500), "M4")
FINGERPRINT = ("population:M3:specint_like:4:2000",
               TraceSpec("specint_like", 4, 2000), "M3")


def fresh() -> None:
    """Drop every in-process memo, so each route computes from scratch."""
    clear_caches()
    for memo in (tasks._TRACE_MEMO, tasks._CTRACE_MEMO, tasks._WARMUP_MEMO):
        memo.clear()


def dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def population_archive(workers: int = 1, warmup: int = 0) -> str:
    fresh()
    return population_to_json(run_population(
        n_slices=2, slice_length=3000, seed=2020, workers=workers,
        warmup=warmup, cache="off"), indent=1) + "\n"


def _resumed(spec: TraceSpec, gen: str):
    trace = spec.build()
    first = GenerationSimulator(gen)
    first.run(trace.slice(0, 1700), finalize=False)
    sim = GenerationSimulator(gen)
    sim.restore(json.loads(json.dumps(first.save_state())))
    return sim.run(trace.slice(1700))


SNAPSHOT_ROUTES = {
    "spec": lambda spec, gen: repro.run(spec, gen),
    "trace": lambda spec, gen: repro.run(spec.build(), gen),
    "warmup": lambda spec, gen: repro.run(spec, gen, warmup=1500),
    "checkpoint": _resumed,
}


def snapshot(label: str, route: str = "spec") -> dict:
    """One run's full metric map and window series, JSON-normalised."""
    spec, gen, _ = SNAPSHOTS[label]
    fresh()
    r = SNAPSHOT_ROUTES[route](spec, gen)
    return json.loads(dump({
        "generation": r.generation, "trace": r.trace_name,
        "metrics": r.metrics.as_dict(),
        "windows": [w.to_dict() for w in r.windows]}))


def _run_events(spec: TraceSpec, gen: str) -> list:
    return [e.to_dict() for e in repro.run(spec, gen, trace_to=True).events]


def _worker_events(spec: TraceSpec, gen: str) -> list:
    with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(_run_events, spec, gen).result()


EVENT_ROUTES = {"run": _run_events, "worker": _worker_events}


def event_digest(route: str = "run") -> dict:
    """SHA-256 of the canonical JSONL event stream, plus per-type counts."""
    fresh()
    events = EVENT_ROUTES[route](*EVENTS[1:])
    text = "\n".join(json.dumps(e, sort_keys=True) for e in events)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "events": len(events),
            "counts": dict(sorted(Counter(e["event"]
                                          for e in events).items()))}


def fingerprints() -> dict:
    label, spec, gen = FINGERPRINT
    payload = tasks.population_task(repro.get_generation(gen), spec)
    return {label: tasks.task_fingerprint(payload)}


def golden_documents() -> dict:
    """Every golden file's text, each from its first route."""
    return {
        "population.json": population_archive(),
        "snapshots.json": dump({label: snapshot(label)
                                for label in SNAPSHOTS}),
        "events.json": dump({EVENTS[0]: event_digest()}),
        "fingerprints.json": dump(fingerprints()),
    }


def _fail(what: str, detail: str) -> None:
    pytest.fail(f"{what} differs from tests/golden:\n{detail}\nIf the "
                "change means to move results, regenerate with\n    "
                "PYTHONPATH=src python scripts/update_golden.py\n"
                "and say so in the change.", pytrace=False)


@pytest.mark.parametrize("route", sorted(POPULATION_ROUTES))
def test_population_archive(route):
    got = population_archive(**POPULATION_ROUTES[route])
    want = (GOLDEN_DIR / "population.json").read_text()
    if got != want:
        rows_w = population_rows(json.loads(want))
        rows_g = population_rows(json.loads(got))
        moved = [f"{a['generation']}/{a['trace_name']}"
                 for a, b in zip(rows_w, rows_g) if a != b]
        report = compare_populations(rows_w, rows_g)
        _fail(f"population archive ({route})",
              render_regress(report, top=len(report["cells"]))
              + f"\n  rows with any changed field: {moved}")


@pytest.mark.parametrize("label,route", [
    (label, route) for label, (_, _, routes) in SNAPSHOTS.items()
    for route in routes])
def test_metric_snapshot(label, route):
    got = snapshot(label, route)
    want = json.loads((GOLDEN_DIR / "snapshots.json").read_text())[label]
    if got != want:
        moved = [i for i, (a, b) in enumerate(zip(want["windows"],
                                                  got["windows"])) if a != b]
        _fail(f"metric snapshot {label} ({route})",
              render_metric_diff(diff_metric_documents(want, got))
              + f"\nwindows: {len(want['windows'])} golden, "
              f"{len(got['windows'])} now; changed: {moved}")


@pytest.mark.parametrize("route", sorted(EVENT_ROUTES))
def test_event_stream(route):
    got = event_digest(route)
    want = json.loads((GOLDEN_DIR / "events.json").read_text())[EVENTS[0]]
    if got != want:
        rows = [f"  {'event':<10s} {'golden':>8s} {'now':>8s}"] + [
            f"  {kind:<10s} {want['counts'].get(kind, 0):>8d} "
            f"{got['counts'].get(kind, 0):>8d}"
            for kind in sorted(set(want["counts"]) | set(got["counts"]))]
        rows.append(f"  {'total':<10s} {want['events']:>8d} "
                    f"{got['events']:>8d}")
        if got["counts"] == want["counts"]:
            rows.append("  same counts: some event's fields moved")
        _fail(f"event stream {EVENTS[0]} ({route})", "\n".join(rows))


def test_task_fingerprint():
    want = json.loads((GOLDEN_DIR / "fingerprints.json").read_text())
    if fingerprints() != want:
        _fail("population task fingerprint",
              f"  {want} -> {fingerprints()}: every disk-cache key moved")
