"""Golden results: outputs pinned by the files under ``tests/golden/``,
each reached through every route that must agree — a 2-slice M1-M6
population (serial, two workers), single-run metric
snapshots (spec, plain ``Trace``, ``warmup=``, checkpoint resume),
traced runs' event streams (``repro.run(trace_to=True)`` in-process and
in a worker process; two of them with UOC mode events), one
population-task fingerprint (a disk-cache key), the front-end-only
routes (the Figure 1 sweep on standalone SHPs in-process and through
the engine, the gshare/bimodal baselines, ``BranchUnit.run_trace`` and
the Section V context-switch policies), window series of counters the
front end owns, uninterrupted and resumed from a checkpoint, and
shared-L2 contention (``corunners``) on the memory hierarchy alone and
in full runs, plain and ``warmup=``, the bytes of checkpoint
documents (mid-run, freshly built, and the memory hierarchy's alone),
and full runs on issue-port-count variants, uninterrupted and resumed.

A mismatch prints a cell-level diff.  Regenerate only in a change that
means to move results, and say so in it:
``PYTHONPATH=src python scripts/update_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.engine import tasks
from repro.engine.runner import clear_caches, run_population
from repro.frontend import (BimodalPredictor, BranchUnit, GsharePredictor,
                            measure_conditional_mpki)
from repro.harness.figures import figure1_ghist_sweep
from repro.memory import MemoryHierarchy
from repro.metrics.diff import diff_metric_documents, render_metric_diff
from repro.metrics.regress import (compare_populations, population_rows,
                                   render_regress)
from repro.security import (EntropySources, ProcessContext,
                            SecureFrontEndContext)
from repro.serialization import population_to_json
from repro.state import checkpoint_to_json
from repro.traces import ProgramWalker
from repro.traces.spec import TraceSpec
from repro.traces.types import Kind, Trace, TraceRecord
from repro.traces.workloads import cbp5_suite_specs, specint_like

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

POPULATION_ROUTES = {"serial": {}, "workers2": {"workers": 2}}
SPECINT = TraceSpec("specint_like", 11, 5000)
STREAM = TraceSpec("stream_like", 13, 4000)
#: label -> (spec, generation, the routes that must reproduce it).
SNAPSHOTS = {
    "specint_like:11:5000@M1": (SPECINT, "M1", ("spec", "trace")),
    "specint_like:11:5000@M6": (SPECINT, "M6", ("spec", "trace", "warmup")),
    "stream_like:13:4000@M6": (STREAM, "M6", ("spec", "checkpoint")),
}
EVENTS = ("specint_like:2:1500@M4", TraceSpec("specint_like", 2, 1500), "M4")
#: Streams with ``uoc_mode`` events, which pin where each one sits
#: relative to the branch events around it: label -> (spec, generation).
UOC_EVENTS = {
    "loop_kernel:1:3000@M6": (TraceSpec("loop_kernel", 1, 3000), "M6"),
    "specint_like:2:1500@M5": (TraceSpec("specint_like", 2, 1500), "M5"),
}
STREAMS = {EVENTS[0]: EVENTS[1:], **UOC_EVENTS}
FINGERPRINT = ("population:M3:specint_like:4:2000",
               TraceSpec("specint_like", 4, 2000), "M3")
#: Front-end-only routes (``routes.json``).  The Figure 1 points span
#: GHIST hashes of one 64-bit chunk, several, and more than four.
FIG1 = ("fig1:cbp5_like:2x6000", (8, 60, 165, 330), 2, 6000)
BASELINES = ("baselines:specint_like:5:3000",
             TraceSpec("specint_like", 5, 3000))
#: A slice with non-return indirect branches, so the VPC consults the SHP.
RUN_TRACE = ("run_trace:specint_like:11:4000",
             TraceSpec("specint_like", 11, 4000), ("M1", "M3", "M5", "M6"))
#: The context-switch ablation's two alternating processes, made small:
#: (label, generation, rounds, slice length).
CONTEXT_SWITCH = ("context_switch:specint_like:100+200@M5", "M5", 2, 1500)
CONTEXT_MODES = ("none", "encrypt", "flush")
#: Window series of counters the front end owns (no default window
#: counter is one), among them every counter the front-end pass bumps
#: per branch or per block: (label, spec, interval, counters,
#: generations, the instruction a resumed run is cut at).
FRONTEND_WINDOWS = (
    "windows:specint_like:4:5000/700", TraceSpec("specint_like", 4, 5000),
    700, ("core.instructions", "frontend.mispredicts",
          "frontend.bubbles.total", "uoc.fetch_cycles", "uoc.build_cycles",
          "energy.shp_lookup", "frontend.branches",
          "frontend.conditional_branches", "frontend.taken_branches",
          "frontend.btb.miss_redirects", "frontend.bubbles.zero_redirects",
          "frontend.bubbles.mrb_saved", "frontend.ras.repairs",
          "energy.ubtb_lookup", "energy.mbtb_lookup", "energy.shp_update",
          "energy.vbtb_lookup", "energy.l2btb_fill", "energy.icache_fetch",
          "energy.decode"), ("M1", "M5", "M6"), 1234)
#: Shared-L2 contention on the memory hierarchy alone: the random
#: 768 KiB working set of benchmarks/test_ablation_shared_l2_and_
#: frequency.py, shortened.  (label, accesses, the pinned (generation,
#: co-runners) pairs.)  M1/M2 share their L2 among 4 cores, M5/M6 among 2.
CORUNNER_MEMORY = ("corunners:memory:768KiB/20000", 20_000,
                   (("M1", 0), ("M1", 3), ("M5", 0), ("M5", 1)))
#: Full runs under contention: (label, spec, (generation, co-runners)).
CORUNNER_RUNS = ("corunners:web_like:3:5000", TraceSpec("web_like", 3, 5000),
                 (("M1", 3), ("M5", 1)))
#: Checkpoint documents, pinned by the SHA-256 of their canonical text:
#: (label, the cut, the (generation, co-runners) pairs saved after
#: ``STREAM``'s first ``cut`` instructions, the generations saved freshly
#: built, the generation whose memory hierarchy is saved after the
#: ``CORUNNER_MEMORY`` drive).  M1+3 shrinks the shared L2 and M4 has a
#: 3,072-set L3; the drive leaves exclusive-L3 castouts, LRU inserts and
#: invalidates in M3's document.
CHECKPOINTS = ("checkpoints:sha256", 1700,
               (("M1", 0), ("M1", 3), ("M3", 0), ("M4", 0), ("M5", 1),
                ("M6", 0)), ("M4", "M6"), "M3")
#: Issue-port-count variants: (label, the instruction a resumed run is
#: cut at, the configs by name).  "M1 narrow" leaves one simple ALU and
#: one FP pipe; "M6 wide"'s simple group has 8 ports, more than any
#: generation (examples/design_exploration.py's M7 also widens it).
PORTS = ("ports:specfp_like:5:3000+mixed:23:3000", 1500, {
    "M1": get_generation("M1"),
    "M1 narrow": replace(get_generation("M1"), simple_alus=1, fp_pipes=1),
    "M6 wide": replace(get_generation("M6"), simple_alus=6, load_pipes=3,
                       fp_pipes=6, fmac_pipes=6),
})
#: Kind weights of :func:`mixed_trace`: DIV is 1 record in 36, so the
#: other port groups still bind.
MIXED_KINDS = ((Kind.ALU, 10), (Kind.MUL, 3), (Kind.DIV, 1), (Kind.MOV, 4),
               (Kind.FP_ADD, 3), (Kind.FP_MUL, 3), (Kind.FP_MAC, 3),
               (Kind.LOAD, 6), (Kind.STORE, 3))


def dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def population_archive(workers: int = 1) -> str:
    clear_caches()
    return population_to_json(run_population(
        n_slices=2, slice_length=3000, seed=2020, workers=workers,
        cache="off"), indent=1) + "\n"


def _resumed(trace: Trace, gen, cut: int = 1700, **kwargs):
    first = GenerationSimulator(gen)
    first.run(trace.slice(0, cut), finalize=False, **kwargs)
    sim = GenerationSimulator(gen)
    sim.restore(json.loads(json.dumps(first.save_state())))
    return sim.run(trace.slice(cut), **kwargs)


SNAPSHOT_ROUTES = {
    "spec": lambda spec, gen: repro.run(spec, gen),
    "trace": lambda spec, gen: repro.run(spec.build(), gen),
    "warmup": lambda spec, gen: repro.run(spec, gen, warmup=1500),
    "checkpoint": lambda spec, gen: _resumed(spec.build(), gen),
}


def snapshot(label: str, route: str = "spec") -> dict:
    """One run's full metric map and window series, JSON-normalised."""
    spec, gen, _ = SNAPSHOTS[label]
    clear_caches()
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


def event_digest(route: str = "run", label: str = EVENTS[0]) -> dict:
    """SHA-256 of the canonical JSONL event stream, plus per-type counts."""
    clear_caches()
    events = EVENT_ROUTES[route](*STREAMS[label])
    text = "\n".join(json.dumps(e, sort_keys=True) for e in events)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "events": len(events),
            "counts": dict(sorted(Counter(e["event"]
                                          for e in events).items()))}


def fingerprints() -> dict:
    label, spec, gen = FINGERPRINT
    payload = tasks.population_task(repro.get_generation(gen), spec)
    return {label: tasks.task_fingerprint(payload)}


FIG1_ROUTES = {
    "inprocess": lambda points, n, length: figure1_ghist_sweep(
        points, traces=[spec.build()
                        for spec in cbp5_suite_specs(n, length)]),
    "engine": lambda points, n, length: figure1_ghist_sweep(
        points, n_traces=n, trace_length=length, workers=1, cache="off"),
}


def fig1_sweep(route: str = "inprocess") -> dict:
    """Mean conditional MPKI per GHIST length on standalone SHPs."""
    clear_caches()
    out = FIG1_ROUTES[route](*FIG1[1:])
    return json.loads(dump({str(bits): mpki for bits, mpki in out.items()}))


def baselines() -> dict:
    trace = BASELINES[1].build()
    return json.loads(dump({
        "bimodal": measure_conditional_mpki(BimodalPredictor(), trace),
        "gshare": measure_conditional_mpki(GsharePredictor(), trace)}))


def _frontend_stats(unit: BranchUnit) -> dict:
    values = unit.stats.registry.snapshot().values
    return json.loads(dump({k: v for k, v in values.items()
                            if k.startswith("frontend.")}))


def run_trace_stats(gen: str) -> dict:
    """Every ``frontend.*`` stat of a front-end-only run."""
    unit = BranchUnit(get_generation(gen))
    unit.run_trace(RUN_TRACE[1].build())
    return _frontend_stats(unit)


def _feed_records(unit: BranchUnit, trace) -> None:
    for rec in trace:
        unit.stats.instructions += 1
        if rec.is_branch:
            unit.process_branch(rec)


#: How each slice reaches the unit: one record at a time, as the
#: ablation bench does, or through ``run_trace``.
CONTEXT_ROUTES = {"records": _feed_records,
                  "run_trace": lambda unit, trace: unit.run_trace(trace)}


def context_switch_stats(mode: str, route: str = "records") -> dict:
    """Two processes alternate on one unit; every switch applies
    ``mode`` (benchmarks/test_ablation_context_switch.py, made small)."""
    _, gen, rounds, length = CONTEXT_SWITCH
    sources = EntropySources()
    procs = [(SecureFrontEndContext(ProcessContext(asid=asid), sources),
              ProgramWalker(specint_like(seed=seed), seed=seed))
             for asid, seed in ((1, 100), (2, 200))]
    unit = BranchUnit(get_generation(gen))
    for _ in range(rounds):
        for ctx, walker in procs:
            if mode == "encrypt":
                unit.context_switch("encrypt", encrypt=ctx.cipher.encrypt,
                                    decrypt=ctx.cipher.decrypt)
            else:
                unit.context_switch(mode)
            CONTEXT_ROUTES[route](unit, walker.walk(length))
    return _frontend_stats(unit)


def frontend_windows(gen: str, route: str = "run") -> list:
    """The window series of ``FRONTEND_WINDOWS``, from one uninterrupted
    run or resumed from a checkpoint taken mid-window."""
    _, spec, interval, counters, _, cut = FRONTEND_WINDOWS
    clear_caches()
    kwargs = {"window_interval": interval, "window_counters": counters}
    if route == "run":
        r = GenerationSimulator(gen).run(spec.build(), **kwargs)
    else:
        r = _resumed(spec.build(), gen, cut, **kwargs)
    return json.loads(dump([w.to_dict() for w in r.windows]))


def drive_memory(gen: str, corunners: int,
                 accesses: int = CORUNNER_MEMORY[1]) -> MemoryHierarchy:
    """A memory hierarchy after ``accesses`` random loads over a 768 KiB
    working set, with ``corunners`` cluster-mates on the L2."""
    mem = MemoryHierarchy(get_generation(gen), corunners=corunners)
    rng = random.Random(9)
    now = 0.0
    for _ in range(accesses):
        addr = 0x100_0000 + rng.randrange(0, 768 * 1024 // 64) * 64
        now += 6.0 + mem.access(0x0, addr, now=now) * 0.25
    return mem


def corunner_memory(gen: str, corunners: int,
                    accesses: int = CORUNNER_MEMORY[1]) -> dict:
    """Every ``mem.*`` metric of :func:`drive_memory`."""
    mem = drive_memory(gen, corunners, accesses)
    return json.loads(dump({k: v for k, v in mem.stats.registry.as_dict()
                            .items() if k.startswith("mem.")}))


CORUNNER_ROUTES = {
    "run": lambda spec, gen, k: repro.run(spec, gen, corunners=k),
    "warmup": lambda spec, gen, k: repro.run(spec, gen, corunners=k,
                                             warmup=1500),
}


def corunner_run(gen: str, corunners: int, route: str = "run") -> dict:
    """The full metric map of one run with ``corunners`` cluster-mates."""
    clear_caches()
    r = CORUNNER_ROUTES[route](CORUNNER_RUNS[1], gen, corunners)
    return json.loads(dump(r.metrics.as_dict()))


def _cut_state(gen: str, corunners: int) -> dict:
    sim = GenerationSimulator(gen, corunners=corunners)
    sim.run(STREAM.build().slice(0, CHECKPOINTS[1]), finalize=False)
    return sim.save_state()


def _fresh_state(gen: str) -> dict:
    return GenerationSimulator(gen).save_state()


def _memory_state(gen: str) -> dict:
    return drive_memory(gen, 0).state_dict()


#: key -> (the function that builds the document, its arguments).
CHECKPOINT_DOCUMENTS = {
    **{f"{gen}+{k}": (_cut_state, gen, k) for gen, k in CHECKPOINTS[2]},
    **{f"{gen} fresh": (_fresh_state, gen) for gen in CHECKPOINTS[3]},
    f"{CHECKPOINTS[4]} memory": (_memory_state, CHECKPOINTS[4]),
}


def checkpoint_digest(key: str) -> str:
    """SHA-256 of one checkpoint document's canonical JSON text."""
    build, *args = CHECKPOINT_DOCUMENTS[key]
    return hashlib.sha256(
        checkpoint_to_json(build(*args)).encode()).hexdigest()


def mixed_trace(length: int = 3000, seed: int = 23) -> Trace:
    """A hand-built slice of ``MIXED_KINDS`` with dependence distances.
    No workload family emits ``DIV``, so only a trace like this one
    reaches the 12-cycle non-pipelined divide.  The code loops over
    256 PCs and the data over 8 KiB, so cold misses do not hide port
    contention: on each ``PORTS`` config, some records of every kind
    that takes a port wait for one."""
    rng = random.Random(seed)
    kinds = [kind for kind, weight in MIXED_KINDS for _ in range(weight)]
    records = []
    for i in range(length):
        kind = rng.choice(kinds)
        addr = 0
        if kind in (Kind.LOAD, Kind.STORE):
            addr = 0x200_0000 + rng.randrange(8 * 1024 // 8) * 8
        records.append(TraceRecord(
            0x40_0000 + 4 * (i % 256), kind, addr=addr,
            src1_dist=rng.choice((0, 0, 0, 1, 2, 5, 9, 20)),
            src2_dist=rng.choice((0, 0, 0, 0, 3, 12, 40))))
    return Trace(f"mixed:{seed}:{length}", "mixed", records, seed=seed)


#: The traces each port variant runs: an FP/FMAC-heavy slice and the
#: hand-built mix.
PORT_TRACES = {
    "specfp_like:5:3000": TraceSpec("specfp_like", 5, 3000).build,
    "mixed:23:3000": mixed_trace,
}


def port_run(config: str, trace: str, route: str = "run") -> dict:
    """The full metric map of one port variant on one trace, from one
    uninterrupted run or resumed from a checkpoint (which restores the
    port free times)."""
    cfg = PORTS[2][config]
    if route == "run":
        r = repro.run(PORT_TRACES[trace](), cfg)
    else:
        r = _resumed(PORT_TRACES[trace](), cfg, PORTS[1])
    return json.loads(dump(r.metrics.as_dict()))


def routes() -> dict:
    return {
        FIG1[0]: fig1_sweep(),
        BASELINES[0]: baselines(),
        RUN_TRACE[0]: {gen: run_trace_stats(gen) for gen in RUN_TRACE[2]},
        CONTEXT_SWITCH[0]: {mode: context_switch_stats(mode)
                            for mode in CONTEXT_MODES},
        FRONTEND_WINDOWS[0]: {gen: frontend_windows(gen)
                              for gen in FRONTEND_WINDOWS[4]},
        CORUNNER_MEMORY[0]: {f"{gen}+{k}": corunner_memory(gen, k)
                             for gen, k in CORUNNER_MEMORY[2]},
        CORUNNER_RUNS[0]: {f"{gen}+{k}": corunner_run(gen, k)
                           for gen, k in CORUNNER_RUNS[2]},
        CHECKPOINTS[0]: {key: checkpoint_digest(key)
                         for key in CHECKPOINT_DOCUMENTS},
        PORTS[0]: {config: {trace: port_run(config, trace)
                            for trace in PORT_TRACES}
                   for config in PORTS[2]},
    }


def golden_documents() -> dict:
    """Every golden file's text, each from its first route."""
    return {
        "population.json": population_archive(),
        "snapshots.json": dump({label: snapshot(label)
                                for label in SNAPSHOTS}),
        "events.json": dump({label: event_digest(label=label)
                             for label in STREAMS}),
        "fingerprints.json": dump(fingerprints()),
        "routes.json": dump(routes()),
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


@pytest.mark.parametrize("label", sorted(UOC_EVENTS))
def test_uoc_event_stream(label):
    want = json.loads((GOLDEN_DIR / "events.json").read_text())[label]
    _check_values(f"event stream {label}", want,
                  event_digest(label=label))


def test_task_fingerprint():
    want = json.loads((GOLDEN_DIR / "fingerprints.json").read_text())
    if fingerprints() != want:
        _fail("population task fingerprint",
              f"  {want} -> {fingerprints()}: every disk-cache key moved")


def _routes(label: str):
    return json.loads((GOLDEN_DIR / "routes.json").read_text())[label]


def _check_values(what: str, want: dict, got: dict) -> None:
    if got != want:
        rows = [f"  {k}: {want.get(k)!r} -> {got.get(k)!r}"
                for k in sorted(set(want) | set(got))
                if want.get(k) != got.get(k)]
        _fail(what, "\n".join(rows))


@pytest.mark.parametrize("route", sorted(FIG1_ROUTES))
def test_fig1_sweep(route):
    _check_values(f"{FIG1[0]} ({route})", _routes(FIG1[0]),
                  fig1_sweep(route))


def test_conditional_baselines():
    _check_values(BASELINES[0], _routes(BASELINES[0]), baselines())


@pytest.mark.parametrize("gen", RUN_TRACE[2])
def test_branch_unit_run_trace(gen):
    _check_values(f"{RUN_TRACE[0]}@{gen}", _routes(RUN_TRACE[0])[gen],
                  run_trace_stats(gen))


@pytest.mark.parametrize("gen,route", [
    (gen, route) for gen in FRONTEND_WINDOWS[4]
    for route in ("run", "resumed")])
def test_frontend_windows(gen, route):
    want = _routes(FRONTEND_WINDOWS[0])[gen]
    got = frontend_windows(gen, route)
    if got != want:
        moved = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
        _fail(f"{FRONTEND_WINDOWS[0]}@{gen} ({route})",
              f"windows: {len(want)} golden, {len(got)} now; "
              f"changed: {moved}")


@pytest.mark.parametrize("mode,route", [
    (mode, route) for mode in CONTEXT_MODES for route in CONTEXT_ROUTES])
def test_context_switch(mode, route):
    _check_values(f"{CONTEXT_SWITCH[0]} {mode} ({route})",
                  _routes(CONTEXT_SWITCH[0])[mode],
                  context_switch_stats(mode, route))


@pytest.mark.parametrize("gen,corunners", CORUNNER_MEMORY[2])
def test_corunner_memory(gen, corunners):
    key = f"{gen}+{corunners}"
    _check_values(f"{CORUNNER_MEMORY[0]}@{key}",
                  _routes(CORUNNER_MEMORY[0])[key],
                  corunner_memory(gen, corunners))


def test_private_l2_ignores_corunners():
    # M3's L2 is private, so co-runners claim none of it; the check is
    # structural, so a shorter drive than the pinned one does.
    assert corunner_memory("M3", 3, 5000) == corunner_memory("M3", 0, 5000)


@pytest.mark.parametrize("gen,corunners,route", [
    (gen, k, route) for gen, k in CORUNNER_RUNS[2]
    for route in CORUNNER_ROUTES])
def test_corunner_run(gen, corunners, route):
    key = f"{gen}+{corunners}"
    _check_values(f"{CORUNNER_RUNS[0]}@{key} ({route})",
                  _routes(CORUNNER_RUNS[0])[key],
                  corunner_run(gen, corunners, route))


@pytest.mark.parametrize("key", sorted(CHECKPOINT_DOCUMENTS))
def test_checkpoint_document(key):
    want = _routes(CHECKPOINTS[0])[key]
    got = checkpoint_digest(key)
    if got != want:
        _fail(f"{CHECKPOINTS[0]} {key}",
              f"  {want} -> {got}: the checkpoint document's bytes moved")


@pytest.mark.parametrize("config,trace,route", [
    (config, trace, route) for config in PORTS[2] for trace in PORT_TRACES
    for route in ("run", "resumed")])
def test_port_variant(config, trace, route):
    _check_values(f"{PORTS[0]} {config} {trace} ({route})",
                  _routes(PORTS[0])[config][trace],
                  port_run(config, trace, route))
