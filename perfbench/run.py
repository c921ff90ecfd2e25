#!/usr/bin/env python3
"""Host-speed benchmark of the simulator.

Runs one named workload — a closed-loop batch of (trace slice,
generation) tasks over M1-M6 — and prints its metrics by name and unit,
ending with one JSON line::

    python3 perfbench/run.py --workload frontend_bound --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
reports the per-layer split from one engine pass and one untraced plus
one traced pass over the batch (see ``perfbench/layers.py`` and
``perfbench/README.md``).
Every task's simulated statistics are digested; at the default seed the
digests must equal ``perfbench/reference_digests.json``, at any other
seed all passes (untraced, traced, repeated) must agree.

Run from the repository root; the simulator is imported from ``src/``.
Scratch state (fresh cache roots, the per-task layer table) goes under
``.perfbench/`` in the same root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from layers import LAYER_KEYS, LayerTracer, instrument, traced_windows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference_digests.json"

#: The seed the committed reference digests were made with.
DEFAULT_SEED = 1
#: Trace-preparation repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed passes over the batch, at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Worker processes of the fan-out workload (the host's nproc).
FANOUT_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """A batch of ``slices`` x six generations; why each exists is in
    BENCHMARK.json and perfbench/README.md."""

    name: str
    #: Families cycled over the slices; empty = the standard suite mix,
    #: run through ``execute_population`` with worker processes.
    families: Tuple[str, ...]
    slices: int
    length: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("frontend_bound",
             ("btb_stress", "dense_branch", "hard_random", "web_like"),
             slices=40, length=800),
    Workload("memory_bound", ("specfp_like", "stream_like"),
             slices=48, length=2000),
    Workload("suite_fanout", (), slices=48, length=1500),
)}

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "kips": ("kinstr/s", "higher"),
    "task_p50_ms": ("ms", "lower"),
    "task_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "traces.generate_s": ("s", "lower"),
    "traces.compile_s": ("s", "lower"),
    "traces.reuse_ratio": ("ratio", "higher"),
    "core.self_ns_per_instr": ("ns/instr", "lower"),
    "core.instructions": ("count", "higher"),
    "core.sim_ipc": ("instr/cycle", "higher"),
    "frontend.self_ns_per_instr": ("ns/instr", "lower"),
    "frontend.ns_per_branch": ("ns/branch", "lower"),
    "frontend.cond_ns_per_branch": ("ns/branch", "lower"),
    "frontend.other_ns_per_branch": ("ns/branch", "lower"),
    "frontend.branches": ("count", "higher"),
    "frontend.accuracy": ("ratio", "higher"),
    "frontend.sim_mpki": ("mispred/kinstr", "lower"),
    "memory.self_ns_per_instr": ("ns/instr", "lower"),
    "memory.ns_per_access": ("ns/access", "lower"),
    "memory.l1_hit_ns_per_access": ("ns/access", "lower"),
    "memory.l1_miss_ns_per_access": ("ns/access", "lower"),
    "memory.store_ns_per_access": ("ns/access", "lower"),
    "memory.accesses": ("count", "higher"),
    "memory.l1_hit_ratio": ("ratio", "higher"),
    "memory.icache_ns_per_fetch": ("ns/fetch", "lower"),
    "memory.icache_fetches": ("count", "higher"),
    "memory.sim_load_latency_cycles": ("cycles", "lower"),
    "prefetch.self_ns_per_instr": ("ns/instr", "lower"),
    "prefetch.train_calls": ("count", "higher"),
    "prefetch.issued": ("count", "higher"),
    "uop_cache.self_ns_per_instr": ("ns/instr", "lower"),
    "uop_cache.blocks": ("count", "higher"),
    "uop_cache.fetch_fraction": ("ratio", "higher"),
    "metrics.self_ns_per_instr": ("ns/instr", "lower"),
    "metrics.windows": ("count", "higher"),
    "engine.fingerprint_s": ("s", "lower"),
    "engine.cache_store_s": ("s", "lower"),
    "engine.execute_s": ("s", "lower"),
    "engine.worker_busy_ratio": ("ratio", "higher"),
    "engine.tasks": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Simulated counters summed over a traced pass for the per-layer
#: ratios (simulated, so deterministic — never host time).
SIM_COUNTERS = (
    "core.instructions", "core.cycles", "core.branch_mispredicts",
    "frontend.branches", "frontend.mispredicts", "mem.loads",
    "mem.stores", "mem.l1.hits", "mem.load_latency_sum",
    "mem.prefetch.issued", "uoc.fetch_cycles", "uoc.filter_cycles",
    "uoc.build_cycles",
)


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

def import_simulator() -> None:
    """Put this checkout's ``src/`` first on the path and check that the
    simulator imported from there (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Isolation:
    """Fresh in-process memos and a fresh cache root per pass, all under
    one scratch directory that is deleted at the end."""

    def __init__(self) -> None:
        os.environ["REPRO_LEDGER"] = "off"
        OUT_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        self._n = 0

    def fresh(self) -> None:
        from repro.engine import tasks
        from repro.engine.runner import clear_caches

        clear_caches()
        tasks._TRACE_MEMO.clear()
        tasks._CTRACE_MEMO.clear()
        tasks._WARMUP_MEMO.clear()
        self._n += 1
        cache = self.root / f"cache-{self._n}"
        cache.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(cache)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Tasks and their correctness check
# ---------------------------------------------------------------------------

def slice_specs(workload: Workload, seed: int) -> List[Any]:
    """The workload's slices; the same seed gives the same slices."""
    from repro.traces.spec import TraceSpec
    from repro.traces.workloads import standard_suite_specs

    if not workload.families:
        return standard_suite_specs(n_slices=workload.slices,
                                    slice_length=workload.length, seed=seed)
    rng = random.Random(seed)
    fams = workload.families
    return [TraceSpec(fams[i % len(fams)], rng.randrange(1 << 30),
                      workload.length) for i in range(workload.slices)]


def task_label(spec: Any, generation: str) -> str:
    return f"{spec.family}:{spec.seed}:{spec.n_instructions}@{generation}"


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Compares every task's digest with its expected value: the
    reference when one is given, else the first digest seen."""

    def __init__(self, reference: Optional[Dict[str, str]] = None) -> None:
        self.expected: Dict[str, str] = dict(reference or {})
        self.pinned = reference is not None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, label: str, value: Optional[str], why: str = "") -> None:
        """Count one task; ``value`` None means it raised (``why``)."""
        self.attempted += 1
        if self.pinned or value is None:
            want = self.expected.get(label)
        else:
            want = self.expected.setdefault(label, value)
        if value is None or value != want:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(
                    f"{label}: {why or f'got {value}, want {want}'}")


def load_reference(name: str, seed: int) -> Optional[Dict[str, str]]:
    """The committed digests of a workload, which pin the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text())[name]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """Compiled traces of one setup, with its time split."""

    traces: List[Any]
    generate_s: float
    compile_s: float

    @property
    def seconds(self) -> float:
        return self.generate_s + self.compile_s


def prepare(specs: Sequence[Any]) -> Prepared:
    from repro.traces.compiled import compile_trace

    traces, gen_s, comp_s = [], 0.0, 0.0
    for spec in specs:
        t0 = time.perf_counter()
        trace = spec.build()
        t1 = time.perf_counter()
        traces.append(compile_trace(trace))
        gen_s += t1 - t0
        comp_s += time.perf_counter() - t1
    return Prepared(traces, gen_s, comp_s)


@dataclass
class PassResult:
    """One pass over a serial batch."""

    seconds: Dict[str, float] = field(default_factory=dict)  # per task
    sizes: Dict[str, int] = field(default_factory=dict)  # instructions
    sim: Dict[str, float] = field(default_factory=dict)
    layer_rows: Dict[str, Any] = field(default_factory=dict)
    windows: int = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    @property
    def instructions(self) -> int:
        return sum(self.sizes.values())


def serial_pass(specs: Sequence[Any], prepared: Prepared, checker: Checker,
                tracer: Any = None) -> PassResult:
    """Run every (slice, generation) task once, in this process.

    The timed span of a task is building its simulator plus running it;
    instrumenting (traced pass) and digesting happen outside it."""
    from repro.config import GENERATION_ORDER, get_generation
    from repro.core import GenerationSimulator

    out = PassResult()
    for spec, trace in zip(specs, prepared.traces):
        for gen in GENERATION_ORDER:
            label = task_label(spec, gen)
            config = get_generation(gen)
            try:
                t0 = time.perf_counter()
                sim = GenerationSimulator(config)
                built = time.perf_counter() - t0
                if tracer is not None:
                    instrument(sim, tracer)
                t1 = time.perf_counter()
                result = sim.run(trace)
                seconds = built + time.perf_counter() - t1
            except Exception as exc:  # a failing task is data, not a stop
                checker.check(label, None, f"raised {exc!r}")
                continue
            values = result.metrics.snapshot().values
            checker.check(label, digest({
                "stats": values,
                "windows": [w.to_dict() for w in result.windows]}))
            out.seconds[label] = seconds
            out.sizes[label] = len(trace)
            out.windows += len(result.windows)
            for name in SIM_COUNTERS:
                out.sim[name] = out.sim.get(name, 0) + values.get(name, 0)
            if tracer is not None:
                out.layer_rows[label] = {"wall_s": seconds,
                                         "spans": tracer.take()}
    return out


def fanout_pass(workload: Workload, seed: int, checker: Checker,
                iso: Isolation, workers: int = FANOUT_WORKERS):
    """One cold ``execute_population`` over the suite, digesting each row
    of its population archive; returns ``(EngineStats, wall seconds)``,
    stats None when the call raised."""
    from repro.engine import execute_population

    iso.fresh()
    t0 = time.perf_counter()
    try:
        result, stats = execute_population(
            n_slices=workload.slices, slice_length=workload.length,
            seed=seed, workers=workers, ledger=False)
    except Exception as exc:
        for _ in range(workload.slices * 6):
            checker.check("execute_population", None, f"raised {exc!r}")
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    for row in result.metrics:
        label = f"{row.trace_name}:{workload.length}@{row.generation}"
        checker.check(label, digest(row.to_dict()))
    return stats, wall


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def percentiles_ms(seconds: Sequence[float]) -> Tuple[float, float]:
    cuts = statistics.quantiles(seconds, n=10, method="inclusive")
    return statistics.median(seconds) * 1e3, cuts[8] * 1e3


def timed_passes(seconds: float) -> Iterator[int]:
    """Yield once per timed pass: at least :data:`MIN_PASSES`, then while
    the next pass should end less than half a pass after ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        began = time.perf_counter()
        yield n
        n += 1
        now = time.perf_counter()
        if n >= MIN_PASSES and now - start + (now - began) / 2 >= seconds:
            return


def run_untraced(workload: Workload, seed: int, seconds: float,
                 checker: Checker, iso: Isolation) -> Dict[str, float]:
    """Timed passes over the batch for about ``seconds`` (at least
    :data:`MIN_PASSES`).  ``kips`` is the median pass's throughput; each
    task's time is its median over the passes, so one slow stretch of
    the host does not move a percentile."""
    times: Dict[str, List[float]] = {}
    setups: List[float] = []
    pass_kips: List[float] = []
    if workload.families:
        specs = slice_specs(workload, seed)
        for _ in range(SETUP_REPEATS):
            iso.fresh()
            prepared = prepare(specs)
            setups.append(prepared.seconds)
        for _ in timed_passes(seconds):
            done = serial_pass(specs, prepared, checker)
            for label, secs in done.seconds.items():
                times.setdefault(label, []).append(secs)
            if done.seconds:
                pass_kips.append(done.instructions / 1e3 / done.wall)
    else:
        for _ in timed_passes(seconds):
            stats, wall = fanout_pass(workload, seed, checker, iso)
            if stats is None:
                continue
            for timing in stats.task_timings:
                times.setdefault(timing.label, []).append(timing.seconds)
            setups.append(stats.phase_breakdown.get("trace_generate", 0.0)
                          + stats.phase_breakdown.get("trace_compile", 0.0))
            pass_kips.append(stats.instructions_executed / 1e3 / wall)
    medians = {label: statistics.median(v) for label, v in times.items()}
    if not medians:
        raise SystemExit("perfbench: every task failed")
    p50, p90 = percentiles_ms(list(medians.values()))
    return {
        "kips": statistics.median(pass_kips),
        "task_p50_ms": p50,
        "task_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "_tasks": len(medians),
        "_passes": len(pass_kips),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_metrics(stats: Any) -> Dict[str, float]:
    phases = stats.phase_breakdown
    busy = sum(t.seconds for t in stats.task_timings)
    execute_s = phases.get("execute", 0.0)
    return {
        "engine.fingerprint_s": phases.get("fingerprint", 0.0),
        "engine.cache_store_s": phases.get("cache_store", 0.0),
        "engine.execute_s": execute_s,
        "engine.worker_busy_ratio": _ratio(busy, execute_s * stats.workers),
        "engine.tasks": stats.tasks_total,
    }


def layer_metrics(traced: PassResult, untraced: PassResult
                  ) -> Dict[str, float]:
    """Fold the traced pass's spans and simulated counters into the
    per-layer metrics (times in ns per simulated unit of work)."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for row in traced.layer_rows.values():
        for key, span in row["spans"].items():
            self_s[key] = self_s.get(key, 0.0) + span["self_s"]
            calls[key] = calls.get(key, 0) + span["calls"]
    n = traced.instructions
    sim = traced.sim

    def layer_s(layer: str) -> float:
        return sum(self_s.get(k, 0.0) for k in LAYER_KEYS[layer])

    def ns_per(keys: Sequence[str], den: float) -> float:
        return _ratio(sum(self_s.get(k, 0.0) for k in keys) * 1e9, den)

    spans_s = sum(layer_s(layer) for layer in LAYER_KEYS)
    mem_keys = ("memory.l1_hit", "memory.l1_miss", "memory.store")
    uoc_cycles = (sim["uoc.fetch_cycles"] + sim["uoc.filter_cycles"]
                  + sim["uoc.build_cycles"])
    out = {
        "core.self_ns_per_instr": _ratio((traced.wall - spans_s) * 1e9, n),
        "core.instructions": n,
        "core.sim_ipc": _ratio(n, sim["core.cycles"]),
        "frontend.self_ns_per_instr": _ratio(layer_s("frontend") * 1e9, n),
        "frontend.ns_per_branch": ns_per(
            LAYER_KEYS["frontend"],
            calls.get("frontend.cond", 0) + calls.get("frontend.other", 0)),
        "frontend.cond_ns_per_branch": ns_per(
            ("frontend.cond",), calls.get("frontend.cond", 0)),
        "frontend.other_ns_per_branch": ns_per(
            ("frontend.other",), calls.get("frontend.other", 0)),
        "frontend.branches": (calls.get("frontend.cond", 0)
                              + calls.get("frontend.other", 0)),
        "frontend.accuracy": 1.0 - _ratio(sim["frontend.mispredicts"],
                                          sim["frontend.branches"]),
        "frontend.sim_mpki": _ratio(sim["core.branch_mispredicts"] * 1e3, n),
        "memory.self_ns_per_instr": _ratio(layer_s("memory") * 1e9, n),
        "memory.ns_per_access": ns_per(
            mem_keys, sum(calls.get(k, 0) for k in mem_keys)),
        "memory.l1_hit_ns_per_access": ns_per(
            ("memory.l1_hit",), calls.get("memory.l1_hit", 0)),
        "memory.l1_miss_ns_per_access": ns_per(
            ("memory.l1_miss",), calls.get("memory.l1_miss", 0)),
        "memory.store_ns_per_access": ns_per(
            ("memory.store",), calls.get("memory.store", 0)),
        "memory.accesses": sum(calls.get(k, 0) for k in mem_keys),
        "memory.l1_hit_ratio": _ratio(sim["mem.l1.hits"],
                                      sim["mem.loads"] + sim["mem.stores"]),
        "memory.icache_ns_per_fetch": ns_per(
            ("memory.icache",), calls.get("memory.icache", 0)),
        "memory.icache_fetches": calls.get("memory.icache", 0),
        "memory.sim_load_latency_cycles": _ratio(
            sim["mem.load_latency_sum"], sim["mem.loads"]),
        "prefetch.self_ns_per_instr": _ratio(layer_s("prefetch") * 1e9, n),
        "prefetch.train_calls": calls.get("prefetch", 0),
        "prefetch.issued": sim["mem.prefetch.issued"],
        "uop_cache.self_ns_per_instr": _ratio(layer_s("uop_cache") * 1e9, n),
        "uop_cache.blocks": calls.get("uop_cache", 0),
        "uop_cache.fetch_fraction": _ratio(sim["uoc.fetch_cycles"],
                                           uoc_cycles),
        "metrics.self_ns_per_instr": _ratio(layer_s("metrics") * 1e9, n),
        "metrics.windows": traced.windows,
        "trace.overhead_ratio": _ratio(traced.wall, untraced.wall),
    }
    return out


def run_traced(workload: Workload, seed: int, checker: Checker,
               iso: Isolation) -> Dict[str, float]:
    """Per-layer metrics: trace preparation, one engine pass, then one
    untraced and one traced in-process pass over the same tasks."""
    from repro.config import GENERATION_ORDER, get_generation
    from repro.engine import PopulationEngine, population_task

    out: Dict[str, float] = {}
    if workload.families:
        specs = slice_specs(workload, seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            iso.fresh()
            prepared = prepare(specs)
            setups.append((prepared.generate_s, prepared.compile_s))
        tasks = len(specs) * len(GENERATION_ORDER)
        out["traces.generate_s"] = statistics.median(s[0] for s in setups)
        out["traces.compile_s"] = statistics.median(s[1] for s in setups)
        # One compiled trace serves every generation of its slice.
        out["traces.reuse_ratio"] = 1.0 - len(specs) / tasks
        iso.fresh()
        engine = PopulationEngine(workers=1, cache="memory")
        _, stats = engine.run_payloads(
            [population_task(get_generation(g), spec)
             for spec in specs for g in GENERATION_ORDER])
    else:
        stats, _ = fanout_pass(workload, seed, checker, iso)
        if stats is None:
            raise SystemExit("perfbench: execute_population failed")
        ts = stats.trace_stats
        out["traces.generate_s"] = ts.get("generate_seconds", 0.0)
        out["traces.compile_s"] = ts.get("compile_seconds", 0.0)
        hits = ts.get("memo_hits", 0) + ts.get("store_hits", 0)
        out["traces.reuse_ratio"] = _ratio(hits, hits + ts.get("compiled", 0))
        specs = slice_specs(workload, seed)
        iso.fresh()
        prepared = prepare(specs)
    out.update(engine_metrics(stats))

    untraced = serial_pass(specs, prepared, checker)
    tracer = LayerTracer()
    with traced_windows(tracer):
        traced = serial_pass(specs, prepared, checker, tracer=tracer)
    out.update(layer_metrics(traced, untraced))

    OUT_DIR.mkdir(exist_ok=True)
    table = OUT_DIR / f"layers-{workload.name}-seed{seed}.json"
    table.write_text(json.dumps(traced.layer_rows, indent=1, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        reference: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """One benchmark run; returns the result object that is printed."""
    checker = Checker(reference)
    iso = Isolation()
    try:
        if trace:
            values = run_traced(workload, seed, checker, iso)
            names = PER_LAYER
        else:
            values = run_untraced(workload, seed, seconds, checker, iso)
            names = END_TO_END
    finally:
        iso.close()
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in names.items()},
        "_extra": {k: v for k, v in values.items() if k.startswith("_")},
        "_errors": checker.errors,
    }


def describe(name: str, result: Dict[str, Any]) -> str:
    lines = [f"workload {name}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  {'error_rate':32s} {rate:14.4f} ratio "
                 f"({result['failed']}/{result['attempted']} tasks)")
    for key, value in result["_extra"].items():
        lines.append(f"  {key[1:]:32s} {value:14d}")
    for err in result["_errors"]:
        lines.append(f"  mismatch: {err}")
    return "\n".join(lines)


def write_reference(seed: int) -> None:
    """Regenerate the committed reference digests (one pass each)."""
    refs: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS.values():
        checker = Checker()
        iso = Isolation()
        try:
            specs = slice_specs(workload, seed)
            if not workload.families:
                fanout_pass(workload, seed, checker, iso)
            serial_pass(specs, prepare(specs), checker)
        finally:
            iso.close()
        if checker.failed:
            raise SystemExit(f"perfbench: {workload.name} failed: "
                             f"{checker.errors}")
        refs[workload.name] = dict(sorted(checker.expected.items()))
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference_digests.json at --seed")
    args = parser.parse_args(argv)

    import_simulator()
    if args.write_reference:
        write_reference(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace),
                 reference=load_reference(workload.name, args.seed))
    print(describe(workload.name, result))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
