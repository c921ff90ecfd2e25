"""The population execution engine.

Runs a population as one batch of independent (trace x generation)
tasks: shards the cache-missing ones across worker processes, memoizes
per-task results through :class:`~repro.engine.cache.TaskCache`, and
reports wall-clock/throughput statistics.  The public entry points —
:func:`run` and :func:`run_population` — are re-exported as ``repro.run``
and ``repro.run_population``.

Determinism: every task is a pure function of its payload (traces are
regenerated from seeded specs; the simulator uses no global randomness),
so ``workers=N`` produces bit-identical results to the serial path — the
engine only changes *where* tasks run, never what they compute.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..config import (GENERATION_ORDER, GenerationConfig, get_generation)
from ..metrics.windows import DEFAULT_WINDOW_INSTRUCTIONS
from ..observe.ledger import ledger_enabled
from ..observe.profile import TaskTiming
from ..observe.telemetry import (TelemetryConfig, TelemetryMonitor,
                                 start_watchdog)
from ..traces.spec import TraceLike, coerce_spec
from ..traces.types import Trace
from ..traces.workloads import standard_suite_specs
from .cache import TaskCache, clear_memory
from .results import PopulationResult, SliceMetrics
from .tasks import (_CTRACE_MEMO, _TRACE_MEMO, _WARMUP_MEMO,
                    _build_compiled, execute_task_heartbeat,
                    population_task, task_fingerprint, task_instructions,
                    task_label, warmup_checkpoint)

ProgressFn = Callable[[int, int], None]


@dataclass
class EngineStats:
    """What one engine run did, for progress/throughput reporting."""

    tasks_total: int = 0
    cache_hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    cache_mode: str = "memory"
    #: Wall seconds per engine phase (:data:`repro.observe.PHASES`).
    phase_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Per-executed-task wall times (empty when everything was cached).
    task_timings: List[TaskTiming] = field(default_factory=list)
    #: Per-task-kind cache accounting: ``{"population": {"hits": h,
    #: "executed": e}, "ghist": ...}`` — the per-kind hit-rate view
    #: ``describe_profile`` renders.  The
    #: pseudo-kind ``"trace_compile"`` counts prepared-trace reuse:
    #: hits = memo + compiled-store hits, executed = traces built.
    kind_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Trace instructions across all tasks / across executed tasks only
    #: (cache hits retire no instructions, so ``kips`` uses the latter).
    instructions_total: int = 0
    instructions_executed: int = 0
    #: Worker-side trace-preparation counters for this run (deltas of
    #: ``repro.engine.tasks.trace_stats_snapshot``): generate/compile
    #: seconds, build counts, memo/store hit counts.
    trace_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def tasks_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.tasks_total / self.wall_seconds

    @property
    def kips(self) -> float:
        """Simulated throughput: kilo-instructions retired per wall
        second, counting executed (non-cached) tasks only."""
        if self.wall_seconds <= 0 or self.instructions_executed <= 0:
            return 0.0
        return self.instructions_executed / 1000.0 / self.wall_seconds

    def describe(self) -> str:
        return (
            f"{self.tasks_total} tasks ({self.cache_hits} cached, "
            f"{self.executed} simulated) in {self.wall_seconds:.2f}s "
            f"({self.tasks_per_second:.1f} tasks/s, "
            f"workers={self.workers}, cache={self.cache_mode})"
        )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


class PopulationEngine:
    """Executes batches of task payloads with caching and worker sharding.

    ``workers=1`` runs tasks serially in-process (the deterministic
    fallback and the profile under which monkeypatched spies observe the
    simulator); ``workers>1`` shards cache-missing tasks across a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``workers=None``
    or ``0`` means one worker per CPU.
    """

    def __init__(self, workers: Optional[int] = 1, cache: str = "memory",
                 cache_dir: Optional[os.PathLike] = None,
                 progress: Optional[ProgressFn] = None,
                 telemetry: Optional[TelemetryConfig] = None) -> None:
        self.workers = _resolve_workers(workers)
        self.cache = TaskCache(cache, cache_dir=cache_dir)
        self.progress = progress
        self.telemetry = telemetry
        self.last_stats: Optional[EngineStats] = None
        #: Monitor of the most recent :meth:`run_payloads` call (None
        #: when telemetry is off) — warnings/heartbeats live here.
        self.last_monitor: Optional[TelemetryMonitor] = None

    def run_payloads(self, payloads: Sequence[Dict[str, Any]]
                     ) -> Tuple[List[Dict[str, Any]], EngineStats]:
        """Execute payloads (cache-first), preserving input order."""
        t0 = time.perf_counter()
        total = len(payloads)
        results: List[Optional[Dict[str, Any]]] = [None] * total
        fingerprints = [task_fingerprint(p) for p in payloads]
        t_lookup = time.perf_counter()
        fingerprint_s = t_lookup - t0
        done = 0
        kind_stats: Dict[str, Dict[str, int]] = {}
        instr_total = 0
        instr_exec = 0
        trace_stats: Dict[str, float] = {}

        monitor: Optional[TelemetryMonitor] = None
        stop_watchdog: Optional[Callable[[], None]] = None
        if self.telemetry is not None:
            monitor = TelemetryMonitor(total, workers=self.workers,
                                       config=self.telemetry)
            self.last_monitor = monitor
            set_monitor = getattr(self.progress, "set_monitor", None)
            if set_monitor is not None:
                set_monitor(monitor)
            stop_watchdog = start_watchdog(monitor)

        def _account(payload: Dict[str, Any], cached: bool) -> None:
            kind = str(payload.get("kind", "?"))
            counts = kind_stats.setdefault(kind, {"hits": 0, "executed": 0})
            counts["hits" if cached else "executed"] += 1

        try:
            missing: List[int] = []
            for i, fp in enumerate(fingerprints):
                hit = self.cache.get(fp)
                if hit is not None:
                    results[i] = hit
                    done += 1
                    n_instr = task_instructions(payloads[i])
                    instr_total += n_instr
                    _account(payloads[i], cached=True)
                    if monitor is not None:
                        monitor.on_result(0.0, n_instr, cached=True)
                    self._report(done, total)
                else:
                    missing.append(i)
            t_exec = time.perf_counter()
            lookup_s = t_exec - t_lookup

            store_s = 0.0
            timings: List[TaskTiming] = []
            if missing:
                for i, result, seconds, tstats in self._execute(
                        payloads, missing):
                    results[i] = result
                    timings.append(
                        TaskTiming(task_label(payloads[i]), seconds))
                    n_instr = task_instructions(payloads[i])
                    instr_total += n_instr
                    instr_exec += n_instr
                    if tstats:
                        for key, value in tstats.items():
                            trace_stats[key] = (
                                trace_stats.get(key, 0) + value)
                    _account(payloads[i], cached=False)
                    if monitor is not None:
                        monitor.on_result(seconds, n_instr)
                    ts = time.perf_counter()
                    self.cache.put(fingerprints[i], result)
                    store_s += time.perf_counter() - ts
                    done += 1
                    self._report(done, total)
            execute_s = max(0.0, time.perf_counter() - t_exec - store_s)
        finally:
            if stop_watchdog is not None:
                stop_watchdog()
            if monitor is not None:
                monitor.finish()

        phase_breakdown = {
            "fingerprint": fingerprint_s,
            "cache_lookup": lookup_s,
            "execute": execute_s,
            "cache_store": store_s,
        }
        # Worker-side trace preparation happens *inside* the execute
        # phase; break it out as sub-phases so --profile can separate
        # generate/compile time from simulation proper.
        gen_s = trace_stats.get("generate_seconds", 0.0)
        comp_s = trace_stats.get("compile_seconds", 0.0)
        if gen_s:
            phase_breakdown["trace_generate"] = gen_s
        if comp_s:
            phase_breakdown["trace_compile"] = comp_s
        prepared = int(trace_stats.get("memo_hits", 0)
                       + trace_stats.get("store_hits", 0))
        built = int(trace_stats.get("generated", 0)
                    + trace_stats.get("compiled", 0))
        if prepared or built:
            kind_stats["trace_compile"] = {"hits": prepared,
                                           "executed": built}
        stats = EngineStats(
            tasks_total=total,
            cache_hits=total - len(missing),
            executed=len(missing),
            wall_seconds=time.perf_counter() - t0,
            workers=self.workers,
            cache_mode=self.cache.mode,
            phase_breakdown=phase_breakdown,
            task_timings=timings,
            kind_stats=kind_stats,
            instructions_total=instr_total,
            instructions_executed=instr_exec,
            trace_stats=trace_stats,
        )
        self.last_stats = stats
        return [r for r in results if r is not None], stats

    def _execute(self, payloads: Sequence[Dict[str, Any]],
                 missing: Sequence[int]):
        """Yield ``(index, result, wall seconds, trace_stats)`` for every
        cache-missing payload.  Seconds are measured inside the process
        that ran the task (worker-side under the pool) — the telemetry
        heartbeat riding the result channel; trace_stats is the task's
        trace-preparation counter delta."""
        # The cache root rides along as a transport-only key (skipped
        # by fingerprints), so compiled traces land beside the results.
        root = str(self.cache.cache_dir)
        ordered = [{**payloads[i], "_cache_dir": root} for i in missing]
        if self.workers <= 1 or len(missing) <= 1:
            for i, payload in zip(missing, ordered):
                yield (i, *execute_task_heartbeat(payload))
            return
        n_workers = min(self.workers, len(missing))
        # Contiguous chunks keep same-trace tasks on the same worker so
        # its per-process trace memo pays off (tasks are trace-major).
        chunksize = max(1, len(missing) // (n_workers * 4))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for i, out in zip(
                    missing,
                    pool.map(execute_task_heartbeat, ordered,
                             chunksize=chunksize)):
                yield (i, *out)

    def _report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)


# ---------------------------------------------------------------------------
# Population runs
# ---------------------------------------------------------------------------

def clear_caches() -> None:
    """Drop every in-process cache: the engine's memory result tier and
    this process's trace, compiled-trace and warmup-checkpoint memos, so
    the next run reads the disk tiers or simulates.  The disk tiers are
    untouched; see :func:`repro.engine.cache.clear_disk`."""
    clear_memory()
    for memo in (_TRACE_MEMO, _CTRACE_MEMO, _WARMUP_MEMO):
        memo.clear()


def _ledger_population(result: PopulationResult, stats: EngineStats,
                       payloads: Sequence[Dict[str, Any]],
                       configs: Sequence[GenerationConfig],
                       params: Dict[str, Any],
                       cache_dir: Optional[os.PathLike]) -> None:
    """Append one population record to the run ledger (never raises:
    the ledger layer swallows IO errors — a run must not fail because
    its log could not be written)."""
    from ..observe import ledger as ledger_mod

    record = ledger_mod.population_record(
        result, stats,
        params=params,
        config_fingerprints={c.name: c.fingerprint() for c in configs},
        task_fingerprints=[task_fingerprint(p) for p in payloads])
    ledger_mod.append_record(record, cache_dir=cache_dir)


def execute_population(
    n_slices: int = 36,
    slice_length: int = 20_000,
    seed: int = 2020,
    generations: Optional[Sequence[str]] = None,
    *,
    workers: Optional[int] = 1,
    cache: str = "memory",
    cache_dir: Optional[os.PathLike] = None,
    progress: Optional[ProgressFn] = None,
    window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
    window_counters: Optional[Sequence[str]] = None,
    telemetry: Optional[TelemetryConfig] = None,
    ledger: Optional[bool] = None,
) -> Tuple[PopulationResult, EngineStats]:
    """Run the standard suite on each generation, returning result+stats.

    The metrics list is ordered generation-major (all of M1's slices,
    then M2's, ...), matching the historical serial implementation;
    ``workers`` only shards execution and never changes the result.
    ``window_interval`` controls per-slice metric windows (0 disables
    them) and ``window_counters`` selects which registry counters each
    window snapshots (default: the standard five); like ``workers``,
    neither ever perturbs the timing results.  Every (config, slice)
    pair is one task through the task cache, so a repeated call is
    served from the cache tier ``cache`` names.

    ``telemetry`` (a :class:`~repro.observe.telemetry.TelemetryConfig`)
    turns on live run telemetry — status-file JSON, ETA, hung-worker
    warnings; ``ledger`` controls the run-ledger append (default: on
    unless ``REPRO_LEDGER=off``).  Both are pure observation: results
    are bit-identical with either on or off.
    """
    gens = tuple(generations) if generations else GENERATION_ORDER
    configs = [get_generation(g) for g in gens]
    counters = (tuple(window_counters)
                if window_counters is not None else None)
    specs = standard_suite_specs(n_slices=n_slices,
                                 slice_length=slice_length, seed=seed)
    engine = PopulationEngine(workers=workers, cache=cache,
                              cache_dir=cache_dir, progress=progress,
                              telemetry=telemetry)
    # Trace-major submission order: the per-worker trace memo then sees
    # all generations of one trace back to back.
    payloads = [population_task(config, spec,
                                window_interval=window_interval,
                                window_counters=counters)
                for spec in specs for config in configs]
    rows, stats = engine.run_payloads(payloads)

    result = PopulationResult()
    n_gens = len(configs)
    for g in range(n_gens):  # assemble generation-major, as before
        for s in range(len(specs)):
            result.metrics.append(
                SliceMetrics.from_dict(rows[s * n_gens + g]))
    if ledger_enabled(ledger):
        params = {
            "n_slices": n_slices,
            "slice_length": slice_length,
            "seed": seed,
            "generations": list(gens),
            "window_interval": window_interval,
            "window_counters": list(counters) if counters else None,
        }
        _ledger_population(result, stats, payloads, configs, params,
                           cache_dir)
    return result, stats


def run_population(
    n_slices: int = 36,
    slice_length: int = 20_000,
    seed: int = 2020,
    generations: Optional[Sequence[str]] = None,
    *,
    workers: Optional[int] = 1,
    cache: str = "memory",
    cache_dir: Optional[os.PathLike] = None,
    progress: Optional[ProgressFn] = None,
    window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
    window_counters: Optional[Sequence[str]] = None,
) -> PopulationResult:
    """Simulate the standard suite on each generation.

    Defaults are laptop-scale; the figures' shapes stabilise from ~24
    slices.  Pass larger ``n_slices``/``slice_length`` for smoother
    curves, ``workers=N`` (or ``None`` for one per CPU) to shard the
    task matrix across processes, and ``cache="disk"`` to persist
    per-task results under ``~/.cache/repro`` so repeated runs skip
    simulation entirely.  ``window_counters`` customizes which registry
    counters the per-window series snapshot.
    """
    result, _ = execute_population(
        n_slices=n_slices, slice_length=slice_length, seed=seed,
        generations=generations, workers=workers, cache=cache,
        cache_dir=cache_dir, progress=progress,
        window_interval=window_interval, window_counters=window_counters)
    return result


# ---------------------------------------------------------------------------
# Single-run entry point
# ---------------------------------------------------------------------------

def run(trace_or_spec: TraceLike,
        generation: Union[str, GenerationConfig], *,
        corunners: int = 0,
        warmup: int = 0,
        trace_to=None,
        ledger: Optional[bool] = None):
    """Simulate one trace on one generation — the one-stop entry point.

    ``trace_or_spec`` may be a materialized :class:`~repro.traces.types
    .Trace`, a :class:`~repro.traces.spec.TraceSpec`, or a
    ``(family, seed[, n_instructions])`` tuple.  ``generation`` is a name
    (``"M1"`` .. ``"M6"``) or a full :class:`~repro.config
    .GenerationConfig` (e.g. a design-exploration variant).  Returns the
    full :class:`~repro.core.simulator.SimulationResult`.

    ``warmup=N`` simulates the first N instructions, checkpoints the
    simulator and resumes the measure phase from the snapshot; results
    are bit-identical to ``warmup=0``.  With a spec the checkpoint is
    memoized in-process per (config, trace, co-runners, N), so repeated
    ``run`` calls over the same prefix restore instead of re-simulating
    it.  A materialized ``Trace`` has no key to memoize under, so it
    simulates its prefix on every call.

    ``trace_to`` turns pipeline event tracing on; it is the one way a
    traced run starts.  ``True`` captures in memory
    (``result.events``), a ``.jsonl`` path also writes one flat event
    file, and any other path is a directory that receives the chunked
    JSONL stream + manifest (read either back with
    :func:`repro.observe.load_events`).  Default ``None``: tracing off,
    the zero-overhead path.  With ``warmup``, the warmup prefix runs
    untraced — the captured stream covers the measure phase only.

    A spec's compiled trace is reused via the in-process memo and the
    on-disk store; a materialized ``Trace`` is compiled on entry.
    """
    from ..core import GenerationSimulator

    t0 = time.perf_counter()
    config = (generation if isinstance(generation, GenerationConfig)
              else get_generation(generation))
    if isinstance(trace_or_spec, Trace):
        trace, spec = trace_or_spec, None
    else:
        spec = coerce_spec(trace_or_spec)
        trace = _build_compiled(spec.to_dict())

    warm_state = None
    if warmup:
        warm_state = warmup_checkpoint(config, trace, int(warmup),
                                       corunners=corunners, spec=spec)
        trace = trace.slice(int(warmup))

    def build_and_run(sink=None):
        sim = GenerationSimulator(config, corunners=corunners,
                                  trace_sink=sink)
        if warm_state is not None:
            sim.restore(warm_state)
        return sim.run(trace)

    if trace_to is None:
        result = build_and_run()
    else:
        from ..observe.stream import trace as trace_capture

        target = None if trace_to is True else trace_to
        spec_meta = {"generation": config.name, "trace": trace.name}
        with trace_capture(target, meta=spec_meta) as sink:
            result = build_and_run(sink)

    if ledger_enabled(ledger):
        from ..observe import ledger as ledger_mod

        record = ledger_mod.single_run_record(
            result, generation=config.name,
            config_fingerprint=config.fingerprint(),
            spec=(spec.to_dict() if spec is not None
                  else {"trace_name": trace.name}),
            corunners=corunners, warmup=int(warmup),
            wall_seconds=time.perf_counter() - t0,
            instructions=len(trace))
        ledger_mod.append_record(record)
    return result
