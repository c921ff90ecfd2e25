"""Engine task payloads, fingerprints, and the worker entry point.

A *task* is a self-contained, picklable, JSON-able dict describing one
unit of simulation work.  Workers receive only the payload — traces are
shipped as ``(family, seed, n_instructions)`` specs and regenerated in
the worker (regeneration is deterministic and orders of magnitude cheaper
to transport than pickling tens of thousands of trace records).

Task kinds:

``"population"``
    One ``(generation config, trace spec)`` full-simulator run; the result
    dict is exactly the :class:`~repro.engine.results.SliceMetrics` field
    set.
``"ghist"``
    One Figure 1 measurement: conditional MPKI of a standalone SHP with a
    given GHIST hash range over one trace.

The fingerprint of a task hashes its *entire* payload (full nested config
dict included) together with the package version and an engine schema
version, so any config field change, trace change, model release, or
result-format change invalidates cached entries by construction.

The module also keeps the per-process memos: built and compiled traces,
and the warmup checkpoints of ``repro.run(warmup=N)``
(:func:`warmup_checkpoint`), which no task reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from .. import __version__
from ..config import GenerationConfig
from ..metrics.windows import DEFAULT_WINDOW_INSTRUCTIONS
from ..serialization import config_from_dict, config_to_dict
from ..traces.compiled import (CompiledTrace, compile_trace,
                               compiled_fingerprint)
from ..traces.spec import TraceSpec
from ..traces.types import Trace
from .cache import CompiledTraceStore

#: Bump when the result payload format or task semantics change.
#: History: 1 = flat scalar rows; 2 = schema-versioned rows carrying
#: per-window metric series (window_interval joined the payload);
#: 3 = configurable window counters joined the population payload and
#: the "pipetrace" task kind landed; 4 = default windows carry the
#: stall-bucket counters (result schema 3) and "pipetrace" accepts an
#: unbounded capture (``capacity=None``); 5 = the "warmup" task kind
#: landed (results are simulator checkpoint documents) and ``warmup``
#: joined the population payload.  Removing the "pipetrace" kind later
#: changed no surviving payload or result, so it took no bump; neither
#: did removing the "warmup" kind (population payloads keep
#: ``"warmup": 0``).
ENGINE_SCHEMA_VERSION = 5


def population_task(config: GenerationConfig, spec: TraceSpec,
                    corunners: int = 0,
                    window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
                    window_counters: Optional[Sequence[str]] = None,
                    ) -> Dict[str, Any]:
    """One full-simulator run of ``spec`` on ``config``."""
    return {
        "kind": "population",
        "config": config_to_dict(config),
        "trace": spec.to_dict(),
        "corunners": corunners,
        "window_interval": window_interval,
        "window_counters": (list(window_counters)
                            if window_counters is not None else None),
        # A constant no executor reads; it stays so no cache key moves.
        "warmup": 0,
    }


def ghist_task(spec: TraceSpec, ghist_bits: int, tables: int = 8,
               rows: int = 1024, phist_bits: int = 80) -> Dict[str, Any]:
    return {
        "kind": "ghist",
        "trace": spec.to_dict(),
        "ghist_bits": ghist_bits,
        "tables": tables,
        "rows": rows,
        "phist_bits": phist_bits,
    }


def task_fingerprint(payload: Dict[str, Any]) -> str:
    """Stable SHA-256 over the canonical JSON of (payload, versions).

    Top-level keys starting with ``_`` are transport-only (data shipped
    to the worker that does not change its result, e.g. the cache root)
    and are excluded from the hash.
    """
    envelope = {
        "payload": {k: v for k, v in payload.items()
                    if not k.startswith("_")},
        "version": __version__,
        "schema": ENGINE_SCHEMA_VERSION,
    }
    text = json.dumps(envelope, sort_keys=True, default=list)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Environment switch for the on-disk compiled-trace store (default on;
#: the test suite defaults it off via ``tests/conftest.py`` so plain
#: test runs never write to the developer's real cache root).
TRACE_STORE_ENV = "REPRO_TRACE_STORE"
_STORE_DISABLE_VALUES = ("0", "off", "no", "false")


def trace_store_enabled() -> bool:
    value = os.environ.get(TRACE_STORE_ENV, "").strip().lower()
    return value not in _STORE_DISABLE_VALUES


#: Worker-side trace-preparation accounting.  A fork-local counter dict
#: (sanctioned by simlint SIM012's ``worker_state_allow``): per-task
#: *deltas* ride the heartbeat channel back to the host (see
#: :func:`execute_task_heartbeat`), where ``EngineStats`` folds them
#: into ``phase_breakdown``/``trace_stats`` — the counters themselves
#: never touch a result payload.
_TRACE_STATS: Dict[str, float] = {
    "generate_seconds": 0.0,  # spec.build() wall time
    "compile_seconds": 0.0,   # compile_trace() wall time
    "generated": 0,           # traces materialized from specs
    "compiled": 0,            # compile passes performed
    "memo_hits": 0,           # in-process reuses (trace or compiled memo)
    "store_hits": 0,          # compiled-trace store loads
    "store_misses": 0,        # store lookups that fell through
}


def trace_stats_snapshot() -> Dict[str, float]:
    """A copy of this process's trace-preparation counters."""
    return dict(_TRACE_STATS)


#: Per-process memo of recently built traces.  Tasks are submitted
#: trace-major (all generations of a trace adjacent), so a small LRU lets
#: a worker regenerate each trace once instead of once per generation.
_TRACE_MEMO: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
_TRACE_MEMO_CAP = 16


def _build_trace(spec_dict: Dict[str, Any]) -> Trace:
    spec = TraceSpec(**spec_dict)
    key = spec.key()
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        t0 = time.perf_counter()
        trace = spec.build()
        _TRACE_STATS["generate_seconds"] += time.perf_counter() - t0
        _TRACE_STATS["generated"] += 1
        _TRACE_MEMO[key] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_CAP:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(key)
        _TRACE_STATS["memo_hits"] += 1
    return trace


#: Per-process memo of compiled traces — the thin LRU over
#: :class:`~repro.engine.cache.CompiledTraceStore`.  One compiled trace
#: serves all six generations of a population sweep on this worker.
_CTRACE_MEMO: "OrderedDict[Tuple[str, int, int], CompiledTrace]" = \
    OrderedDict()


def _build_compiled(spec_dict: Dict[str, Any],
                    cache_dir: Optional[str] = None) -> CompiledTrace:
    """Memo -> store -> generate+compile, cheapest source first.

    ``cache_dir`` roots the store (default: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``); engine payloads carry their cache root as the
    transport-only ``"_cache_dir"`` key."""
    spec = TraceSpec(**spec_dict)
    key = spec.key()
    compiled = _CTRACE_MEMO.get(key)
    if compiled is not None:
        _CTRACE_MEMO.move_to_end(key)
        _TRACE_STATS["memo_hits"] += 1
        return compiled
    store = CompiledTraceStore(cache_dir) if trace_store_enabled() else None
    fp = compiled_fingerprint(*key) if store is not None else None
    if store is not None:
        compiled = store.get(fp)
        if compiled is not None and (len(compiled) != spec.n_instructions
                                     or compiled.family != spec.family):
            compiled = None  # fingerprint collision / foreign entry
        if compiled is not None:
            _TRACE_STATS["store_hits"] += 1
        else:
            _TRACE_STATS["store_misses"] += 1
    if compiled is None:
        trace = _build_trace(spec_dict)
        t0 = time.perf_counter()
        compiled = compile_trace(trace)
        _TRACE_STATS["compile_seconds"] += time.perf_counter() - t0
        _TRACE_STATS["compiled"] += 1
        if store is not None:
            store.put(fp, compiled)
    _CTRACE_MEMO[key] = compiled
    while len(_CTRACE_MEMO) > _TRACE_MEMO_CAP:
        _CTRACE_MEMO.popitem(last=False)
    return compiled


#: Per-process memo of ``repro.run(warmup=N)`` checkpoints, keyed by
#: what a checkpoint depends on: (config fingerprint, trace spec key,
#: co-runners, N).  Reruns over one prefix — tracing passes, counter
#: sweeps, A/B reruns — restore it instead of re-simulating it.
_WARMUP_MEMO: "OrderedDict[Tuple[Any, ...], Dict[str, Any]]" = \
    OrderedDict()
_WARMUP_MEMO_CAP = 16


def warmup_checkpoint(config: GenerationConfig,
                      trace: Union[Trace, CompiledTrace], warmup: int,
                      corunners: int = 0,
                      spec: Optional[TraceSpec] = None) -> Dict[str, Any]:
    """The simulator checkpoint after ``trace``'s first ``warmup``
    instructions, simulated untraced.  ``spec`` is the trace's source:
    with it the checkpoint goes through :data:`_WARMUP_MEMO`; a
    materialized trace has no key, so its prefix runs on every call."""
    from ..core import GenerationSimulator

    if not 0 < warmup < len(trace):
        raise ValueError(f"warmup must be in (0, {len(trace)}) for this "
                         f"trace, got {warmup}")
    key = (None if spec is None
           else (config.fingerprint(), spec.key(), corunners, warmup))
    if key in _WARMUP_MEMO:
        _WARMUP_MEMO.move_to_end(key)
        return _WARMUP_MEMO[key]
    sim = GenerationSimulator(config, corunners=corunners)
    sim.run(trace.slice(0, warmup), finalize=False)
    doc = sim.save_state()
    if key is not None:
        _WARMUP_MEMO[key] = doc
        while len(_WARMUP_MEMO) > _WARMUP_MEMO_CAP:
            _WARMUP_MEMO.popitem(last=False)
    return doc


def _run_population_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import GenerationSimulator
    from ..core.interval import estimate_from_simulation
    from .results import SliceMetrics

    config = config_from_dict(payload["config"])
    trace = _build_compiled(payload["trace"], payload.get("_cache_dir"))
    sim = GenerationSimulator(config, corunners=payload.get("corunners", 0))
    r = sim.run(trace,
                window_interval=payload.get(
                    "window_interval", DEFAULT_WINDOW_INSTRUCTIONS),
                window_counters=payload.get("window_counters"))
    stack = estimate_from_simulation(r).cpi_stack
    row = SliceMetrics(
        trace_name=trace.name,
        family=trace.family,
        generation=config.name,
        ipc=r.ipc,
        mpki=r.mpki,
        average_load_latency=r.average_load_latency,
        bubbles_per_branch=r.branch.bubbles_per_branch,
        cpi_base=stack["base"],
        cpi_mispredict=stack["mispredict"],
        cpi_frontend=stack["frontend_bubbles"],
        cpi_memory=stack["memory"],
        windows=r.windows,
    )
    return row.to_dict()


def _run_ghist_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..frontend.baselines import (ShpDirectionAdapter,
                                      measure_conditional_mpki)
    from ..frontend.shp import ScaledHashedPerceptron

    trace = _build_trace(payload["trace"])
    shp = ShpDirectionAdapter(
        ScaledHashedPerceptron(payload["tables"], payload["rows"],
                               ghist_bits=payload["ghist_bits"],
                               phist_bits=payload["phist_bits"]))
    return {"conditional_mpki": measure_conditional_mpki(shp, trace)}


_EXECUTORS = {
    "population": _run_population_task,
    "ghist": _run_ghist_task,
}


def task_label(payload: Dict[str, Any]) -> str:
    """Short human label for one payload (profiling reports)."""
    kind = payload.get("kind", "?")
    parts = [str(kind)]
    config = payload.get("config")
    if isinstance(config, dict) and config.get("name"):
        parts.append(str(config["name"]))
    spec = payload.get("trace")
    if isinstance(spec, dict):
        fam = spec.get("family", "?")
        parts.append(f"{fam}/s{spec.get('seed', '?')}"
                     f"x{spec.get('n_instructions', '?')}")
    if kind == "ghist":
        parts.append(f"ghist={payload.get('ghist_bits')}")
    return " ".join(parts)


def task_instructions(payload: Dict[str, Any]) -> int:
    """Instructions one payload will simulate (telemetry throughput):
    its trace spec's length, or 0 for a payload without one."""
    spec = payload.get("trace")
    if not isinstance(spec, dict):
        return 0
    return int(spec.get("n_instructions", 0) or 0)


def execute_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task payload through its kind's executor (the body of
    :func:`execute_task_heartbeat`, which the engine's workers run)."""
    try:
        runner = _EXECUTORS[payload["kind"]]
    except KeyError:
        raise ValueError(f"unknown task kind {payload.get('kind')!r}")
    return runner(payload)


def execute_task_heartbeat(payload: Dict[str, Any]
                           ) -> Tuple[Dict[str, Any], float, int,
                                      Dict[str, float]]:
    """Run one task payload and return ``(result, wall seconds, pid,
    trace-stats delta)`` — the function the engine's workers run.

    The ``(seconds, pid)`` pair is the worker-side half of an engine
    telemetry heartbeat (:mod:`repro.observe.telemetry`): it rides the
    ordinary result channel back to the host, which stamps arrival time
    and task context.  The fourth element is the delta of
    :data:`_TRACE_STATS` across the task (only changed keys) — the
    host folds it into ``EngineStats.trace_stats``/``phase_breakdown``.
    Everything travels *beside* the result, so cached result payloads
    stay bit-identical run to run; the wall time is host-side profiling
    only — simulated timing comes exclusively from the payload.
    """
    before = trace_stats_snapshot()
    t0 = time.perf_counter()
    result = execute_task(payload)
    seconds = time.perf_counter() - t0
    after = trace_stats_snapshot()
    delta = {k: after[k] - before.get(k, 0)
             for k in after if after[k] != before.get(k, 0)}
    return result, seconds, os.getpid(), delta
