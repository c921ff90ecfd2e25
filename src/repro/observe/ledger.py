"""The run ledger: a durable, append-only record of every engine run.

``repro metrics --diff`` compares two dumps you happened to save — but
nothing in the repo remembered *its own runs*.  The ledger closes that gap:
every ``repro.run`` / ``repro.run_population`` invocation appends one
provenance-stamped JSON line to ``<cache_root>/ledger/runs.jsonl``,
recording what was run (config fingerprints, trace/task fingerprints,
window/warmup knobs), what it cost (wall-clock phase breakdown, worker
count, per-task-kind cache hits), and what came out (per-slice and
per-generation result summaries plus a digest of the archive bytes).
``python -m repro runs {list,show,compare,gc}`` inspects it, and
``repro regress --ledger REF`` gates against it.

Ledger writes live **beside** results — under the cache root, never
inside a result payload or archive — so archives stay bit-identical
with the ledger on or off (pinned by ``tests/test_ledger.py``).
Appends are single ``write()`` calls on an ``O_APPEND`` handle, so
concurrent runs interleave whole lines; a corrupt line (torn write,
version skew) is skipped on read, never fatal.  ``gc`` reads the ledger
and replaces it, so it holds an exclusive advisory lock on a sidecar
file (``runs.lock``) that appends share: an append waits out a gc
instead of landing in the file gc is about to replace.  The ledger is *not* a
cache: replaying a record re-runs the simulation; the record exists so
you can tell whether the re-run changed.

Disable with ``REPRO_LEDGER=off`` (or pass ``ledger=False`` to the run
APIs); the wall-clock reads here are sanctioned by the simlint SIM002
``wallclock_allow`` list.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..atomic import atomic_write

#: Version of the ledger record format.
LEDGER_SCHEMA_VERSION = 1

#: Ledger location under the cache root.
LEDGER_DIRNAME = "ledger"
LEDGER_FILENAME = "runs.jsonl"
#: The sidecar lock file beside the ledger (see :func:`_locked`).
LEDGER_LOCKNAME = "runs.lock"

#: Environment switch: any of these values disables ledger writes.
_DISABLE_VALUES = ("0", "off", "no", "false")


def ledger_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the effective on/off state (explicit arg beats env)."""
    if override is not None:
        return bool(override)
    value = os.environ.get("REPRO_LEDGER", "").strip().lower()
    return value not in _DISABLE_VALUES


def ledger_path(cache_dir: Optional[os.PathLike] = None) -> Path:
    """``<cache_root>/ledger/runs.jsonl`` (cache root honours
    ``REPRO_CACHE_DIR``)."""
    from ..engine.cache import default_cache_dir

    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / LEDGER_DIRNAME / LEDGER_FILENAME


def record_id(record: Dict[str, Any]) -> str:
    """Content-addressed short id: SHA-256 over the canonical record
    JSON (timestamp included, so repeated identical runs stay distinct
    records), truncated to 12 hex chars."""
    text = json.dumps({k: v for k, v in record.items() if k != "id"},
                      sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def utc_timestamp() -> str:
    """Current UTC wall time, ISO-8601 with seconds precision."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ---------------------------------------------------------------------------
# Record construction
# ---------------------------------------------------------------------------

def _summarize_slices(metrics: Sequence[Any]) -> List[Dict[str, Any]]:
    """Compact per-slice result rows (full precision, no windows)."""
    return [{
        "trace": m.trace_name,
        "family": m.family,
        "generation": m.generation,
        "ipc": m.ipc,
        "mpki": m.mpki,
        "average_load_latency": m.average_load_latency,
        "cpi_base": m.cpi_base,
        "cpi_mispredict": m.cpi_mispredict,
        "cpi_frontend": m.cpi_frontend,
        "cpi_memory": m.cpi_memory,
    } for m in metrics]


def _summarize_generations(population: Any) -> Dict[str, Dict[str, float]]:
    gens = []
    for m in population.metrics:
        if m.generation not in gens:
            gens.append(m.generation)
    return {
        g: {
            "slices": len(population.for_generation(g)),
            "ipc": population.mean(g, "ipc"),
            "mpki": population.mean(g, "mpki"),
            "average_load_latency": population.mean(
                g, "average_load_latency"),
        }
        for g in gens
    }


def _schema_stamp() -> Dict[str, Any]:
    from .. import __version__
    from ..engine.results import RESULT_SCHEMA_VERSION
    from ..engine.tasks import ENGINE_SCHEMA_VERSION
    from ..state import CHECKPOINT_SCHEMA_VERSION

    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "version": __version__,
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
    }


def _stats_stamp(stats: Any) -> Dict[str, Any]:
    return {
        "workers": stats.workers,
        "cache_mode": stats.cache_mode,
        "tasks_total": stats.tasks_total,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
        "wall_seconds": stats.wall_seconds,
        # Throughput fields (older EngineStats objects lack them).
        "instructions_total": getattr(stats, "instructions_total", 0),
        "instructions_executed": getattr(stats, "instructions_executed", 0),
        "kips": getattr(stats, "kips", 0.0),
        "phase_breakdown": dict(stats.phase_breakdown),
        "kind_stats": {kind: dict(counts)
                       for kind, counts in stats.kind_stats.items()},
    }


def population_record(population: Any, stats: Any, *,
                      params: Dict[str, Any],
                      config_fingerprints: Dict[str, str],
                      task_fingerprints: Sequence[str]) -> Dict[str, Any]:
    """Build the ledger record for one population run.

    ``task_fingerprints`` is digested (sorted SHA-256) rather than
    stored — the set identifies the exact task matrix without bloating
    the line; ``archive_digest`` ties the record to the archive bytes
    ``population_to_json`` would produce.
    """
    from ..serialization import population_to_json

    task_digest = hashlib.sha256(
        "\n".join(sorted(task_fingerprints)).encode("utf-8")).hexdigest()
    record: Dict[str, Any] = {
        **_schema_stamp(),
        "kind": "population",
        "timestamp": utc_timestamp(),
        "params": dict(params),
        "config_fingerprints": dict(config_fingerprints),
        "tasks_digest": task_digest,
        "engine": _stats_stamp(stats),
        "summary": {
            "generations": _summarize_generations(population),
            "slices": _summarize_slices(population.metrics),
        },
        "archive_digest": hashlib.sha256(
            population_to_json(population).encode("utf-8")).hexdigest(),
    }
    record["id"] = record_id(record)
    return record


def single_run_record(result: Any, *, generation: str,
                      config_fingerprint: str,
                      spec: Optional[Dict[str, Any]],
                      corunners: int, warmup: int,
                      wall_seconds: float,
                      instructions: int = 0) -> Dict[str, Any]:
    """Build the ledger record for one ``repro.run`` invocation.

    ``instructions`` is the measured-segment length; with
    ``wall_seconds`` it yields the run's KIPS throughput stamp."""
    record: Dict[str, Any] = {
        **_schema_stamp(),
        "kind": "run",
        "timestamp": utc_timestamp(),
        "params": {
            "generation": generation,
            "trace": spec,
            "corunners": corunners,
            "warmup": warmup,
        },
        "config_fingerprints": {generation: config_fingerprint},
        "engine": {
            "wall_seconds": wall_seconds,
            "instructions": int(instructions),
            "kips": (instructions / 1000.0 / wall_seconds
                     if wall_seconds > 0 and instructions else 0.0),
        },
        "summary": {
            "ipc": result.ipc,
            "mpki": result.mpki,
            "average_load_latency": result.average_load_latency,
        },
    }
    record["id"] = record_id(record)
    return record


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

@contextmanager
def _locked(path: Path, exclusive: bool) -> Iterator[None]:
    """Hold an advisory ``flock`` on the ledger's sidecar lock file
    (made, with its directory, if missing): shared by appends, which
    ``O_APPEND`` already keeps whole, and exclusive for :func:`gc_ledger`'s
    read and replace.  Closing the file releases the lock."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path.with_name(LEDGER_LOCKNAME), os.O_RDWR | os.O_CREAT,
                 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        os.close(fd)


def append_record(record: Dict[str, Any],
                  cache_dir: Optional[os.PathLike] = None) -> Optional[str]:
    """Append one record (one sorted-key JSON line) to the ledger.

    Returns the record id, or ``None`` when the ledger directory is
    unwritable — a run must never fail because its log could not.
    """
    path = ledger_path(cache_dir)
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        with _locked(path, exclusive=False):
            with open(path, "a", encoding="utf-8") as f:
                f.write(line)
    except OSError:
        return None
    return str(record.get("id", ""))


def read_ledger(cache_dir: Optional[os.PathLike] = None
                ) -> List[Dict[str, Any]]:
    """All readable records, oldest first (corrupt lines skipped)."""
    path = ledger_path(cache_dir)
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def find_record(records: Sequence[Dict[str, Any]],
                ref: str) -> Optional[Dict[str, Any]]:
    """Resolve a user reference: a record id (or unique prefix), or a
    1-based position from the end (``-1`` / ``1`` = most recent)."""
    ref = ref.strip()
    if ref.lstrip("-").isdigit():
        index = abs(int(ref))
        if 1 <= index <= len(records):
            return records[-index]
        return None
    matches = [r for r in records
               if str(r.get("id", "")).startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    if matches:  # ambiguous prefix: prefer the most recent exact id
        exact = [r for r in matches if r.get("id") == ref]
        return exact[-1] if exact else None
    return None


def gc_ledger(keep: int, cache_dir: Optional[os.PathLike] = None) -> int:
    """Drop all but the newest ``keep`` records (atomic rewrite, with
    appends locked out).

    Returns the number of records removed.  ``keep <= 0`` empties the
    ledger.
    """
    path = ledger_path(cache_dir)
    if not path.exists():
        return 0
    try:
        with _locked(path, exclusive=True):
            records = read_ledger(cache_dir)
            kept = records[-keep:] if keep > 0 else []
            removed = len(records) - len(kept)
            if removed <= 0:
                return 0
            atomic_write(path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                       for r in kept))
    except OSError:
        return 0
    return removed


# ---------------------------------------------------------------------------
# Comparison (the `runs compare` view)
# ---------------------------------------------------------------------------

def compare_records(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Field-level comparison of two ledger records.

    Reports provenance drift (schema/version/config/task fingerprints),
    knob differences (params), engine-cost deltas, and per-generation
    summary deltas — the ``runs compare`` document.
    """
    def _delta(key_path: str, va: Any, vb: Any) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"a": va, "b": vb}
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                and not isinstance(va, bool) and not isinstance(vb, bool):
            entry["delta"] = vb - va
        return entry

    provenance: Dict[str, Any] = {}
    for key in ("schema", "version", "engine_schema", "result_schema",
                "checkpoint_schema", "kind", "tasks_digest",
                "archive_digest"):
        if a.get(key) != b.get(key):
            provenance[key] = _delta(key, a.get(key), b.get(key))
    fp_a = a.get("config_fingerprints", {}) or {}
    fp_b = b.get("config_fingerprints", {}) or {}
    for gen in sorted(set(fp_a) | set(fp_b)):
        if fp_a.get(gen) != fp_b.get(gen):
            provenance[f"config_fingerprints.{gen}"] = _delta(
                gen, fp_a.get(gen), fp_b.get(gen))

    params: Dict[str, Any] = {}
    pa, pb = a.get("params", {}) or {}, b.get("params", {}) or {}
    for key in sorted(set(pa) | set(pb)):
        if pa.get(key) != pb.get(key):
            params[key] = _delta(key, pa.get(key), pb.get(key))

    engine: Dict[str, Any] = {}
    ea, eb = a.get("engine", {}) or {}, b.get("engine", {}) or {}
    for key in ("workers", "cache_mode", "tasks_total", "cache_hits",
                "executed", "wall_seconds", "instructions",
                "instructions_total", "instructions_executed", "kips"):
        if ea.get(key) != eb.get(key):
            engine[key] = _delta(key, ea.get(key), eb.get(key))

    summary: Dict[str, Any] = {}
    ga = (a.get("summary", {}) or {}).get("generations", {}) or {}
    gb = (b.get("summary", {}) or {}).get("generations", {}) or {}
    for gen in sorted(set(ga) | set(gb)):
        row_a, row_b = ga.get(gen, {}), gb.get(gen, {})
        for metric in ("ipc", "mpki", "average_load_latency"):
            va, vb = row_a.get(metric), row_b.get(metric)
            if va != vb:
                summary[f"{gen}.{metric}"] = _delta(metric, va, vb)
    if a.get("kind") == "run" or b.get("kind") == "run":
        sa = a.get("summary", {}) or {}
        sb = b.get("summary", {}) or {}
        for metric in ("ipc", "mpki", "average_load_latency"):
            if metric in sa or metric in sb:
                if sa.get(metric) != sb.get(metric):
                    summary[metric] = _delta(metric, sa.get(metric),
                                             sb.get(metric))

    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "a": {"id": a.get("id"), "timestamp": a.get("timestamp")},
        "b": {"id": b.get("id"), "timestamp": b.get("timestamp")},
        "provenance": provenance,
        "params": params,
        "engine": engine,
        "summary": summary,
        "identical_results": (a.get("archive_digest") is not None
                              and a.get("archive_digest")
                              == b.get("archive_digest")),
    }
