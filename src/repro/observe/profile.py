"""Engine self-profiling: where the *host's* time goes.

The simulator side of this package records simulated cycles; this
module is about wall-clock — the measurement substrate for host-side
optimisation work.  The engine (:mod:`repro.engine.runner`, the one
layer sanctioned to read wall clocks by simlint SIM002's
``wallclock_allow``) fills an :class:`~repro.engine.runner.EngineStats`
with a ``phase_breakdown`` (seconds per engine phase) and per-task
:class:`TaskTiming` rows; this module turns those into reports:
the N slowest (trace x generation) tasks and the serial-vs-worker
throughput comparison behind ``python -m repro population --profile``.

Nothing here reads a clock itself, so it stays importable from
simulation code without widening the SIM002 allowlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: Engine phase names, in reporting order.
PHASES = ("fingerprint", "cache_lookup", "execute", "cache_store")


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock cost of one executed task (cache hits have none)."""

    #: Human label, e.g. ``"population specint_like/s7x12000 gen=M3"``.
    label: str
    seconds: float


def slowest_tasks(timings: Sequence[TaskTiming],
                  n: int = 10) -> List[TaskTiming]:
    """The ``n`` slowest tasks, slowest first (ties broken by label so
    the report is deterministic for equal-cost tasks)."""
    ranked = sorted(timings, key=lambda t: (-t.seconds, t.label))
    return ranked[:max(0, n)]


def kind_hit_rates(kind_stats) -> List[str]:
    """Per-task-kind cache hit-rate lines, kinds sorted for stable
    output — the rendered view of ``EngineStats.kind_stats``."""
    lines: List[str] = []
    for kind in sorted(kind_stats):
        counts = kind_stats[kind]
        hits = int(counts.get("hits", 0))
        executed = int(counts.get("executed", 0))
        total = hits + executed
        rate = 100.0 * hits / total if total > 0 else 0.0
        lines.append(f"    {kind:<12s} {rate:5.1f}% hit "
                     f"({hits}/{total} cached, {executed} executed)")
    return lines


def describe_profile(stats, top: int = 10) -> str:
    """Render one engine run's profile (an ``EngineStats`` with
    ``phase_breakdown``/``task_timings`` filled in) as text."""
    lines: List[str] = ["engine profile:"]
    breakdown = dict(stats.phase_breakdown)
    total = stats.wall_seconds or 0.0
    accounted = math.fsum(breakdown.get(p, 0.0) for p in PHASES)
    lines.append(f"  wall {total:.3f}s over {stats.tasks_total} tasks "
                 f"({stats.cache_hits} cached, {stats.executed} executed, "
                 f"workers={stats.workers})")
    lines.append("  phase breakdown:")
    for phase in PHASES:
        seconds = breakdown.get(phase, 0.0)
        pct = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"    {phase:<14s} {seconds:8.3f}s  {pct:5.1f}%")
    other = max(0.0, total - accounted)
    pct = 100.0 * other / total if total > 0 else 0.0
    lines.append(f"    {'other':<14s} {other:8.3f}s  {pct:5.1f}%")
    # Worker-side trace preparation overlaps the execute phase (it is
    # not part of `accounted`); render it as execute sub-phases.
    for sub in ("trace_generate", "trace_compile"):
        seconds = breakdown.get(sub, 0.0)
        if seconds:
            pct = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"    {sub:<14s} {seconds:8.3f}s  {pct:5.1f}% "
                         f"(inside execute)")

    trace_stats = getattr(stats, "trace_stats", None) or {}
    if trace_stats:
        generated = int(trace_stats.get("generated", 0))
        compiled = int(trace_stats.get("compiled", 0))
        memo_hits = int(trace_stats.get("memo_hits", 0))
        store_hits = int(trace_stats.get("store_hits", 0))
        store_misses = int(trace_stats.get("store_misses", 0))
        lines.append(f"  trace prep: {generated} generated, "
                     f"{compiled} compiled, {memo_hits} memo hits")
        looked_up = store_hits + store_misses
        if looked_up:
            rate = 100.0 * store_hits / looked_up
            lines.append(f"  compiled store: {rate:5.1f}% hit "
                         f"({store_hits}/{looked_up} lookups)")

    instructions = int(getattr(stats, "instructions_executed", 0) or 0)
    kips = getattr(stats, "kips", 0.0)
    if instructions and kips:
        lines.append(f"  throughput: {kips:.1f} kips "
                     f"({instructions} instructions simulated)")

    kind_stats = getattr(stats, "kind_stats", None) or {}
    if kind_stats:
        lines.append("  cache hit-rate by task kind:")
        lines.extend(kind_hit_rates(kind_stats))

    timings = list(stats.task_timings)
    if timings:
        serial_seconds = math.fsum(t.seconds for t in timings)
        execute_wall = breakdown.get("execute", 0.0)
        lines.append(
            f"  task time: {serial_seconds:.3f}s of simulation executed "
            f"in {execute_wall:.3f}s of wall"
            + (f" (effective parallelism "
               f"{serial_seconds / execute_wall:.2f}x, workers="
               f"{stats.workers})" if execute_wall > 0 else ""))
        shown = slowest_tasks(timings, top)
        lines.append(f"  slowest {len(shown)} tasks:")
        for t in shown:
            lines.append(f"    {t.seconds:8.3f}s  {t.label}")
    else:
        lines.append("  task time: everything served from cache "
                     "(no tasks executed)")
    return "\n".join(lines)
