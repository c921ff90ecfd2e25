"""Population runs: every generation over the standard suite.

The paper's cross-generation results (Figures 9, 16, 17; Tables II, IV and
the Section IV/X summary numbers) are all population statistics over its
4,026 trace slices.  Execution lives in :mod:`repro.engine`: the
(trace x generation) task matrix is sharded across worker processes
(``workers=N``) and memoized in-process or on disk
(``cache="off"|"memory"|"disk"``); this module holds the CSV exports
and the suite-level branch statistics.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..engine.results import PopulationResult
from ..traces import Trace


def to_csv(result: PopulationResult) -> str:
    """Serialise a population run as CSV (one row per slice x generation),
    for external plotting/analysis tools.  Includes the interval-model
    CPI-stack columns (Section XI attribution)."""
    lines = ["trace,family,generation,ipc,mpki,avg_load_latency,"
             "bubbles_per_branch,cpi_base,cpi_mispredict,cpi_frontend,"
             "cpi_memory"]
    for m in result.metrics:
        lines.append(
            f"{m.trace_name},{m.family},{m.generation},{m.ipc:.4f},"
            f"{m.mpki:.4f},{m.average_load_latency:.4f},"
            f"{m.bubbles_per_branch:.4f},{m.cpi_base:.4f},"
            f"{m.cpi_mispredict:.4f},{m.cpi_frontend:.4f},"
            f"{m.cpi_memory:.4f}"
        )
    return "\n".join(lines) + "\n"


def windows_to_csv(result: PopulationResult) -> str:
    """Serialise every per-window sample as CSV (one row per slice x
    generation x window) — the time-series companion of :func:`to_csv`.

    Each row carries the window boundaries, the instruction count and
    the derived per-window IPC / MPKI / average load latency (computed
    through the shared formula definitions, like the figure renderers).
    Slices simulated with windowing disabled contribute no rows.
    """
    lines = ["trace,family,generation,window,start_instruction,"
             "end_instruction,instructions,ipc,mpki,avg_load_latency"]
    for m in result.metrics:
        for w in m.windows:
            lines.append(
                f"{m.trace_name},{m.family},{m.generation},{w.index},"
                f"{w.start_instruction},{w.end_instruction},"
                f"{w.instructions},{w.ipc:.4f},{w.mpki:.4f},"
                f"{w.average_load_latency:.4f}"
            )
    return "\n".join(lines) + "\n"


def branch_pair_statistics(traces: Sequence[Trace]) -> Dict[str, float]:
    """The Section IV-A fetch-pair statistics: of consecutive branch
    pairs, how often the lead branch is TAKEN, how often the lead is
    not-taken but the second is TAKEN, and how often both are not-taken
    (paper: 60% / 24% / 16%)."""
    lead_taken = second_taken = both_nt = 0
    for trace in traces:
        outcomes = [r.taken for r in trace if r.is_branch]
        for a, b in zip(outcomes, outcomes[1:]):
            if a:
                lead_taken += 1
            elif b:
                second_taken += 1
            else:
                both_nt += 1
    total = max(1, lead_taken + second_taken + both_nt)
    return {
        "lead_taken": lead_taken / total,
        "second_taken": second_taken / total,
        "both_not_taken": both_nt / total,
    }
