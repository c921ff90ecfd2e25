"""One-shot reproduction report.

Composes every table and population figure into a single text/markdown
document — the artifact a reviewer reads next to the paper.  Used by
``python -m repro report``.
"""

from __future__ import annotations

import os
from typing import Optional

from ..config import GENERATION_ORDER
from ..engine import PopulationResult, run_population
from .figures import (
    figure1_ghist_sweep,
    figure9_mpki,
    figure16_load_latency,
    figure17_ipc,
    figure_windowed_ipc,
    overall_summary,
    render_curves,
)
from .tables import render_table1, render_table2, render_table3, render_table4

_HEADER = """\
# Exynos M-series reproduction report

Generated by `python -m repro report`. Absolute numbers are synthetic-
workload results; compare *shapes* against the paper (see EXPERIMENTS.md
for the per-experiment verdicts).
"""


def build_report(
    population: Optional[PopulationResult] = None,
    n_slices: int = 24,
    slice_length: int = 12_000,
    include_fig1: bool = True,
    fig1_traces: int = 4,
    *,
    workers: Optional[int] = 1,
    cache: str = "memory",
    cache_dir: Optional[os.PathLike] = None,
) -> str:
    """Render the full report as one string.

    ``workers``/``cache`` are forwarded to the execution engine for the
    population run and the Figure 1 sweep (ignored when a prebuilt
    ``population`` is supplied — except by Figure 1, which always runs).
    """
    pop = population if population is not None else run_population(
        n_slices=n_slices, slice_length=slice_length,
        workers=workers, cache=cache, cache_dir=cache_dir)
    parts = [_HEADER]

    parts.append("## Tables\n")
    parts.append("```\n" + render_table1() + "\n```\n")
    parts.append("```\n" + render_table2() + "\n```\n")
    parts.append("```\n" + render_table3() + "\n```\n")
    parts.append("```\n" + render_table4(pop) + "\n```\n")

    if include_fig1:
        sweep = figure1_ghist_sweep(n_traces=fig1_traces,
                                    trace_length=20_000,
                                    workers=workers, cache=cache,
                                    cache_dir=cache_dir)
        lines = ["FIG 1 - avg MPKI vs GHIST range bits"]
        for bits, mpki in sweep.items():
            lines.append(f"  {bits:4d}: {mpki:5.2f} " + "#" * int(mpki * 8))
        parts.append("## Figure 1\n\n```\n" + "\n".join(lines) + "\n```\n")

    parts.append("## Population figures\n")
    for title, curves in (
        ("FIG 9 - MPKI per slice (clipped at 20)", figure9_mpki(pop)),
        ("FIG 16 - avg load latency per slice", figure16_load_latency(pop)),
        ("FIG 17 - IPC per slice", figure17_ipc(pop)),
        ("FIG W - IPC per window (warmup window excluded)",
         figure_windowed_ipc(pop)),
    ):
        parts.append("```\n" + render_curves(curves, title) + "\n```\n")

    s = overall_summary(pop)
    lines = ["## Headline summary", ""]
    lines.append("| gen | IPC | MPKI | avg load latency |")
    lines.append("|---|---|---|---|")
    for g in GENERATION_ORDER:
        lines.append(f"| {g} | {s[g]['ipc']:.2f} | {s[g]['mpki']:.2f} | "
                     f"{s[g]['load_latency']:.1f} |")
    lines.append("")
    lines.append(f"IPC growth per year: "
                 f"{s['summary']['ipc_growth_per_year_pct']:.1f}% "
                 f"(paper: 20.6%); load-latency reduction: "
                 f"{s['summary']['latency_reduction_pct']:.0f}% "
                 f"(paper: 44%); MPKI reduction: "
                 f"{s['summary']['mpki_reduction_pct']:.1f}% "
                 f"(paper: 30%).")
    parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)
