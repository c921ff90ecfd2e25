"""Data generators + ASCII renderers for the paper's figures.

Covered: Fig 1 (GHIST sweep), Fig 5 (ZAT/ZOT throughput), Fig 7 (MRB
refill), Fig 8 (hybrid indirect latency), Fig 9 (MPKI population curves),
Fig 14 (one-/two-pass), Fig 15 (adaptive prefetcher transitions), Fig 16
(load-latency curves) and Fig 17 (IPC curves).  The structural figures
(2-4, 6, 10-13) are behaviour, not data — their mechanisms are exercised
by unit tests and the examples.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import GENERATION_ORDER
from ..engine import PopulationResult, run_population
from ..frontend.baselines import ShpDirectionAdapter, measure_conditional_mpki
from ..frontend.shp import ScaledHashedPerceptron
from ..traces import Trace, cbp5_suite, cbp5_suite_specs

#: Fig 1's x-axis: GHIST hash-range bit budgets.
FIG1_GHIST_POINTS: Tuple[int, ...] = (2, 8, 24, 60, 120, 165, 240, 330)


def figure1_ghist_sweep(
    ghist_points: Sequence[int] = FIG1_GHIST_POINTS,
    traces: Optional[Sequence[Trace]] = None,
    n_traces: int = 8,
    trace_length: int = 40_000,
    *,
    workers: Optional[int] = 1,
    cache: str = "memory",
    cache_dir: Optional[os.PathLike] = None,
) -> Dict[int, float]:
    """Average MPKI of an 8-table, 1K-weight SHP as the GHIST hash range
    grows (paper Figure 1 on CBP5; ours on the cbp5-like population).

    With the default spec-derived population the (bits x trace) matrix
    runs through :mod:`repro.engine` — shardable and cacheable like any
    population run.  Passing explicit ``traces`` keeps the legacy
    in-process path (materialized traces cannot be shipped to workers).
    """
    if traces is not None:
        out: Dict[int, float] = {}
        for bits in ghist_points:
            vals = []
            for t in traces:
                shp = ShpDirectionAdapter(
                    ScaledHashedPerceptron(8, 1024, ghist_bits=bits,
                                           phist_bits=80))
                vals.append(measure_conditional_mpki(shp, t))
            out[bits] = math.fsum(vals) / len(vals)
        return out

    from ..engine import PopulationEngine, ghist_task

    specs = cbp5_suite_specs(n_traces=n_traces, trace_length=trace_length)
    # Trace-major so each worker's trace memo sees one trace's whole sweep.
    payloads = [ghist_task(spec, bits)
                for spec in specs for bits in ghist_points]
    engine = PopulationEngine(workers=workers, cache=cache,
                              cache_dir=cache_dir)
    rows, _ = engine.run_payloads(payloads)
    n_points = len(ghist_points)
    out = {}
    for p, bits in enumerate(ghist_points):
        vals = [rows[s * n_points + p]["conditional_mpki"]
                for s in range(len(specs))]
        out[bits] = math.fsum(vals) / len(vals)
    return out


def population_curves(attr: str, clip: Optional[float] = None,
                      population: Optional[PopulationResult] = None,
                      generations: Sequence[str] = GENERATION_ORDER,
                      ) -> Dict[str, List[float]]:
    """Sorted per-slice series per generation — the s-curve presentation
    of Figures 9 (mpki, clipped at 20), 16 (average_load_latency) and 17
    (ipc)."""
    pop = population if population is not None else run_population()
    out: Dict[str, List[float]] = {}
    for name in generations:
        series = pop.series(name, attr)
        if clip is not None:
            series = [min(v, clip) for v in series]
        out[name] = series
    return out


def population_window_curves(
    attr: str,
    population: Optional[PopulationResult] = None,
    generations: Sequence[str] = GENERATION_ORDER,
    warmup: int = 1,
    clip: Optional[float] = None,
) -> Dict[str, List[float]]:
    """Per-*window* s-curves: the sorted pool of every slice's
    post-warmup window values of ``attr`` (``"ipc"``, ``"mpki"``,
    ``"average_load_latency"``), one series per generation.

    Where :func:`population_curves` has one point per 20k-instruction
    slice, this has one per window — the same distributions at interval
    resolution, with the first ``warmup`` windows of each slice dropped
    so cold predictor/cache state doesn't skew the curve.
    """
    pop = population if population is not None else run_population()
    out: Dict[str, List[float]] = {}
    for name in generations:
        series = pop.window_series(name, attr, warmup=warmup)
        if clip is not None:
            series = [min(v, clip) for v in series]
        out[name] = series
    return out


def figure_windowed_ipc(population: Optional[PopulationResult] = None,
                        warmup: int = 1) -> Dict[str, List[float]]:
    """Windowed companion to Figure 17: per-window IPC distributions
    across the population, warmup windows excluded."""
    return population_window_curves("ipc", population=population,
                                    warmup=warmup)


def figure_windowed_mpki(population: Optional[PopulationResult] = None,
                         warmup: int = 1) -> Dict[str, List[float]]:
    """Windowed companion to Figure 9: per-window MPKI distributions,
    clipped at 20 like the paper's slice-level curve (M2 omitted for the
    same reason)."""
    gens = tuple(g for g in GENERATION_ORDER if g != "M2")
    return population_window_curves("mpki", population=population,
                                    generations=gens, warmup=warmup,
                                    clip=20.0)


def figure9_mpki(population: Optional[PopulationResult] = None
                 ) -> Dict[str, List[float]]:
    """Figure 9: MPKI across slices, clipped at 20 (M2 omitted, as in the
    paper: no substantial branch prediction change over M1)."""
    gens = tuple(g for g in GENERATION_ORDER if g != "M2")
    return population_curves("mpki", clip=20.0, population=population,
                             generations=gens)


def figure16_load_latency(population: Optional[PopulationResult] = None
                          ) -> Dict[str, List[float]]:
    """Figure 16: average load latency across slices per generation."""
    return population_curves("average_load_latency", population=population)


def figure17_ipc(population: Optional[PopulationResult] = None
                 ) -> Dict[str, List[float]]:
    """Figure 17: IPC across slices per generation."""
    return population_curves("ipc", population=population)


def render_curves(curves: Dict[str, List[float]], title: str,
                  width: int = 64, height: int = 16,
                  fmt: str = "{:6.2f}") -> str:
    """ASCII multi-series plot of sorted per-slice curves."""
    out = [title]
    all_vals = [v for series in curves.values() for v in series]
    if not all_vals:
        return title + "\n(no data)"
    lo, hi = min(all_vals), max(all_vals)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = "123456"
    for gi, (name, series) in enumerate(curves.items()):
        n = len(series)
        for x in range(width):
            v = series[min(n - 1, x * n // width)]
            y = int((v - lo) / span * (height - 1))
            grid[height - 1 - y][x] = marks[gi % len(marks)]
    out.append(f"  y: {fmt.format(hi)} (top) .. {fmt.format(lo)} (bottom);"
               " x: slices sorted ascending")
    for gi, name in enumerate(curves):
        mean = math.fsum(curves[name]) / len(curves[name])
        out.append(f"  series {marks[gi % len(marks)]} = {name}"
                   f"  (mean {mean:.2f})")
    out.extend("  |" + "".join(row) for row in grid)
    return "\n".join(out)


def overall_summary(population: Optional[PopulationResult] = None
                    ) -> Dict[str, Dict[str, float]]:
    """The headline cross-generation numbers: mean MPKI (paper: 3.62 ->
    2.54), mean load latency (14.9 -> 8.3) and mean IPC (1.06 -> 2.71,
    +20.6%/year compounded)."""
    pop = population if population is not None else run_population()
    out: Dict[str, Dict[str, float]] = {}
    for name in GENERATION_ORDER:
        out[name] = {
            "mpki": pop.mean(name, "mpki"),
            "load_latency": pop.mean(name, "average_load_latency"),
            "ipc": pop.mean(name, "ipc"),
        }
    first, last = out["M1"], out["M6"]
    years = 5
    growth = ((last["ipc"] / first["ipc"]) ** (1 / years) - 1
              if first["ipc"] else 0.0)
    out["summary"] = {
        "mpki_reduction_pct": 100.0 * (1 - last["mpki"] / first["mpki"])
        if first["mpki"] else 0.0,
        "ipc_growth_per_year_pct": 100.0 * growth,
        "latency_reduction_pct": 100.0 * (
            1 - last["load_latency"] / first["load_latency"])
        if first["load_latency"] else 0.0,
    }
    return out
