#!/usr/bin/env python3
"""Miniature Figure 17: IPC curves across a workload population.

Runs a small standard-suite population through every generation and draws
the sorted per-slice IPC curves as ASCII — the laptop-scale version of the
paper's 4,026-slice plot, with the same reading: low-IPC slices improve
through prefetching, the middle through MPKI/cache work, and high-IPC
slices are released by the 4-wide -> 6-wide -> 8-wide front end.

Runs through ``repro.engine``: sharded across every CPU and cached on
disk, so a second invocation renders instantly from ``~/.cache/repro``.

Run:  python examples/generation_sweep.py          (~1 minute cold)
      REPRO_SWEEP_SLICES=48 python examples/generation_sweep.py
"""

import os

from repro import run_population
from repro.harness import (
    figure9_mpki,
    figure16_load_latency,
    figure17_ipc,
    overall_summary,
    render_curves,
)


def main() -> None:
    n = int(os.environ.get("REPRO_SWEEP_SLICES", "18"))
    length = int(os.environ.get("REPRO_SWEEP_SLICE_LEN", "10000"))
    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))  # 0 = per CPU
    print(f"running {n} slices x {length} uops x 6 generations ...")
    pop = run_population(n_slices=n, slice_length=length, seed=2020,
                         workers=workers, cache="disk")

    print()
    print(render_curves(figure17_ipc(pop), "FIG 17 (mini) - IPC per slice"))
    print()
    print(render_curves(figure9_mpki(pop),
                        "FIG 9 (mini) - MPKI per slice (clipped at 20)"))
    print()
    print(render_curves(figure16_load_latency(pop),
                        "FIG 16 (mini) - avg load latency per slice"))

    s = overall_summary(pop)
    print("\nheadline (paper: IPC 1.06 -> 2.71 at +20.6%/yr; "
          "load latency 14.9 -> 8.3):")
    print(f"  IPC    M1 {s['M1']['ipc']:.2f} -> M6 {s['M6']['ipc']:.2f} "
          f"({s['summary']['ipc_growth_per_year_pct']:.1f}%/yr)")
    print(f"  lat.   M1 {s['M1']['load_latency']:.1f} -> "
          f"M6 {s['M6']['load_latency']:.1f} "
          f"(-{s['summary']['latency_reduction_pct']:.0f}%)")
    print(f"  MPKI   M1 {s['M1']['mpki']:.2f} -> M6 {s['M6']['mpki']:.2f}")


if __name__ == "__main__":
    main()
