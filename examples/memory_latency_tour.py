#!/usr/bin/env python3
"""Memory access latency optimization tour (paper Section IX).

Walks the DRAM path feature by feature:

1. the baseline three-domain path (four async crossings + queueing),
2. M4's dedicated data fast path,
3. M5's speculative read overlapping the cache lookup,
4. M5's early page activate sideband.

Run:  python examples/memory_latency_tour.py
"""

from repro.config import MemoryLatencyConfig
from repro.memory import DramModel, MemoryPath


def trip(cfg: MemoryLatencyConfig, **kw) -> float:
    path = MemoryPath(cfg, DramModel(base_latency=100,
                                     page_miss_penalty=40))
    return path.dram_round_trip(0x4000_0000, **kw).latency


def main() -> None:
    lookup = 18.0  # L2+L3 tag-check time the speculative read can hide

    base = MemoryLatencyConfig()
    m4 = MemoryLatencyConfig(has_data_fast_path=True)
    m5 = MemoryLatencyConfig(has_data_fast_path=True,
                             has_speculative_read=True,
                             has_early_page_activate=True)

    print("== One demand-load DRAM round trip (cold page each time) ==")
    t0 = trip(base, latency_critical=True, bypassed_lookup_latency=lookup)
    print(f"  M1-M3 baseline path                : {t0:6.1f} cycles")
    t1 = trip(m4, latency_critical=True, bypassed_lookup_latency=lookup)
    print(f"  M4 + data fast path                : {t1:6.1f} cycles "
          f"(-{t0 - t1:.0f})")
    t2 = trip(m5, latency_critical=True, bypassed_lookup_latency=lookup)
    print(f"  M5 + speculative read + early act. : {t2:6.1f} cycles "
          f"(-{t0 - t2:.0f})")

    print("\n== Early page activate on a closed page ==")
    dram = DramModel(base_latency=100, page_miss_penalty=40)
    cold = dram.access(0x8000_0000).latency
    dram2 = DramModel(base_latency=100, page_miss_penalty=40)
    dram2.early_activate(0x8000_0000)
    hinted = dram2.access(0x8000_0000).latency
    print(f"  without hint: {cold:.0f} cycles; with sideband hint: "
          f"{hinted:.0f} cycles")
    dram3 = DramModel(activate_ignore_load=2)
    dram3.outstanding = 10
    honored = dram3.early_activate(0x9000_0000)
    print(f"  under heavy load the controller may ignore the hint: "
          f"honoured={honored}")


if __name__ == "__main__":
    main()
