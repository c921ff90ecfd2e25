"""Instruction-side cache path.

Table I tracks the L1 instruction cache from 64KB (M1-M5) to 128KB (M6)
and the instruction TLB alongside it; instruction misses share the unified
L2/L3/DRAM path with data.  The front end consumes this as fetch-stall
cycles: a fetch group crossing into a non-resident line stalls until the
line returns.

Timing approximation matches the data side: miss latency equals the level
that supplies the line; in-flight tracking is omitted (sequential-line
fetch runs well ahead through next-line prefetch, modelled as a one-line
lookahead fill).
"""

from __future__ import annotations

from typing import Optional

from ..config import GenerationConfig
from .cache import SetAssocCache
from .hierarchy import MemoryHierarchy
from .interconnect import MemoryPath
from .tlb import Tlb


class InstructionCache:
    """L1I + ITLB front-end supply, backed by the unified hierarchy."""

    def __init__(self, config: GenerationConfig,
                 memory: Optional[MemoryHierarchy] = None) -> None:
        self.config = config
        # Only the parts of the unified hierarchy a miss reads: the
        # hierarchy itself reaches the metric registry, whose gauges read
        # this cache, so holding it would close a reference cycle.
        self.l2: Optional[SetAssocCache] = None
        self.l3: Optional[SetAssocCache] = None
        self.path: Optional[MemoryPath] = None
        if memory is not None:
            self.l2 = memory.l2
            self.l3 = memory.l3
            self.path = memory.path
        self.l1i = SetAssocCache(config.l1i.size_bytes, config.l1i.ways,
                                 name="L1I")
        self.itlb = Tlb(config.l1i_tlb, "L1I-TLB")
        self.hits = 0
        self.misses = 0
        self.fill_stall_cycles = 0.0

    def _line(self, pc: int) -> int:
        return pc & ~63

    def fetch_line(self, pc: int, now: float = 0.0) -> float:
        """Fetch-stall cycles for the line containing ``pc`` (0 on hit).

        On a miss the line is supplied by the unified L2/L3/DRAM path and
        the sequential next line is prefetched alongside (next-line
        instruction prefetch, standard since well before M1).
        """
        line = self._line(pc)
        stall = 0.0
        if not self.itlb.probe(pc):
            self.itlb.fill(pc)
            stall += 2.0  # ITLB refill from the shared L2 TLB
        if self.l1i.probe(line) is not None:
            self.hits += 1
            return stall
        self.misses += 1
        stall += self._supply_latency(line, now)
        self.l1i.fill(line)
        # Next-line prefetch: hide the sequential successor.
        self.l1i.fill(line + 64, prefetched=True)
        self.fill_stall_cycles += stall
        return stall

    def _supply_latency(self, line: int, now: float) -> float:
        cfg = self.config
        l2 = self.l2
        if l2 is None:
            return cfg.l2_avg_latency
        if l2.probe(line, update_lru=False, count=False) is not None:
            return cfg.l2_avg_latency
        if (self.l3 is not None
                and self.l3.probe(line, update_lru=False,
                                  count=False) is not None):
            return cfg.l3_avg_latency or 30.0
        # Instruction miss to DRAM: latency-critical read (Section IX
        # lists "instruction cache miss" among the classified reads).
        trip = self.path.dram_round_trip(
            line, latency_critical=True,
            bypassed_lookup_latency=(cfg.l3_avg_latency or 0.0) * 0.5)
        l2.fill(line)
        return trip.latency

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------
    # ``l2``, ``l3`` and ``path`` belong to the unified hierarchy,
    # checkpointed by its owner (in place, so these stay live).

    def state_dict(self) -> dict[str, object]:
        return {
            "l1i": self.l1i.state_dict(),
            "itlb": self.itlb.state_dict(),
            "hits": self.hits,
            "misses": self.misses,
            "fill_stall_cycles": self.fill_stall_cycles,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.l1i.load_state_dict(state["l1i"])
        self.itlb.load_state_dict(state["itlb"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.fill_stall_cycles = float(state["fill_stall_cycles"])
