"""Interconnect and DRAM-path latency features (Section IX).

The path from core to main memory crosses three voltage/frequency domains
(core, interconnect, memory controller), requiring four on-die
asynchronous crossings (two outbound, two inbound) plus several blocks of
buffering.  Three generational features shorten it:

- **Data fast path** (M4): a dedicated DRAM-to-cluster return path that
  bypasses the cache-return/interconnect queuing stages and replaces the
  two inbound crossings with one direct crossing.
- **Speculative read** (M5): latency-critical reads issue to the coherent
  interconnect in parallel with the L2/L3 tag checks.  In silicon the
  interconnect's snoop-filter directory cancels the DRAM read of a line
  that is on-cluster; the model launches a DRAM read only after every
  cache level missed, so it has no such read to cancel.
- **Early page activate** (M5): a sideband hint that opens the DRAM page
  ahead of the read (see :mod:`repro.memory.dram`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryLatencyConfig
from .dram import DramModel


@dataclass
class DramPathResult:
    """Latency of a full DRAM round trip, with feature attribution."""

    latency: float
    fast_path_used: bool = False
    speculative: bool = False
    early_activated: bool = False


class MemoryPath:
    """Composes crossing/queue/device latencies per generation features."""

    def __init__(self, cfg: MemoryLatencyConfig, dram: DramModel) -> None:
        self.cfg = cfg
        self.dram = dram
        self.speculative_reads = 0

    def dram_round_trip(self, addr: int, latency_critical: bool = False,
                        bypassed_lookup_latency: float = 0.0
                        ) -> DramPathResult:
        """Full core-to-DRAM-to-core latency for one demand read.

        ``bypassed_lookup_latency`` is the tag-check time (e.g. the L3
        lookup) the speculative read would overlap; without the feature it
        is paid serially before the DRAM request launches.
        """
        cfg = self.cfg
        # Outbound: two crossings through the interconnect domain.
        outbound = 2 * cfg.async_crossing_latency + cfg.interconnect_queue_latency
        # Early page activate races ahead of the read.
        early = False
        if cfg.has_early_page_activate and latency_critical:
            early = self.dram.early_activate(addr)
        device = self.dram.access(addr).latency
        if early:
            device = max(self.dram.base_latency,
                         device - self.dram.page_miss_penalty)
        # Inbound: fast path replaces two crossings + queuing with one.
        fast = cfg.has_data_fast_path
        if fast:
            inbound = cfg.async_crossing_latency
        else:
            inbound = (2 * cfg.async_crossing_latency
                       + cfg.interconnect_queue_latency)
        serial_lookup = bypassed_lookup_latency
        speculative = False
        if cfg.has_speculative_read and latency_critical:
            # The request launched in parallel with the cache tag checks.
            self.speculative_reads += 1
            speculative = True
            serial_lookup = 0.0
        total = serial_lookup + outbound + device + inbound
        return DramPathResult(
            latency=total,
            fast_path_used=fast,
            speculative=speculative,
            early_activated=early,
        )

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {"speculative_reads": self.speculative_reads}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.speculative_reads = int(state["speculative_reads"])
