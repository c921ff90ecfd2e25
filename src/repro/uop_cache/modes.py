"""UOC front-end mode state machine (Section VI, Figure 13).

The front end operates in one of three modes:

- **FilterMode**: the uBTB predictor checks that the current code segment
  is highly predictable and fits the uBTB and UOC before any building
  happens (avoids unprofitable BuildMode in power and performance).
- **BuildMode**: the UOC allocates basic blocks.  Each uBTB branch entry
  gains a "built" bit tracking whether its target's block is already in
  the UOC (back-propagated from UOC tag checks, avoiding a prediction-time
  tag check at the cost of a squashable extra build request).  A
  #BuildTimer increments per prediction lookup; #BuildEdge counts clear
  built bits, #FetchEdge counts set ones.  When #FetchEdge/#BuildEdge
  reaches a threshold before the timer expires, the front end shifts to
  FetchMode.
- **FetchMode**: the instruction cache and decoders are disabled; uops
  come solely from the UOC (and the mBTB is also gated while the uBTB
  stays accurate).  The built bits are still watched: too many clear bits
  flips the front end back to FilterMode.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..metrics import formulas
from ..metrics.registry import MetricRegistry, StatsView
from ..observe.events import UocModeEvent
from ..observe.sink import TraceSink
from ..power import EnergyLedger
from .uoc import UopCache


class UocMode(enum.Enum):
    FILTER = "filter"
    BUILD = "build"
    FETCH = "fetch"


class UocModeStats(StatsView):
    """Registry-backed view of the ``uoc.*`` stats hierarchy."""

    _FIELDS = {
        "filter_cycles": "uoc.filter_cycles",
        "build_cycles": "uoc.build_cycles",
        "fetch_cycles": "uoc.fetch_cycles",
        "to_build": "uoc.transitions.to_build",
        "to_fetch": "uoc.transitions.to_fetch",
        "back_to_filter": "uoc.transitions.back_to_filter",
    }
    _DERIVED = {"fetch_fraction": "uoc.fetch_fraction"}
    _FORMULAS = (
        ("uoc.fetch_fraction",
         ("uoc.fetch_cycles", "uoc.filter_cycles", "uoc.build_cycles"),
         formulas.fraction_of_total),
    )


class UocController:
    """The Figure 13 flowchart over block-granular fetch events."""

    #: FetchMode entry: #FetchEdge >= FETCH_RATIO x #BuildEdge.
    FETCH_RATIO = 4
    #: Fall back to FilterMode when builds overtake fetches by this ratio.
    FILTER_RATIO = 2
    #: BuildMode attempt budget before giving up (the #BuildTimer).
    BUILD_TIMER_LIMIT = 256
    #: Consecutive predictable blocks FilterMode requires (uBTB-confirmed
    #: predictability and size check).
    FILTER_STREAK = 16

    def __init__(self, uoc: UopCache,
                 ledger: Optional[EnergyLedger] = None,
                 registry: Optional[MetricRegistry] = None,
                 sink: Optional[TraceSink] = None) -> None:
        self.uoc = uoc
        self.stats = UocModeStats(registry)
        #: Optional event sink for mode-transition events.
        self.sink = sink
        self.ledger = (ledger if ledger is not None
                       else EnergyLedger(registry=self.stats.registry))
        reg = self.stats.registry
        reg.gauge("uoc.cache.hits", lambda: self.uoc.hits)
        reg.gauge("uoc.cache.misses", lambda: self.uoc.misses)
        self.mode = UocMode.FILTER
        #: uBTB-entry "built" bits, keyed by block start PC.
        self._built_bits: Dict[int, bool] = {}
        self._filter_streak = 0
        self._build_timer = 0
        self._build_edges = 0
        self._fetch_edges = 0

    # -- main per-block event -----------------------------------------------------

    def on_block(self, block_pc: int, n_uops: int,
                 ubtb_predictable: bool) -> UocMode:
        """Process one fetched basic block; returns the mode that supplied
        it (and records the matching fetch/decode/UOC energy)."""
        mode = self.mode
        if mode is UocMode.FILTER:
            self.stats.filter_cycles += 1
            self._charge_legacy()
            if ubtb_predictable and n_uops <= self.uoc.capacity_uops:
                self._filter_streak += 1
                if self._filter_streak >= self.FILTER_STREAK:
                    self._enter_build(block_pc)
            else:
                self._filter_streak = 0
            return mode
        if mode is UocMode.BUILD:
            self.stats.build_cycles += 1
            self._charge_legacy()
            self._step_edges(block_pc, n_uops, building=True)
            self._build_timer += 1
            ratio_met = (self._fetch_edges
                         >= self.FETCH_RATIO * max(1, self._build_edges))
            if ratio_met and self._fetch_edges >= 8:
                self._enter_fetch(block_pc)
            elif self._build_timer > self.BUILD_TIMER_LIMIT:
                self._enter_filter(block_pc)
            return mode
        # FetchMode.
        self.stats.fetch_cycles += 1
        if self.uoc.contains(block_pc):
            self.ledger.record("uoc_fetch")
        else:
            # Supply hole: this block still needs the legacy path.
            self._charge_legacy()
        # Window the edge counters so a long healthy FetchMode run cannot
        # mask a sudden phase change (fresh code must be able to flip the
        # ratio within a bounded number of blocks).
        if self._build_edges + self._fetch_edges > 128:
            self._build_edges //= 2
            self._fetch_edges //= 2
        self._step_edges(block_pc, n_uops, building=False)
        if (self._build_edges
                >= self.FILTER_RATIO * max(1, self._fetch_edges)
                and self._build_edges >= 8):
            self.stats.back_to_filter += 1
            self._enter_filter(block_pc)
        if not ubtb_predictable:
            # A mispredict ends the locked kernel; FetchMode cannot hold.
            self._enter_filter(block_pc)
        return mode

    # -- internals ---------------------------------------------------------------

    def _charge_legacy(self) -> None:
        self.ledger.record("icache_fetch")
        self.ledger.record("decode")

    def _step_edges(self, block_pc: int, n_uops: int,
                    building: bool) -> None:
        built = self._built_bits.get(block_pc, False)
        if built:
            self._fetch_edges += 1
        else:
            self._build_edges += 1
            if building:
                # Mark for allocation; the UOC tag check back-propagates
                # the built bit (or squashes a duplicate build).
                self.ledger.record("uoc_build")
                self.uoc.build(block_pc, n_uops)
                self._built_bits[block_pc] = True
            elif self.uoc.contains(block_pc):
                self._built_bits[block_pc] = True

    def _emit_transition(self, block_pc: int, from_mode: UocMode,
                         to_mode: UocMode) -> None:
        # The "cycle" of a mode transition is the block count so far —
        # the controller's own time base (one on_block call per block).
        stats = self.stats
        cycle = float(stats.filter_cycles + stats.build_cycles
                      + stats.fetch_cycles)
        self.sink.emit(UocModeEvent(seq=-1, cycle=cycle, block_pc=block_pc,
                                    from_mode=from_mode.value,
                                    to_mode=to_mode.value))

    def _enter_build(self, block_pc: int = 0) -> None:
        if self.sink is not None:
            self._emit_transition(block_pc, self.mode, UocMode.BUILD)
        self.mode = UocMode.BUILD
        self.stats.to_build += 1
        self._build_timer = 0
        self._build_edges = 0
        self._fetch_edges = 0

    def _enter_fetch(self, block_pc: int = 0) -> None:
        if self.sink is not None:
            self._emit_transition(block_pc, self.mode, UocMode.FETCH)
        self.mode = UocMode.FETCH
        self.stats.to_fetch += 1
        self._build_edges = 0
        self._fetch_edges = 0

    def _enter_filter(self, block_pc: int = 0) -> None:
        if self.sink is not None and self.mode is not UocMode.FILTER:
            self._emit_transition(block_pc, self.mode, UocMode.FILTER)
        self.mode = UocMode.FILTER
        self._filter_streak = 0
        self._build_timer = 0
        self._build_edges = 0
        self._fetch_edges = 0

    # -- checkpointing (state_dict protocol) --------------------------------
    # The ``uoc.*`` counters live in the registry; the ledger is owned by
    # the simulator.  Only the mode machine + the uop cache are ours.

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "uoc": self.uoc.state_dict(),
            "mode": self.mode.value,
            "built_bits": to_pairs(self._built_bits),
            "filter_streak": self._filter_streak,
            "build_timer": self._build_timer,
            "build_edges": self._build_edges,
            "fetch_edges": self._fetch_edges,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.uoc.load_state_dict(state["uoc"])
        self.mode = UocMode(state["mode"])
        self._built_bits = {int(pc): bool(bit)
                            for pc, bit in state["built_bits"]}
        self._filter_streak = int(state["filter_streak"])
        self._build_timer = int(state["build_timer"])
        self._build_edges = int(state["build_edges"])
        self._fetch_edges = int(state["fetch_edges"])
