"""Per-generation memory hierarchy composition.

Wires the caches (L1D, sectored L2, exclusive L3), translation stack, miss
buffers, DRAM path and every prefetch engine the generation has (multi-
stride + SMS at L1, Buddy at L2, standalone at the lower levels), and
answers the one question the core timing model asks: *how many cycles does
this access take?*

Timing approach: prefetches install lines immediately but carry a
``ready`` time in an in-flight table; a demand access that arrives before
``ready`` pays the residual latency (late prefetch), after it pays the hit
latency (timely prefetch).  This captures prefetch timeliness — the reason
degree scaling and two-pass exist — without a full event queue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import GenerationConfig
from ..metrics import formulas
from ..metrics.registry import MetricRegistry, StatsView
from ..observe.events import MemEvent, PrefetchEvent
from ..observe.sink import TraceSink
from ..power import EnergyLedger
from .cache import SetAssocCache
from .coordinated import CoordinatedPolicy
from .dram import DramModel
from .interconnect import MemoryPath
from .mab import MissBufferPool
from .tlb import TranslationHierarchy
from ..prefetch import (
    AddressReorderBuffer,
    BuddyPrefetcher,
    MultiStridePrefetcher,
    SmsPrefetcher,
    StandalonePrefetcher,
    TwoPassController,
)

PAGE_BYTES = 4096


class MemoryStats(StatsView):
    """Registry-backed view of the ``mem.*`` stats hierarchy."""

    _FIELDS = {
        "loads": "mem.loads",
        "stores": "mem.stores",
        "load_latency_sum": "mem.load_latency_sum",
        "l1_hits": "mem.l1.hits",
        "l1_late_prefetch_hits": "mem.l1.late_prefetch_hits",
        "l2_hits": "mem.l2.hits",
        "l3_hits": "mem.l3.hits",
        "dram_accesses": "mem.dram.accesses",
        "prefetches_issued": "mem.prefetch.issued",
        "prefetch_dram_traffic": "mem.prefetch.dram_traffic",
    }
    _DERIVED = {"average_load_latency": "mem.average_load_latency"}
    _FORMULAS = (
        ("mem.average_load_latency", ("mem.load_latency_sum", "mem.loads"),
         formulas.average_latency),
    )


class MemoryHierarchy:
    """The full data-side memory system for one generation.

    ``corunners`` models cluster-mates contending for a *shared* L2
    (Table I: M1/M2 share one L2 among 4 cores, M5/M6 among 2; M3/M4 are
    private).  Each active co-runner on a shared L2 claims a slice of its
    capacity and adds queueing to its access latency; private L2s are
    unaffected — the trade the paper's M3 transition made.
    """

    #: Extra L2 access latency per contending co-runner (bank conflicts +
    #: request queueing on the shared macro).
    L2_CONTENTION_LATENCY = 2.0

    def __init__(self, config: GenerationConfig,
                 ledger: Optional[EnergyLedger] = None,
                 corunners: int = 0,
                 registry: Optional[MetricRegistry] = None,
                 sink: Optional[TraceSink] = None) -> None:
        self.config = config
        self.stats = MemoryStats(registry)
        #: Optional event sink for demand/prefetch events.
        self.sink = sink
        #: Serving level of the last `_miss_path` call, read only by the
        #: guarded trace emission in `access()`.
        self._miss_level = "l2"
        self.ledger = (ledger if ledger is not None
                       else EnergyLedger(registry=self.stats.registry))
        self.corunners = corunners
        shared = config.l2_shared_by > 1
        active = min(corunners, config.l2_shared_by - 1) if shared else 0
        self._l2_latency_extra = self.L2_CONTENTION_LATENCY * active
        l2_bytes = config.l2.size_bytes
        if active:
            l2_bytes = l2_bytes // (1 + active)
        self.l1 = SetAssocCache(config.l1d.size_bytes, config.l1d.ways,
                                name="L1D")
        self.l2 = SetAssocCache(l2_bytes, config.l2.ways,
                                sector_bytes=config.l2.sector_bytes,
                                name="L2")
        self.l3: Optional[SetAssocCache] = None
        if config.l3 is not None:
            self.l3 = SetAssocCache(config.l3.size_bytes, config.l3.ways,
                                    name="L3")
        self.tlb = TranslationHierarchy(config)
        self.mab = MissBufferPool(config.l1d_outstanding_misses,
                                  data_less=config.uses_mab)
        self.dram = DramModel(
            base_latency=config.memlat.dram_base_latency,
            page_miss_penalty=config.memlat.dram_page_miss_penalty,
        )
        self.path = MemoryPath(config.memlat, self.dram)
        self.coordinated = CoordinatedPolicy()

        pf = config.prefetch
        self.stride = MultiStridePrefetcher(
            streams=pf.stride_streams,
            min_degree=pf.min_degree,
            max_degree=pf.max_degree,
            integrated_confirmation=pf.integrated_confirmation,
            confirmation_entries=pf.confirmation_entries,
        )
        self.reorder = AddressReorderBuffer(capacity=32)
        self.two_pass = TwoPassController(
            second_pass_delay=config.l2_avg_latency / 2.0
        )
        self.sms: Optional[SmsPrefetcher] = (
            SmsPrefetcher(regions=pf.sms_regions,
                          region_bytes=pf.sms_region_bytes)
            if pf.has_sms else None
        )
        self.buddy: Optional[BuddyPrefetcher] = (
            BuddyPrefetcher(sector_bytes=config.l2.sector_bytes)
            if pf.has_buddy else None
        )
        self.standalone: Optional[StandalonePrefetcher] = (
            StandalonePrefetcher(streams=pf.standalone_streams)
            if pf.has_standalone else None
        )

        # Hot-path cell aliases: `access()` runs once per load/store, so
        # the per-access stat bumps go straight to the registry cells.
        self._c_loads = self.stats.cell("loads")
        self._c_stores = self.stats.cell("stores")
        self._c_lat_sum = self.stats.cell("load_latency_sum")
        self._c_l1_hits = self.stats.cell("l1_hits")
        self._c_l1_late = self.stats.cell("l1_late_prefetch_hits")
        self._bind_structure_gauges()
        #: In-flight fills: line address -> (L1 ready cycle, L2-staged
        #: cycle).  The two-pass scheme stages data in the L2 before the
        #: second pass fills the L1, so a demand access racing the fill
        #: pays at most the residual-to-L2 plus an L2 access.
        self._inflight: Dict[int, Tuple[float, float]] = {}

    def _bind_structure_gauges(self) -> None:
        """Expose cache/TLB/DRAM structure counters as pull metrics.

        Each gauge reads the structure it reports, never ``self``: the
        hierarchy reaches the registry, so a reader holding it would
        close a reference cycle."""
        reg = self.stats.registry
        for level, cache in (("l1", self.l1), ("l2", self.l2),
                             ("l3", self.l3)):
            if cache is None:
                continue
            reg.gauge(f"mem.{level}.cache.hits",
                      lambda c=cache: c.hits)
            reg.gauge(f"mem.{level}.cache.misses",
                      lambda c=cache: c.misses)
            reg.gauge(f"mem.{level}.cache.evictions",
                      lambda c=cache: c.evictions)
            reg.gauge(f"mem.{level}.cache.prefetch_fills",
                      lambda c=cache: c.prefetch_fills)
        for level, tlb in (("l1", self.tlb.l1), ("l15", self.tlb.l15),
                           ("l2", self.tlb.l2)):
            if tlb is None:
                continue
            reg.gauge(f"mem.tlb.{level}.hits", lambda t=tlb: t.hits)
            reg.gauge(f"mem.tlb.{level}.misses", lambda t=tlb: t.misses)
        reg.gauge("mem.tlb.walks", lambda t=self.tlb: t.walks)
        reg.gauge("mem.dram.page_hits", lambda d=self.dram: d.page_hits)
        reg.gauge("mem.dram.page_misses", lambda d=self.dram: d.page_misses)

    # -- helpers ------------------------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr & ~63

    def _reap_inflight(self, now: float) -> None:
        if len(self._inflight) > 4096:
            self._inflight = {a: t for a, t in self._inflight.items()
                              if t[0] > now}

    # -- the demand path ---------------------------------------------------------------

    def access(self, pc: int, addr: int, now: float,
               is_store: bool = False) -> float:
        """One demand access; returns its latency in cycles."""
        cfg = self.config
        line = self._line(addr)
        if is_store:
            self._c_stores.value += 1
        else:
            self._c_loads.value += 1

        translation = self.tlb.translate(addr)
        latency = translation.latency

        l1_line = self.l1.probe(addr)
        if l1_line is not None:
            flight = self._inflight.get(line)
            if flight is not None and flight[0] > now:
                # Late prefetch: data is somewhere between DRAM and the
                # L1; pay the residual to the L2 stage plus an L2 access.
                l1_ready, l2_staged = flight
                residual = max(0.0, l2_staged - now) + cfg.l2_avg_latency
                cost = max(cfg.l1_hit_latency, min(residual,
                                                   l1_ready - now))
                latency += cost
                self._c_l1_late.value += 1
                # The line lands in the L1 when this access completes.
                self._inflight[line] = (now + cost, l2_staged)
                level = "l1_late"
            else:
                self._inflight.pop(line, None)
                latency += cfg.l1_hit_latency
                self._c_l1_hits.value += 1
                level = "l1"
            first_prefetch_touch = l1_line.prefetched and not l1_line.accessed
            l1_line.accessed = True
            l1_line.dirty = l1_line.dirty or is_store
            if not is_store:
                self._c_lat_sum.value += latency
            if self.sink is not None:
                self.sink.emit(MemEvent(
                    seq=-1, cycle=now, pc=pc, addr=addr, level=level,
                    latency=latency, store=is_store,
                    tlb_level=translation.level,
                    prefetch_touch=first_prefetch_touch))
            if first_prefetch_touch:
                # A demand touch of a prefetched line is a confirmation:
                # it must keep training the engines so the stream frontier
                # stays ahead instead of stalling until the next raw miss.
                self._train_l1_engines(pc, addr, now)
            return latency

        # ---- L1 miss ------------------------------------------------------
        miss_latency = self._miss_path(pc, addr, line, now, is_store)
        latency += miss_latency
        if not is_store:
            self._c_lat_sum.value += latency
        if self.sink is not None:
            self.sink.emit(MemEvent(
                seq=-1, cycle=now, pc=pc, addr=addr,
                level=self._miss_level, latency=latency, store=is_store,
                tlb_level=translation.level, prefetch_touch=False))

        # Train the L1 engines on this miss (re-order + dedup first).
        self._train_l1_engines(pc, addr, now)
        return latency

    def _miss_path(self, pc: int, addr: int, line: int, now: float,
                   is_store: bool) -> float:
        cfg = self.config
        # In-flight fill (prefetch or previous miss to the same line)?
        flight = self._inflight.get(line)
        if flight is not None:
            l1_ready, l2_staged = flight
            residual = max(0.0, l2_staged - now) + cfg.l2_avg_latency
            delta = max(cfg.l1_hit_latency, min(residual, l1_ready - now))
            self._c_l1_late.value += 1
            self.l1.fill(addr, dirty=is_store)
            self._inflight[line] = (now + delta, l2_staged)
            self._miss_level = "inflight"
            return delta

        if self.buddy is not None:
            self.buddy.on_demand_access(line)
        if self.standalone is not None:
            for paddr in self.standalone.observe(addr):
                self._issue_lower_prefetch(paddr, now)

        l2_line = self.l2.probe(addr)
        if l2_line is not None:
            l2_line.accessed = True
            self.stats.l2_hits += 1
            self._fill_l1(addr, now, is_store)
            self._miss_level = "l2"
            return self._with_mab(
                now, cfg.l2_avg_latency + self._l2_latency_extra, addr)

        # L2 demand miss: the Buddy engine may fetch the neighbour sector.
        if self.buddy is not None:
            buddy_line = self.buddy.on_l2_demand_miss(line)
            if buddy_line is not None:
                self._issue_buddy(buddy_line, now)

        if self.l3 is not None:
            l3_line = self.l3.probe(addr)
            if l3_line is not None:
                self.stats.l3_hits += 1
                # Exclusive hierarchy: the line swaps back inward.
                self.l3.invalidate(addr)
                self._fill_l1(addr, now, is_store)
                l2_victim = self.l2.fill(addr)
                new_l2 = self.l2.probe(addr, update_lru=False, count=False)
                if new_l2 is not None:
                    CoordinatedPolicy.mark_reallocated(new_l2)
                if l2_victim is not None:
                    self._handle_l2_castout(l2_victim)
                self._miss_level = "l3"
                return self._with_mab(
                    now, self.config.l3_avg_latency or 30.0, addr)

        # ---- DRAM ------------------------------------------------------------
        lookup_bypass = (self.config.l3_avg_latency or 0.0) * 0.5
        trip = self.path.dram_round_trip(
            addr,
            latency_critical=not is_store,
            bypassed_lookup_latency=lookup_bypass,
        )
        self.stats.dram_accesses += 1
        self.ledger.record("dram_access")
        self._fill_l1(addr, now, is_store)
        l2_victim = self.l2.fill(addr)
        if l2_victim is not None:
            self._handle_l2_castout(l2_victim)
        self._miss_level = "dram"
        return self._with_mab(now, trip.latency, addr)

    def _with_mab(self, now: float, service: float, addr: int) -> float:
        """Charge the miss through an L1 miss buffer.

        The extra wait when every buffer is busy models the MLP bound the
        paper discusses growing from 8 (M1) to 40 (M6) entries.  The wait
        is capped at one service interval: the core's own dispatch stall
        throttles arrivals beyond that in the integrated model.
        """
        delay = self.mab.allocate(now, now + service, addr)
        return min(delay, service) + service

    def _fill_l1(self, addr: int, now: float, is_store: bool) -> None:
        victim = self.l1.fill(addr, dirty=is_store)
        if victim is not None and victim.dirty:
            # Writeback into the L2 (timing-neutral at this granularity).
            self.l2.fill(victim.address, dirty=True)

    def _handle_l2_castout(self, victim) -> None:
        """Coordinated exclusive-L3 castout handling (Section VIII-A)."""
        if self.l3 is None:
            return
        decision = self.coordinated.classify_castout(victim)
        if not decision.allocate:
            return
        for off in range(0, self.l2.sector_bytes, 64):
            if victim.valid_mask & (1 << (off // 64)):
                self.l3.fill(victim.address + off, dirty=victim.dirty,
                             insert_lru=not decision.elevated)

    # -- prefetch issue ------------------------------------------------------------------

    def _train_l1_engines(self, pc: int, addr: int, now: float) -> None:
        released = self.reorder.insert(addr)
        stride_prefetches: List[int] = []
        for rline in released:
            stride_prefetches.extend(self.stride.train(rline))
        stride_covered = bool(stride_prefetches)
        for paddr in stride_prefetches:
            self._issue_l1_prefetch(paddr, now, to_l1=True)
        if self.sms is not None:
            for req in self.sms.train_miss(pc, addr,
                                           stride_covered=stride_covered):
                self._issue_l1_prefetch(req.address, now, to_l1=req.to_l1)

    def _issue_l1_prefetch(self, paddr: int, now: float,
                           to_l1: bool = True) -> None:
        """Issue one L1 prefetch through the one-/two-pass machinery."""
        cfg = self.config
        line = self._line(paddr)
        if self.l1.contains(paddr):
            return
        self.stats.prefetches_issued += 1
        self.ledger.record("prefetch_issue")
        self._reap_inflight(now)

        l2_hit = self.l2.probe(paddr, update_lru=False, count=False) is not None
        from_dram = False
        if l2_hit:
            source_latency = cfg.l2_avg_latency
        elif (self.l3 is not None
              and self.l3.probe(paddr, update_lru=False,
                                count=False) is not None):
            source_latency = cfg.l3_avg_latency or 30.0
        else:
            from_dram = True
            source_latency = (cfg.memlat.dram_base_latency
                              + 3 * cfg.memlat.async_crossing_latency
                              + cfg.memlat.interconnect_queue_latency)
        plan = self.two_pass.plan()
        if plan.fill_l2_first:
            self.two_pass.observe_first_pass(l2_hit)
            staged = now + source_latency
            ready = staged + plan.second_pass_delay
        else:
            # One-pass: needs an L1 miss buffer; model the queueing wait
            # as a small delay when the pool is saturated.
            free = self.mab.available(now)
            wait = 0.0 if free > 0 else cfg.l2_avg_latency
            staged = now + source_latency + wait
            ready = staged
        if from_dram:
            self.stats.prefetch_dram_traffic += 1
            self.dram.access(paddr)
        if self.sink is not None:
            self.sink.emit(PrefetchEvent(
                seq=-1, cycle=now, addr=paddr, engine="l1",
                target_level="l1" if to_l1 else "l2",
                from_dram=from_dram))
        # Install: L2 always learns the line; L1 only for full prefetches.
        if not l2_hit:
            l2_victim = self.l2.fill(paddr, prefetched=True)
            if l2_victim is not None:
                self._handle_l2_castout(l2_victim)
            if self.l3 is not None:
                self.l3.invalidate(paddr)  # exclusivity
        if to_l1:
            self.l1.fill(paddr, prefetched=True)
            self._inflight[line] = (ready, staged)
        # Virtual-address engine doubles as a TLB prefetcher.
        if (paddr // PAGE_BYTES) != ((paddr - 64) // PAGE_BYTES):
            self.tlb.prefetch_fill(paddr)

    def _issue_buddy(self, buddy_line: int, now: float) -> None:
        """Buddy fills the invalid neighbour subline of an L2 sector."""
        if self.l2.probe(buddy_line, update_lru=False, count=False) is None:
            from_dram = (self.l3 is None
                         or self.l3.probe(buddy_line, update_lru=False,
                                          count=False) is None)
            if from_dram:
                self.stats.prefetch_dram_traffic += 1
                self.dram.access(buddy_line)
            self.l2.fill(buddy_line, prefetched=True)
            if self.sink is not None:
                self.sink.emit(PrefetchEvent(
                    seq=-1, cycle=now, addr=buddy_line, engine="buddy",
                    target_level="l2", from_dram=from_dram))

    # -- checkpointing (state_dict protocol) --------------------------------
    # The registry (``mem.*`` counters) and the energy ledger are owned and
    # checkpointed by the simulator; every structure here is restored IN
    # PLACE so the gauges bound in `_bind_structure_gauges` keep reading
    # the same objects.

    def state_dict(self) -> dict[str, object]:
        return {
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "l3": self.l3.state_dict() if self.l3 is not None else None,
            "tlb": self.tlb.state_dict(),
            "mab": self.mab.state_dict(),
            "dram": self.dram.state_dict(),
            "path": self.path.state_dict(),
            "coordinated": self.coordinated.state_dict(),
            "stride": self.stride.state_dict(),
            "reorder": self.reorder.state_dict(),
            "two_pass": self.two_pass.state_dict(),
            "sms": self.sms.state_dict() if self.sms is not None else None,
            "buddy": (self.buddy.state_dict()
                      if self.buddy is not None else None),
            "standalone": (self.standalone.state_dict()
                           if self.standalone is not None else None),
            "inflight": [[addr, ready, staged]
                         for addr, (ready, staged)
                         in self._inflight.items()],
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        for attr, key in (("l3", "l3"), ("sms", "sms"), ("buddy", "buddy"),
                          ("standalone", "standalone")):
            if (state[key] is None) != (getattr(self, attr) is None):
                raise ValueError(
                    f"memory hierarchy: {attr} presence mismatch vs "
                    f"checkpoint")
        self.l1.load_state_dict(state["l1"])
        self.l2.load_state_dict(state["l2"])
        if self.l3 is not None:
            self.l3.load_state_dict(state["l3"])
        self.tlb.load_state_dict(state["tlb"])
        self.mab.load_state_dict(state["mab"])
        self.dram.load_state_dict(state["dram"])
        self.path.load_state_dict(state["path"])
        self.coordinated.load_state_dict(state["coordinated"])
        self.stride.load_state_dict(state["stride"])
        self.reorder.load_state_dict(state["reorder"])
        self.two_pass.load_state_dict(state["two_pass"])
        if self.sms is not None:
            self.sms.load_state_dict(state["sms"])
        if self.buddy is not None:
            self.buddy.load_state_dict(state["buddy"])
        if self.standalone is not None:
            self.standalone.load_state_dict(state["standalone"])
        self._inflight = {int(addr): (float(ready), float(staged))
                          for addr, ready, staged in state["inflight"]}

    def _issue_lower_prefetch(self, paddr: int, now: float) -> None:
        """Standalone-prefetcher fill into the lower-level caches."""
        self.stats.prefetches_issued += 1
        self.ledger.record("prefetch_issue")
        target = self.l3 if self.l3 is not None else self.l2
        if target.probe(paddr, update_lru=False, count=False) is None:
            if (self.l2.probe(paddr, update_lru=False, count=False) is None
                    and not self.l1.contains(paddr)):
                self.stats.prefetch_dram_traffic += 1
                self.dram.access(paddr)
                target.fill(paddr, prefetched=True)
                if self.sink is not None:
                    self.sink.emit(PrefetchEvent(
                        seq=-1, cycle=now, addr=paddr, engine="standalone",
                        target_level="l3" if target is self.l3 else "l2",
                        from_dram=True))
