"""Translation hierarchy: L1 I/D TLBs, the M3+ "level 1.5" data TLB, and
the shared L2 TLB (Table I's Translation rows).

Table I gives each TLB as total pages (#entries / #ways / #sectors); a
sectored TLB entry covers ``sectors`` contiguous pages with one tag.  The
L1.5 data TLB (M3+) provides "additional capacity at much lower latency
than the much-larger L2 TLB" (Section III).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..config import GenerationConfig, TlbConfig

PAGE_BYTES = 4096

#: Cost of a full page table walk on a complete TLB miss, in cycles.
PAGE_WALK_LATENCY = 40.0


class Tlb:
    """One TLB level: set-associative over page (or page-sector) tags."""

    def __init__(self, cfg: TlbConfig, name: str = "tlb") -> None:
        self.cfg = cfg
        self.name = name
        self.sector_pages = cfg.sectors
        self.num_entries = cfg.entries
        self.ways = min(cfg.ways, cfg.entries)
        self.num_sets = max(1, cfg.entries // self.ways)
        #: Per-set LRU order, oldest first; a set's ``OrderedDict`` is
        #: made at its first fill, and ``None`` marks a set never filled.
        self._sets: List[Optional["OrderedDict[int, bool]"]] = (
            [None] * self.num_sets)
        self.hits = 0
        self.misses = 0

    def _key(self, addr: int) -> int:
        return (addr // PAGE_BYTES) // self.sector_pages

    def _set_index(self, key: int) -> int:
        return key % self.num_sets

    def probe(self, addr: int) -> bool:
        key = self._key(addr)
        s = self._sets[self._set_index(key)]
        if s is not None and key in s:
            s.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr: int) -> None:
        key = self._key(addr)
        set_idx = self._set_index(key)
        s = self._sets[set_idx]
        if s is None:
            s = self._sets[set_idx] = OrderedDict()
        s[key] = True
        s.move_to_end(key)
        while len(s) > self.ways:
            s.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "sets": [list(s or ()) for s in self._sets],
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: checkpoint has {len(sets)} sets, this "
                f"geometry {self.num_sets}")
        self._sets = [OrderedDict((int(key), True) for key in s) if s
                      else None for s in sets]
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])


@dataclass
class TranslationResult:
    latency: float
    level: str  # "l1", "l1.5", "l2", "walk"


class TranslationHierarchy:
    """The data-side TLB stack for one generation.

    The L1 prefetcher's virtual-address operation "inherently acts as a
    simple TLB prefetcher" (Section VII-A) — prefetches that cross into a
    new page call :meth:`prefetch_fill` to preload the translation.
    """

    def __init__(self, config: GenerationConfig) -> None:
        self.l1 = Tlb(config.l1d_tlb, "L1D-TLB")
        self.l15: Optional[Tlb] = (
            Tlb(config.l15d_tlb, "L1.5D-TLB") if config.l15d_tlb else None
        )
        self.l2 = Tlb(config.l2_tlb, "L2-TLB")
        self.walks = 0

    def translate(self, addr: int) -> TranslationResult:
        """Latency charged on top of the data access for translation."""
        if self.l1.probe(addr):
            return TranslationResult(0.0, "l1")
        if self.l15 is not None and self.l15.probe(addr):
            self.l1.fill(addr)
            return TranslationResult(self.l15.cfg.hit_latency, "l1.5")
        if self.l2.probe(addr):
            self.l1.fill(addr)
            if self.l15 is not None:
                self.l15.fill(addr)
            return TranslationResult(self.l2.cfg.hit_latency + 2.0, "l2")
        self.walks += 1
        self.l2.fill(addr)
        if self.l15 is not None:
            self.l15.fill(addr)
        self.l1.fill(addr)
        return TranslationResult(PAGE_WALK_LATENCY, "walk")

    def prefetch_fill(self, addr: int) -> None:
        """TLB-prefetch side effect of a virtual-address prefetcher."""
        if self.l15 is not None:
            self.l15.fill(addr)
        else:
            self.l1.fill(addr)

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "l1": self.l1.state_dict(),
            "l15": self.l15.state_dict() if self.l15 is not None else None,
            "l2": self.l2.state_dict(),
            "walks": self.walks,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        if (state["l15"] is None) != (self.l15 is None):
            raise ValueError("L1.5 TLB presence mismatch vs checkpoint")
        self.l1.load_state_dict(state["l1"])
        if self.l15 is not None:
            self.l15.load_state_dict(state["l15"])
        self.l2.load_state_dict(state["l2"])
        self.walks = int(state["walks"])
