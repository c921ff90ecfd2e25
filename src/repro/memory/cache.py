"""Set-associative cache with optional sectored tags and rich metadata.

The building block for L1D/L1I/L2/L3.  The L2's tags are "sectored at a
128B granule for a default data line size of 64B", which "reduces the tag
area and allows a lower latency for tag lookups" (Section VIII-B) — here a
sector entry carries a per-64B-line valid mask, so the Buddy prefetcher can
fill the neighbour line with zero pollution (the buddy slot would stay
invalid otherwise).

Lines carry the coordinated-management metadata of Section VIII-A:
prefetched/accessed bits (adaptive prefetcher accuracy tracking) and reuse
hints passed between cache levels on castout.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class CacheLine:
    """One resident line (or sector, for sectored caches)."""

    address: int  # line/sector base address
    #: Per-64B-subline valid bits (bit 0 = low line); plain caches use 0b1.
    valid_mask: int = 0b1
    dirty: bool = False
    #: Filled by a prefetch and not yet touched by demand.
    prefetched: bool = False
    #: Touched by a demand access since fill.
    accessed: bool = False
    #: Hits observed while resident at this level (reuse tracking).
    hit_count: int = 0
    #: Came back from the L3 after a previous castout (re-allocation).
    reallocated: bool = False


class SetAssocCache:
    """LRU set-associative cache over line (or sector) granules."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64,
                 sector_bytes: Optional[int] = None,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or ways <= 0:
            raise ValueError("size and ways must be positive")
        self.name = name
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes or line_bytes
        if self.sector_bytes % line_bytes:
            raise ValueError("sector must be a multiple of the line size")
        self.lines_per_sector = self.sector_bytes // line_bytes
        #: Number of tag entries (sectors), preserving total data capacity.
        self.num_entries = size_bytes // self.sector_bytes
        self.ways = min(ways, self.num_entries)
        self.num_sets = max(1, self.num_entries // self.ways)
        #: Per-set LRU order, oldest first; a set's ``OrderedDict`` is
        #: made at its first fill, and ``None`` marks a set never filled.
        self._sets: List[Optional["OrderedDict[int, CacheLine]"]] = (
            [None] * self.num_sets)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_fills = 0

    # -- address helpers ------------------------------------------------------

    def sector_base(self, addr: int) -> int:
        return addr - (addr % self.sector_bytes)

    def line_base(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _set_index(self, sector: int) -> int:
        return (sector // self.sector_bytes) % self.num_sets

    def _subline_bit(self, addr: int) -> int:
        if self.lines_per_sector == 1:
            return 0b1
        off = (addr % self.sector_bytes) // self.line_bytes
        return 1 << off

    # -- operations ---------------------------------------------------------------

    def probe(self, addr: int, update_lru: bool = True,
              count: bool = True) -> Optional[CacheLine]:
        """Return the resident line covering ``addr`` or None.

        A sector tag hit with the subline invalid is a miss (the Buddy
        case: the neighbour slot exists but holds no data).
        """
        sector = self.sector_base(addr)
        s = self._sets[self._set_index(sector)]
        entry = s.get(sector) if s is not None else None
        if entry is not None and entry.valid_mask & self._subline_bit(addr):
            if update_lru:
                s.move_to_end(sector)
            if count:
                self.hits += 1
                entry.hit_count += 1
            return entry
        if count:
            self.misses += 1
        return None

    def contains(self, addr: int) -> bool:
        return self.probe(addr, update_lru=False, count=False) is not None

    def fill(self, addr: int, dirty: bool = False, prefetched: bool = False,
             reallocated: bool = False,
             insert_lru: bool = False) -> Optional[CacheLine]:
        """Install the 64B line covering ``addr``; returns the evicted
        victim (a whole sector) or None.

        ``insert_lru`` inserts at LRU position (the "ordinary" replacement
        state of the coordinated policy); default insertion is MRU
        ("elevated").
        """
        sector = self.sector_base(addr)
        set_idx = self._set_index(sector)
        s = self._sets[set_idx]
        if s is None:
            s = self._sets[set_idx] = OrderedDict()
        bit = self._subline_bit(addr)
        entry = s.get(sector)
        if entry is not None:
            entry.valid_mask |= bit
            entry.dirty = entry.dirty or dirty
            if prefetched and not entry.accessed:
                entry.prefetched = True
            s.move_to_end(sector)
            if prefetched:
                self.prefetch_fills += 1
            return None
        victim: Optional[CacheLine] = None
        if len(s) >= self.ways:
            _, victim = s.popitem(last=False)
            self.evictions += 1
        entry = CacheLine(address=sector, valid_mask=bit, dirty=dirty,
                          prefetched=prefetched, reallocated=reallocated)
        s[sector] = entry
        if insert_lru:
            s.move_to_end(sector, last=False)
        if prefetched:
            self.prefetch_fills += 1
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove (and return) the sector covering ``addr``, if resident."""
        sector = self.sector_base(addr)
        s = self._sets[self._set_index(sector)]
        return s.pop(sector, None) if s is not None else None

    def iter_lines(self) -> Iterator[CacheLine]:
        for s in self._sets:
            if s is not None:
                yield from s.values()

    @property
    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "sets": [
                [[sector, {
                    "address": line.address,
                    "valid_mask": line.valid_mask,
                    "dirty": line.dirty,
                    "prefetched": line.prefetched,
                    "accessed": line.accessed,
                    "hit_count": line.hit_count,
                    "reallocated": line.reallocated,
                }] for sector, line in (s or {}).items()]
                for s in self._sets
            ],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "prefetch_fills": self.prefetch_fills,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: checkpoint has {len(sets)} sets, this "
                f"geometry {self.num_sets}")
        rebuilt: List[Optional["OrderedDict[int, CacheLine]"]] = []
        for s in sets:
            out: "OrderedDict[int, CacheLine]" = OrderedDict()
            for sector, d in s:
                out[int(sector)] = CacheLine(
                    address=int(d["address"]),
                    valid_mask=int(d["valid_mask"]),
                    dirty=bool(d["dirty"]),
                    prefetched=bool(d["prefetched"]),
                    accessed=bool(d["accessed"]),
                    hit_count=int(d["hit_count"]),
                    reallocated=bool(d["reallocated"]),
                )
            rebuilt.append(out or None)
        self._sets = rebuilt
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])
        self.prefetch_fills = int(state["prefetch_fills"])
