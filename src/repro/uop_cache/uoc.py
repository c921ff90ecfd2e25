"""Micro-operation cache storage (Section VI).

"The M5 implementation added a micro-operation cache as an alternative uop
supply path, primarily to save fetch and decode power on repeatable
kernels.  The UOC can hold up to 384 uops, and provides up to 6 uops per
cycle to subsequent stages."  Entries are basic blocks of decoded uops
keyed by their fetch address (Figure 12's uop-based view).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class UopCache:
    """Basic-block-granular uop storage with LRU replacement."""

    def __init__(self, capacity_uops: int = 384,
                 uops_per_cycle: int = 6) -> None:
        if capacity_uops < 1:
            raise ValueError("capacity must be positive")
        self.capacity_uops = capacity_uops
        self.uops_per_cycle = uops_per_cycle
        #: block start PC -> uop count.
        self._blocks: "OrderedDict[int, int]" = OrderedDict()
        self._resident_uops = 0
        self.hits = 0
        self.misses = 0
        self.squashed_builds = 0

    def probe(self, block_pc: int) -> bool:
        """Tag check for a basic block's fetch address."""
        if block_pc in self._blocks:
            self._blocks.move_to_end(block_pc)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, block_pc: int) -> bool:
        return block_pc in self._blocks

    def build(self, block_pc: int, n_uops: int) -> bool:
        """Allocate a decoded basic block; returns False when the block was
        already resident (the BuildMode back-propagation race: the extra
        build request "will be squashed by the UOC")."""
        if n_uops < 1:
            raise ValueError("a block has at least one uop")
        if block_pc in self._blocks:
            self.squashed_builds += 1
            self._blocks.move_to_end(block_pc)
            return False
        while (self._resident_uops + n_uops > self.capacity_uops
               and self._blocks):
            _, evicted = self._blocks.popitem(last=False)
            self._resident_uops -= evicted
        if n_uops > self.capacity_uops:
            return False
        self._blocks[block_pc] = n_uops
        self._resident_uops += n_uops
        return True

    @property
    def resident_uops(self) -> int:
        return self._resident_uops

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "blocks": to_pairs(self._blocks),
            "hits": self.hits,
            "misses": self.misses,
            "squashed_builds": self.squashed_builds,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._blocks = OrderedDict(
            (int(pc), int(n)) for pc, n in state["blocks"])
        self._resident_uops = sum(
            n for _, n in sorted(self._blocks.items()))
        if self._resident_uops > self.capacity_uops:
            raise ValueError(
                f"UOC checkpoint holds {self._resident_uops} uops, "
                f"capacity is {self.capacity_uops}")
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.squashed_builds = int(state["squashed_builds"])
