"""Branch confidence estimation (Jacobson/Rotenberg/Smith style).

M5's Mispredict Recovery Buffer records refill sequences only for
*identified low-confidence branches* (Section IV-E, citing [19]).  The
classic JRS estimator keeps a table of resetting counters: correct
predictions increment, mispredicts reset; a branch is "low confidence"
while its counter sits below a threshold.
"""

from __future__ import annotations

from typing import Dict

from .history import pc_hash


class ConfidenceEstimator:
    """Resetting-counter confidence table indexed by PC hash."""

    def __init__(self, entries: int = 1024, threshold: int = 8,
                 ceiling: int = 15) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.threshold = threshold
        self.ceiling = ceiling
        self.counters = [0] * entries
        #: ``pc -> counter index``: a pure function's memo, never
        #: checkpointed, bounded by the program's static branches.
        self._pc_memo: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        i = self._pc_memo.get(pc)
        if i is None:
            i = self._pc_memo[pc] = pc_hash(pc, self.index_bits, salt=0x3C)
        return i

    def is_low_confidence(self, pc: int) -> bool:
        return self.counters[self._index(pc)] < self.threshold

    def record(self, pc: int, correct: bool) -> None:
        i = self._index(pc)
        if not correct:
            self.counters[i] = 0
        elif self.counters[i] < self.ceiling:
            self.counters[i] += 1

    def state_dict(self) -> dict[str, object]:
        return {"counters": list(self.counters)}

    def load_state_dict(self, state: dict[str, object]) -> None:
        counters = list(state["counters"])
        if len(counters) != self.entries:
            raise ValueError(
                f"confidence table size mismatch: checkpoint has "
                f"{len(counters)} counters, this config {self.entries}")
        self.counters = counters
