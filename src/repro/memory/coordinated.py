"""Coordinated exclusive L2/L3 cache management (Section VIII-A).

The L3 is exclusive to the inner caches, so conventional L3 replacement
never sees reuse (lines swap back inward on hit).  The Exynos scheme has
the L2 track both the frequency of hits within the L2 and subsequent
re-allocation from the L3; on L2 castout those observations choose one of
three L3 insertion treatments:

- **elevated** replacement state (insert MRU) for lines with proven reuse,
- **ordinary** state (insert LRU-ish) for lines with weak evidence,
- **bypass** (no allocation) for dead or transient-stream lines.

Some fills must not be recorded as reuse — e.g. the second pass of
two-pass prefetching re-reads a line the first pass already staged, which
is mechanism traffic, not program reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheLine


@dataclass
class CastoutDecision:
    allocate: bool
    elevated: bool

    @property
    def label(self) -> str:
        if not self.allocate:
            return "bypass"
        return "elevated" if self.elevated else "ordinary"


class CoordinatedPolicy:
    """Castout classifier + reuse bookkeeping."""

    #: L2 hit count at/above which a castout earns elevated insertion.
    ELEVATED_HIT_THRESHOLD = 2

    def __init__(self) -> None:
        self.elevated = 0
        self.ordinary = 0
        self.bypassed = 0

    def classify_castout(self, line: CacheLine) -> CastoutDecision:
        """Choose the L3 treatment for an L2 victim line."""
        reused = (line.hit_count >= self.ELEVATED_HIT_THRESHOLD
                  or line.reallocated)
        touched = line.accessed or line.hit_count > 0 or line.dirty
        if reused:
            self.elevated += 1
            return CastoutDecision(allocate=True, elevated=True)
        if touched:
            self.ordinary += 1
            return CastoutDecision(allocate=True, elevated=False)
        # Never touched after fill: prefetched-dead or pure streaming —
        # do not pollute the L3.
        self.bypassed += 1
        return CastoutDecision(allocate=False, elevated=False)

    def state_dict(self) -> dict[str, object]:
        return {
            "elevated": self.elevated,
            "ordinary": self.ordinary,
            "bypassed": self.bypassed,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.elevated = int(state["elevated"])
        self.ordinary = int(state["ordinary"])
        self.bypassed = int(state["bypassed"])

    @staticmethod
    def mark_reallocated(line: CacheLine) -> None:
        """Tag a line swapping back inward from the L3: its next castout
        will be treated as reused (it earned a second residency)."""
        line.reallocated = True
        line.hit_count = 0

