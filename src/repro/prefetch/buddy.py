"""Buddy sector prefetcher at the L2 (Section VIII-B, M4+).

The L2 tags are sectored at 128B for 64B data lines.  "Starting in M4, a
simple 'Buddy' prefetcher is added that, for every demand miss, generates
a prefetch for its 64B neighbor (buddy) sector.  Due to the tag sectoring,
this prefetching does not cause any cache pollution, since the buddy
sector will stay invalid in absence of buddy prefetching."  A filter
tracks demand patterns and disables buddy prefetching when accesses almost
always skip the neighbour, protecting DRAM bandwidth.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class BuddyPrefetcher:
    """Neighbour-line prefetch with a usefulness filter."""

    #: Evaluation window (issued buddies) and minimum useful fraction.
    WINDOW = 64
    MIN_USEFUL_FRACTION = 0.125
    #: While disabled, probe one of every PROBE_INTERVAL opportunities so
    #: the filter can re-enable when the pattern changes.
    PROBE_INTERVAL = 32

    def __init__(self, line_bytes: int = 64, sector_bytes: int = 128,
                 tracked: int = 256) -> None:
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.enabled = True
        self._issued_window = 0
        self._useful_window = 0
        self._probe_countdown = 0
        #: Outstanding buddy-prefetched lines awaiting a demand touch.
        self._outstanding: "OrderedDict[int, bool]" = OrderedDict()
        self._outstanding_cap = tracked
        self.issued = 0
        self.useful = 0
        self.disables = 0

    def buddy_of(self, line_addr: int) -> int:
        """The other 64B line in the same 128B sector."""
        return line_addr ^ self.line_bytes

    def on_l2_demand_miss(self, line_addr: int) -> Optional[int]:
        """Returns the buddy line to prefetch, or None when filtered."""
        if not self.enabled:
            self._probe_countdown -= 1
            if self._probe_countdown > 0:
                return None
            self._probe_countdown = self.PROBE_INTERVAL
        buddy = self.buddy_of(line_addr)
        self.issued += 1
        self._issued_window += 1
        self._outstanding[buddy] = True
        while len(self._outstanding) > self._outstanding_cap:
            self._outstanding.popitem(last=False)
        self._evaluate()
        return buddy

    def on_demand_access(self, line_addr: int) -> None:
        """Demand touch: credits a previously issued buddy prefetch."""
        if self._outstanding.pop(line_addr, None):
            self.useful += 1
            self._useful_window += 1

    def _evaluate(self) -> None:
        if self._issued_window < self.WINDOW:
            return
        frac = self._useful_window / self._issued_window
        if self.enabled and frac < self.MIN_USEFUL_FRACTION:
            self.enabled = False
            self.disables += 1
            self._probe_countdown = self.PROBE_INTERVAL
        elif not self.enabled and frac >= self.MIN_USEFUL_FRACTION:
            self.enabled = True
        self._issued_window = 0
        self._useful_window = 0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "enabled": self.enabled,
            "issued_window": self._issued_window,
            "useful_window": self._useful_window,
            "probe_countdown": self._probe_countdown,
            "outstanding": list(self._outstanding),
            "issued": self.issued,
            "useful": self.useful,
            "disables": self.disables,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.enabled = bool(state["enabled"])
        self._issued_window = int(state["issued_window"])
        self._useful_window = int(state["useful_window"])
        self._probe_countdown = int(state["probe_countdown"])
        self._outstanding = OrderedDict(
            (int(a), True) for a in state["outstanding"])
        self.issued = int(state["issued"])
        self.useful = int(state["useful"])
        self.disables = int(state["disables"])
