"""Address re-order buffer and duplicate filter (Section VII-A).

"To avoid noisy behavior and improve pattern detection, out-of-order
addresses generated from multiple load pipes are reordered back into
program order using a ROB-like structure.  To reduce the size of this
re-order buffer, an address filter is used to deallocate duplicate entries
to the same cache line."

Addresses are inserted tagged with their program-order sequence number and
released in order once contiguous; duplicates to the same line inside the
buffer are dropped so the training unit sees unique addresses.
"""

from __future__ import annotations

from typing import Dict, List


class AddressReorderBuffer:
    """Sequence-numbered reorder window with per-line dedup."""

    def __init__(self, capacity: int = 32, line_bytes: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.line_bytes = line_bytes
        self._pending: Dict[int, int] = {}  # seq -> line addr
        self._pending_lines: Dict[int, int] = {}  # line addr -> refcount
        #: Recently released lines; duplicates to these are also filtered
        #: (back-to-back touches of one line carry no training signal).
        self._recent: List[int] = []
        self._recent_cap = 8
        self._next_release = 0
        self._next_seq = 0
        self.deduped = 0
        self.overflow_releases = 0

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def insert(self, addr: int, seq: int = -1) -> List[int]:
        """Insert one address (auto-sequenced when ``seq`` is -1); returns
        line addresses released to the training unit, in program order."""
        if seq < 0:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq + 1)
        line = self._line(addr)
        if line in self._pending_lines or line in self._recent:
            # Duplicate to a resident/just-released line: filtered.
            self.deduped += 1
            self._advance_release_past(seq)
            return self._drain()
        self._pending[seq] = line
        self._pending_lines[line] = self._pending_lines.get(line, 0) + 1
        released = self._drain()
        # Capacity pressure: force-release the oldest entries.
        while len(self._pending) > self.capacity:
            oldest = min(self._pending)
            released.append(self._release(oldest))
            self.overflow_releases += 1
        return released

    def _advance_release_past(self, seq: int) -> None:
        if seq == self._next_release:
            self._next_release += 1

    def _release(self, seq: int) -> int:
        line = self._pending.pop(seq)
        count = self._pending_lines[line] - 1
        if count:
            self._pending_lines[line] = count
        else:
            del self._pending_lines[line]
        self._next_release = max(self._next_release, seq + 1)
        self._recent.append(line)
        if len(self._recent) > self._recent_cap:
            del self._recent[0]
        return line

    def _drain(self) -> List[int]:
        out: List[int] = []
        while self._next_release in self._pending:
            out.append(self._release(self._next_release))
        return out

    @property
    def occupancy(self) -> int:
        return len(self._pending)

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "pending": to_pairs(self._pending),
            "pending_lines": to_pairs(self._pending_lines),
            "recent": list(self._recent),
            "next_release": self._next_release,
            "next_seq": self._next_seq,
            "deduped": self.deduped,
            "overflow_releases": self.overflow_releases,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._pending = {int(seq): int(line)
                         for seq, line in state["pending"]}
        self._pending_lines = {int(line): int(count)
                               for line, count in state["pending_lines"]}
        self._recent = [int(a) for a in state["recent"]]
        self._next_release = int(state["next_release"])
        self._next_seq = int(state["next_seq"])
        self.deduped = int(state["deduped"])
        self.overflow_releases = int(state["overflow_releases"])
