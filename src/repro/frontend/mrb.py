"""Mispredict Recovery Buffer (Section IV-E, Figures 6 and 7).

After a mispredict to a series of small basic blocks connected by taken
branches, the 3-stage branch prediction pipe needs ~3 cycles per block to
discover each next taken branch, leaving the core fetch-starved (Figure 6:
9 cycles for 14 instructions).  The MRB records, for identified
low-confidence branches, the highest-probability sequence of the next
three fetch addresses observed after a mispredict; on a later matching
mispredict redirect it feeds those addresses to fetch in consecutive
cycles (Figure 7: the same 14 instructions in 5 cycles), while stage-3
verification checks the MRB-predicted targets against the freshly
predicted ones.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: Fetch addresses recorded per entry (Section IV-E: "the next three").
SEQUENCE_LENGTH = 3


class MispredictRecoveryBuffer:
    """PC-indexed store of post-mispredict fetch-address sequences."""

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._table: "OrderedDict[int, List[int]]" = OrderedDict()
        # Recording state: after a qualifying mispredict we capture the
        # next SEQUENCE_LENGTH fetch-block addresses.
        self._recording_pc: Optional[int] = None
        self._recording: List[int] = []
        # Replay state: addresses we promised fetch, awaiting verification.
        self._replay: List[int] = []
        self._replay_pos = 0

        # Statistics.
        self.allocations = 0
        self.replay_hits = 0   # verified-matching addresses (bubbles saved)
        self.replay_misses = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -- recording ---------------------------------------------------------

    def start_recording(self, branch_pc: int) -> None:
        """Begin capturing the post-mispredict path for ``branch_pc``
        (only called for low-confidence branches)."""
        if not self.enabled:
            return
        self._recording_pc = branch_pc
        self._recording = []

    def observe_fetch_address(self, address: int) -> None:
        """Feed every post-redirect fetch-block address; finishes any
        in-flight recording and advances any in-flight replay."""
        if self._recording_pc is not None:
            self._recording.append(address)
            if len(self._recording) >= SEQUENCE_LENGTH:
                self._install(self._recording_pc, list(self._recording))
                self._recording_pc = None
                self._recording = []

    def _install(self, pc: int, seq: List[int]) -> None:
        self.allocations += 1
        self._table[pc] = seq
        self._table.move_to_end(pc)
        while len(self._table) > self.capacity:
            self._table.popitem(last=False)

    # -- replay ---------------------------------------------------------------

    def begin_replay(self, branch_pc: int) -> bool:
        """On a mispredict redirect at ``branch_pc``: arm replay if an MRB
        entry exists.  Returns True when replay is armed."""
        if not self.enabled:
            return False
        seq = self._table.get(branch_pc)
        if seq is None:
            return False
        self._table.move_to_end(branch_pc)
        self._replay = list(seq)
        self._replay_pos = 0
        return True

    def verify_next(self, actual_address: int) -> Optional[bool]:
        """Check the next replayed address against the newly predicted one
        (the stage-3 check in Figure 7).  Returns True on a match (the
        block's prediction-delay bubbles are saved), False on mismatch
        (replay cancelled, normal correction), None when no replay is
        active."""
        if self._replay_pos >= len(self._replay):
            return None
        expected = self._replay[self._replay_pos]
        self._replay_pos += 1
        if expected == actual_address:
            self.replay_hits += 1
            return True
        self.replay_misses += 1
        # Mismatch cancels the rest of the replay.
        self._replay_pos = len(self._replay)
        return False

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "table": to_pairs(self._table),
            "recording_pc": self._recording_pc,
            "recording": list(self._recording),
            "replay": list(self._replay),
            "replay_pos": self._replay_pos,
            "allocations": self.allocations,
            "replay_hits": self.replay_hits,
            "replay_misses": self.replay_misses,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from collections import OrderedDict

        table: "OrderedDict[int, List[int]]" = OrderedDict()
        for pc, seq in state["table"]:
            table[int(pc)] = [int(a) for a in seq]
        self._table = table
        rec_pc = state["recording_pc"]
        self._recording_pc = int(rec_pc) if rec_pc is not None else None
        self._recording = [int(a) for a in state["recording"]]
        self._replay = [int(a) for a in state["replay"]]
        self._replay_pos = int(state["replay_pos"])
        self.allocations = int(state["allocations"])
        self.replay_hits = int(state["replay_hits"])
        self.replay_misses = int(state["replay_misses"])
