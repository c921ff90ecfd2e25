"""Multi-stride L1 prefetch engine (Section VII-A).

Detects strided patterns with multiple components (e.g. ``+2x3, +2x1``:
"a stride of 1 repeated 3 times, followed by a stride of two occurring
only once"), operating on the virtual address space so prefetches may
cross page boundaries (which also makes it a simple TLB prefetcher).
Training happens on cache misses, after the re-order buffer and duplicate
filter; multiple streams train simultaneously.  The example pattern:

    A; A+2; A+4; A+9; A+11; A+13; A+18 ...  (strides +2,+2,+5 repeating)
    locks +2x2, +5x1 and generates A+20, A+22, A+27, ...

Degree is scaled by the per-stream :class:`~repro.prefetch.degree.
DynamicDegree`; confirmations come from the integrated queue (M3+) or the
classic queue (M1/M2).  If the demand stream overtakes the prefetch
frontier, issue logic skips ahead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from .confirmation import ConfirmationQueue, IntegratedConfirmationQueue
from .degree import DynamicDegree

#: Maximum multi-stride pattern period considered (components x repeats).
_MAX_PERIOD = 4
#: Delta history retained per stream.
_HISTORY = 12
#: A stream captures addresses within this distance of its last address.
_CAPTURE_WINDOW = 1 << 14


class StridePattern:
    """A stream's locked strides and its position in them: the one
    generator that prefetch generation and the integrated confirmation
    queue both step.  The stream and its queue share it, so the queue
    holds no reference back to the stream."""

    __slots__ = ("strides", "pos")

    def __init__(self) -> None:
        self.strides: Optional[Tuple[int, ...]] = None
        self.pos = 0

    def advance(self, addr: int) -> int:
        """Next expected address after ``addr`` along the locked
        strides (stateful in position)."""
        strides = self.strides
        if not strides:
            return addr
        step = strides[self.pos % len(strides)]
        self.pos += 1
        return addr + step


class StrideStream:
    """One concurrent training stream."""

    __slots__ = ("last_addr", "deltas", "pattern", "frontier", "degree",
                 "confirm_queue", "lru")

    def __init__(self, addr: int, min_degree: int, max_degree: int,
                 integrated: bool, confirmation_entries: int) -> None:
        self.last_addr = addr
        self.deltas: Deque[int] = deque(maxlen=_HISTORY)
        self.pattern = StridePattern()
        self.frontier = addr
        self.degree = DynamicDegree(min_degree, max_degree)
        if integrated:
            self.confirm_queue = IntegratedConfirmationQueue(
                self.pattern.advance, depth=min(4, confirmation_entries))
        else:
            self.confirm_queue = ConfirmationQueue(confirmation_entries)
        self.lru = 0

    # -- pattern machinery ----------------------------------------------------

    def _detect(self) -> None:
        """Lock onto the shortest period that repeats twice in the recent
        delta history."""
        d = list(self.deltas)
        for period in range(1, _MAX_PERIOD + 1):
            if len(d) < 2 * period:
                continue
            if d[-period:] == d[-2 * period:-period] and any(d[-period:]):
                self.pattern.strides = tuple(d[-period:])
                self.pattern.pos = 0
                return

    @property
    def locked(self) -> bool:
        return self.pattern.strides is not None

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        strides = self.pattern.strides
        return {
            "last_addr": self.last_addr,
            "deltas": list(self.deltas),
            "pattern": list(strides) if strides is not None else None,
            "pattern_pos": self.pattern.pos,
            "frontier": self.frontier,
            "degree": self.degree.state_dict(),
            "confirm_queue": self.confirm_queue.state_dict(),
            "lru": self.lru,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.last_addr = int(state["last_addr"])
        self.deltas = deque((int(d) for d in state["deltas"]),
                            maxlen=_HISTORY)
        strides = state["pattern"]
        self.pattern.strides = (tuple(int(p) for p in strides)
                                if strides is not None else None)
        self.pattern.pos = int(state["pattern_pos"])
        self.frontier = int(state["frontier"])
        self.degree.load_state_dict(state["degree"])
        self.confirm_queue.load_state_dict(state["confirm_queue"])
        self.lru = int(state["lru"])


class MultiStridePrefetcher:
    """The stream table plus generation/confirmation logic."""

    def __init__(self, streams: int = 8, min_degree: int = 2,
                 max_degree: int = 16, integrated_confirmation: bool = False,
                 confirmation_entries: int = 32,
                 line_bytes: int = 64) -> None:
        self.capacity = streams
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.integrated = integrated_confirmation
        self.confirmation_entries = confirmation_entries
        self.line_bytes = line_bytes
        self.streams: List[StrideStream] = []
        self._clock = 0
        self.issued = 0
        self.confirmed = 0
        self.skip_aheads = 0

    # -- stream lookup -----------------------------------------------------------

    def _find_stream(self, addr: int) -> Optional[StrideStream]:
        best = None
        for s in self.streams:
            if abs(addr - s.last_addr) <= _CAPTURE_WINDOW:
                if best is None or abs(addr - s.last_addr) < abs(addr - best.last_addr):
                    best = s
        return best

    def _alloc_stream(self, addr: int) -> StrideStream:
        s = StrideStream(addr, self.min_degree, self.max_degree,
                         self.integrated, self.confirmation_entries)
        self.streams.append(s)
        if len(self.streams) > self.capacity:
            self.streams.sort(key=lambda x: x.lru)
            self.streams.pop(0)
        return s

    # -- training + generation ------------------------------------------------------

    def train(self, line_addr: int) -> List[int]:
        """Feed one (deduped, ordered) miss line address; returns prefetch
        line addresses to issue."""
        self._clock += 1
        stream = self._find_stream(line_addr)
        if stream is None:
            self._alloc_stream(line_addr)
            return []
        stream.lru = self._clock
        delta = line_addr - stream.last_addr
        if delta == 0:
            return []
        stream.deltas.append(delta)
        stream.last_addr = line_addr

        confirmed = stream.confirm_queue.confirm(line_addr)
        if confirmed:
            self.confirmed += 1
        stream.degree.record(confirmed)

        pattern = stream.pattern
        old_strides = pattern.strides
        pattern.strides = None
        stream._detect()
        strides = pattern.strides
        if strides is None:
            return []
        if strides != old_strides:
            # Fresh lock (or pattern change): frontier restarts at demand.
            stream.frontier = line_addr
            pattern.pos = 0
            if self.integrated:
                stream.confirm_queue.prime(line_addr)
        # Demand overtook the frontier: skip ahead (Section VII-B).
        if stream.frontier < line_addr:
            stream.frontier = line_addr
            self.skip_aheads += 1
        # The frontier leads demand by at most `degree` pattern steps —
        # that IS the degree's definition; issuing further wastes power,
        # bandwidth and cache capacity (Section VII-B).
        degree = stream.degree.degree
        step = max(1, abs(sum(strides)) // len(strides))
        max_frontier = line_addr + degree * step
        advance = pattern.advance
        out: List[int] = []
        while stream.frontier < max_frontier and len(out) < degree:
            stream.frontier = advance(stream.frontier)
            out.append(stream.frontier - stream.frontier % self.line_bytes)
            if not self.integrated:
                stream.confirm_queue.note_prefetch(out[-1])
        self.issued += len(out)
        return out

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "streams": [s.state_dict() for s in self.streams],
            "clock": self._clock,
            "issued": self.issued,
            "confirmed": self.confirmed,
            "skip_aheads": self.skip_aheads,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        # Streams are rebuilt from scratch (nothing outside this class
        # holds a reference to them); the constructor re-binds the
        # integrated confirmation queue to the new stream's generator.
        self.streams = []
        for sstate in state["streams"]:
            s = StrideStream(int(sstate["last_addr"]), self.min_degree,
                             self.max_degree, self.integrated,
                             self.confirmation_entries)
            s.load_state_dict(sstate)
            self.streams.append(s)
        self._clock = int(state["clock"])
        self.issued = int(state["issued"])
        self.confirmed = int(state["confirmed"])
        self.skip_aheads = int(state["skip_aheads"])
