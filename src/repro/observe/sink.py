"""The in-memory trace sink: every event of a run, in emission order.

A :class:`TraceSink` is what ``repro.run(..., trace_to=True)`` (and a
``.jsonl`` target) hands to :class:`~repro.core.simulator
.GenerationSimulator`, which threads it into the scoreboard, branch
unit, uop-cache controller and memory hierarchy.  Each producer holds
the sink (or ``None``) and guards every emission with a single
``is not None`` check, so the disabled mode — the default — costs one
predictable branch per instrumented site and allocates nothing.

The sink keeps every event; traces longer than memory allows go to
disk through :class:`~repro.observe.stream.StreamingTraceSink` (a
directory target) instead.

Determinism: the sink records only values the simulation already
computed — cycle stamps, PCs, predictor outcomes — never wall-clock or
id()-derived data, so for a fixed seed the event stream is byte-
identical (via :func:`~repro.observe.events.events_to_jsonl`) whether
the simulation ran serially or inside a worker process.
"""

from __future__ import annotations

from typing import List

from .events import TraceEvent


class TraceSink:
    """Unbounded in-memory event list."""

    __slots__ = ("emitted", "_events")

    def __init__(self) -> None:
        #: Sequence number of the next event (continues across a
        #: checkpoint restore, so it can exceed ``len(self)``).
        self.emitted = 0
        self._events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        """Stamp ``event`` with the next sequence number and keep it."""
        event.seq = self.emitted
        self.emitted += 1
        self._events.append(event)

    def events(self) -> List[TraceEvent]:
        """Every kept event, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- checkpointing (state_dict protocol) --------------------------------
    # Only the sequence counter is state: a restored sink starts empty
    # but continues numbering where the saved run stopped, so the
    # pre-checkpoint stream concatenated with the post-restore stream is
    # byte-identical to an uninterrupted run's stream.

    def state_dict(self) -> dict[str, object]:
        return {"emitted": self.emitted}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.emitted = int(state["emitted"])
        self._events = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSink(emitted={self.emitted})"
