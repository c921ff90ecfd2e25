"""Windowed metric collection.

A *window* is a per-N-instruction interval of a simulation.  The
recorder snapshots a small set of counters at each boundary and stores
the **delta** against the previous boundary, so each
:class:`WindowSample` describes only its own interval — per-window IPC
and MPKI come from the same formula definitions as the whole-run
numbers, just evaluated over the differenced values.

Windows are computed inside the simulation itself (the scoreboard
invokes the recorder at instruction-count boundaries), never from wall
clock or iteration order, so a given seed produces a bit-identical
series whether the run executes serially or inside a worker process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import formulas
from .registry import MetricRegistry, Number

#: Default window length, in retired instructions.  Chosen so the seed
#: traces (5k-40k instructions) yield a handful-to-dozens of windows.
DEFAULT_WINDOW_INSTRUCTIONS = 2000

#: Counters captured per window.  Kept deliberately small: each window
#: stores one dict of these deltas, and everything downstream (IPC,
#: MPKI, average load latency, the stall-bucket breakdown) derives
#: from them.
WINDOW_COUNTERS: Tuple[str, ...] = (
    "core.instructions",
    "core.cycles",
    "core.branch_mispredicts",
    "mem.loads",
    "mem.load_latency_sum",
    "core.stall.mispredict_cycles",
    "core.stall.frontend_cycles",
    "core.stall.memory_cycles",
)

#: Window counter name per CPI-stack stall bucket (``base`` is the
#: residual: window cycles not attributed to any stall bucket).
STALL_WINDOW_COUNTERS: Dict[str, str] = {
    "mispredict": "core.stall.mispredict_cycles",
    "frontend_bubbles": "core.stall.frontend_cycles",
    "memory": "core.stall.memory_cycles",
}


@dataclass(frozen=True)
class WindowSample:
    """One per-interval measurement: counter deltas plus boundaries."""

    index: int
    start_instruction: int
    end_instruction: int
    values: Dict[str, Number] = field(default_factory=dict)

    @property
    def instructions(self) -> Number:
        return self.values.get("core.instructions", 0)

    @property
    def ipc(self) -> float:
        return formulas.ipc(self.values.get("core.instructions", 0),
                            self.values.get("core.cycles", 0))

    @property
    def mpki(self) -> float:
        return formulas.mpki(self.values.get("core.branch_mispredicts", 0),
                             self.values.get("core.instructions", 0))

    @property
    def average_load_latency(self) -> float:
        return formulas.average_latency(
            self.values.get("mem.load_latency_sum", 0),
            self.values.get("mem.loads", 0))

    @property
    def stall_cycles(self) -> Dict[str, float]:
        """Per-bucket stall cycles attributed inside this window, with
        ``base`` as the unattributed residual, clamped at 0.

        Attribution is per retire while cycles are elapsed time, so
        overlapping stalls are counted once per retiring micro-op: the
        memory bucket alone can exceed the cycles several times over
        (up to 6.6x a run's cycles, ROADMAP direction 7).  The clamp
        hides that over-attribution; it does not make the buckets sum
        to the cycles."""
        out = {bucket: float(self.values.get(counter, 0))
               for bucket, counter in STALL_WINDOW_COUNTERS.items()}
        cycles = float(self.values.get("core.cycles", 0))
        attributed = math.fsum(v for _, v in sorted(out.items()))
        out["base"] = max(0.0, cycles - attributed)
        return out

    @property
    def stall_fractions(self) -> Dict[str, float]:
        """:attr:`stall_cycles` normalized by window cycles (all zero
        for an empty window)."""
        cycles = float(self.values.get("core.cycles", 0))
        stalls = self.stall_cycles
        if cycles <= 0:
            return {bucket: 0.0 for bucket in stalls}
        return {bucket: v / cycles for bucket, v in stalls.items()}

    def metric(self, name: str) -> Number:
        """A raw counter delta or a derived per-window metric."""
        if name in self.values:
            return self.values[name]
        prop = getattr(type(self), name, None)
        if isinstance(prop, property):
            return prop.fget(self)  # type: ignore[misc]
        raise KeyError(name)

    def to_dict(self) -> Dict[str, object]:
        # Values are emitted key-sorted so serialized windows are
        # canonical: a row that round-tripped through the disk cache
        # (which writes sort_keys JSON) re-serializes byte-identically
        # to a freshly-executed one — archive digests must not depend
        # on cache state.
        return {
            "index": self.index,
            "start_instruction": self.start_instruction,
            "end_instruction": self.end_instruction,
            "values": {k: self.values[k] for k in sorted(self.values)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WindowSample":
        return cls(
            index=int(data["index"]),              # type: ignore[arg-type]
            start_instruction=int(data["start_instruction"]),  # type: ignore[arg-type]
            end_instruction=int(data["end_instruction"]),      # type: ignore[arg-type]
            values=dict(data["values"]),           # type: ignore[arg-type]
        )


class WindowRecorder:
    """Accumulates :class:`WindowSample` deltas from a registry.

    The owner calls :meth:`take` at each interval boundary (instruction
    counts are read from the registry itself) and :meth:`finish` once
    at end of run to flush the final partial window.
    """

    def __init__(self, registry: MetricRegistry, interval: int,
                 counters: Sequence[str] = WINDOW_COUNTERS) -> None:
        if interval <= 0:
            raise ValueError("window interval must be positive")
        self.interval = int(interval)
        self.counters = tuple(counters)
        self.windows: List[WindowSample] = []
        self._registry = registry
        # Counter cells resolved once up front: take() then reads a
        # handful of attribute values instead of materializing a full
        # registry snapshot, so per-boundary cost stays flat no matter
        # how many metrics the producers register.
        self._cells = tuple(registry.counter(name)
                            for name in self.counters)
        self._instr = registry.counter("core.instructions")
        self._prev: Dict[str, Number] = {
            name: cell.value
            for name, cell in zip(self.counters, self._cells)}
        self._last_boundary: int = int(self._instr.value)

    def take(self) -> Optional[WindowSample]:
        """Close the current window at the present counter values."""
        end = int(self._instr.value)
        if end <= self._last_boundary:
            return None
        prev = self._prev
        values: Dict[str, Number] = {
            name: cell.value - prev[name]
            for name, cell in zip(self.counters, self._cells)}
        sample = WindowSample(
            index=len(self.windows),
            start_instruction=self._last_boundary,
            end_instruction=end,
            values=values,
        )
        self.windows.append(sample)
        self._prev = {name: cell.value
                      for name, cell in zip(self.counters, self._cells)}
        self._last_boundary = end
        return sample

    def finish(self) -> List[WindowSample]:
        """Flush any trailing partial window and return the series."""
        self.take()
        return self.windows

    # -- checkpointing (state_dict protocol) --------------------------------
    # ``interval`` and ``counters`` ride along so the owner can rebuild a
    # matching recorder against the restored registry before loading.

    def state_dict(self) -> dict[str, object]:
        return {
            "interval": self.interval,
            "counters": list(self.counters),
            "windows": [w.to_dict() for w in self.windows],
            "prev": dict(self._prev),
            "last_boundary": self._last_boundary,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        if int(state["interval"]) != self.interval:
            raise ValueError(
                f"window recorder: interval {self.interval} != checkpoint "
                f"{state['interval']}")
        if tuple(state["counters"]) != self.counters:
            raise ValueError(
                "window recorder: counter set differs from checkpoint")
        self.windows = [WindowSample.from_dict(w)
                        for w in state["windows"]]
        self._prev = {str(name): value
                      for name, value in state["prev"].items()}
        self._last_boundary = int(state["last_boundary"])


def window_metric_series(windows: Sequence[WindowSample], attr: str,
                         warmup: int = 0) -> List[float]:
    """Extract a per-window time series, optionally dropping warmup.

    ``attr`` is a derived name (``"ipc"``, ``"mpki"``,
    ``"average_load_latency"``) or a raw window counter; ``warmup``
    windows are excluded from the front of the series.
    """
    return [float(w.metric(attr)) for w in windows[warmup:]]
