"""Per-generation whole-core simulator.

Composes the branch unit (Section IV), the memory hierarchy with all
prefetchers (Sections VII-IX), the UOC controller (Section VI) and the
scoreboard timing model into the object the harness runs: one
:class:`GenerationSimulator` per (generation, trace) pair.

All components share one :class:`~repro.metrics.MetricRegistry`
(``self.metrics``), so a run's complete stat hierarchy — ``core.*``,
``frontend.*``, ``mem.*``, ``uoc.*``, ``energy.*`` plus every derived
formula — is one ``snapshot()`` away, and ``run()`` can emit per-N-
instruction :class:`~repro.metrics.WindowSample` series for
warmup-excludable IPC/MPKI time-series analysis.

The front-end pass calls a per-block hook after each branch: the UOC
mode machine; without a UOC, each pass charges its blocks' fetch and
decode energy at once.  The branch unit and UOC emit into a held-event
queue.

No component the simulator builds holds a reference back to it or to a
component that reaches the shared registry (gauges read the structures
they report, hooks hold only what they update), so a dropped simulator
is freed by reference counting, not left to the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..config import GenerationConfig, get_generation
from ..frontend.predictor import BranchStats, BranchUnit
from ..memory.hierarchy import MemoryHierarchy, MemoryStats
from ..memory.icache import InstructionCache
from ..metrics import (DEFAULT_WINDOW_INSTRUCTIONS, WINDOW_COUNTERS,
                       MetricRegistry, WindowRecorder, WindowSample,
                       window_metric_series)
from ..observe.events import TraceEvent
from ..observe.sink import HeldEvents, TraceSink
from ..power import EnergyLedger
from ..traces.types import Trace
from ..uop_cache import UocController, UopCache
from .scoreboard import CoreStats, Scoreboard


@dataclass
class SimulationResult:
    """Everything one run produces, for tables/figures and tests."""

    generation: str
    trace_name: str
    core: CoreStats
    branch: BranchStats
    memory: MemoryStats
    ledger: EnergyLedger
    uoc_fetch_fraction: float = 0.0
    #: Per-interval metric windows (empty when windowing was disabled).
    windows: List[WindowSample] = field(default_factory=list)
    #: The shared registry behind the stats views (None for results
    #: reconstructed from serialized records).  It keeps alive every
    #: structure its gauges read, so the result stays readable after
    #: its simulator is dropped.
    metrics: Optional[MetricRegistry] = None
    #: Pipeline event stream (empty unless the run was traced, see
    #: ``repro.run(..., trace_to=...)``).
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def mpki(self) -> float:
        return self.core.registry.value("core.mpki")

    @property
    def average_load_latency(self) -> float:
        return self.memory.average_load_latency

    def window_series(self, attr: str, warmup: int = 0) -> List[float]:
        """Per-window time series of ``attr`` (e.g. ``"ipc"``)."""
        return window_metric_series(self.windows, attr, warmup=warmup)


class GenerationSimulator:
    """One core instance of a given generation.

    ``corunners`` activates shared-L2 contention from cluster-mates (only
    meaningful on generations whose L2 is shared, Table I).
    """

    def __init__(self, config: GenerationConfig, corunners: int = 0,
                 trace_sink: Optional[TraceSink] = None) -> None:
        if isinstance(config, str):
            config = get_generation(config)
        self.config = config
        self.corunners = corunners
        self.metrics = MetricRegistry()
        #: Optional event sink shared by every component — the wire
        #: ``repro.run(..., trace_to=...)`` attaches; ``None`` (the
        #: default) keeps all emission sites disabled.
        self.trace_sink = trace_sink
        held = HeldEvents() if trace_sink is not None else None
        self.ledger = EnergyLedger(registry=self.metrics)
        self.branch_unit = BranchUnit(config, ledger=self.ledger,
                                      registry=self.metrics,
                                      sink=held)
        self.memory = MemoryHierarchy(config, ledger=self.ledger,
                                      corunners=corunners,
                                      registry=self.metrics,
                                      sink=trace_sink)
        self.uoc: Optional[UocController] = None
        if config.uoc_uops:
            self.uoc = UocController(
                UopCache(config.uoc_uops, config.uoc_uops_per_cycle),
                ledger=self.ledger,
                registry=self.metrics,
                sink=held,
            )
        self.icache = InstructionCache(config, self.memory)
        self._charge_blocks = (_block_charge(self.ledger)
                               if self.uoc is None else None)
        self.scoreboard = Scoreboard(config, branch_unit=self.branch_unit,
                                     memory=self.memory,
                                     icache=self.icache,
                                     registry=self.metrics,
                                     sink=trace_sink,
                                     held=held,
                                     on_branch=(self.uoc.on_branch
                                                if self.uoc is not None
                                                else None),
                                     on_blocks=self._charge_blocks)
        # Resumable run-segmentation state (see ``save_state``; the UOC
        # checkpoints its own block-stream cursor): the one-time
        # trailing-block energy charge and the window recorder shared
        # across run segments.
        self._legacy_base_charged = False
        self._recorder: Optional[WindowRecorder] = None

    def run(self, trace: Trace, *,
            window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
            window_counters: Optional[Sequence[str]] = None,
            finalize: bool = True,
            ) -> SimulationResult:
        """Simulate one trace slice end to end.

        ``window_interval`` > 0 records a :class:`WindowSample` every
        that many retired instructions (plus a final partial window);
        0 disables windowed collection.  ``window_counters`` selects
        which registry counters each window snapshots (default: the
        standard :data:`~repro.metrics.WINDOW_COUNTERS` five).
        Windowing reads counters the scoreboard maintains anyway, so
        timing results are identical either way.

        Each call continues where the previous one stopped: run a trace
        prefix with ``finalize=False``, :meth:`save_state`, restore into
        a fresh simulator, then run the remaining slice — the final
        result is bit-identical to one uninterrupted run.
        ``finalize=False`` skips flushing the trailing partial metrics
        window (the next segment keeps filling it); window configuration
        must match across segments.
        """
        recorder = self._ensure_recorder(window_interval, window_counters)
        on_window = recorder.take if recorder is not None else None
        if self.uoc is not None:
            if self.uoc.block_pc is None and len(trace):
                self.uoc.block_pc = trace[0].pc
        elif not self._legacy_base_charged:
            # The trailing block (after the last branch) is charged once
            # per *run*, up front; the pass charges every other block.
            self._charge_blocks(1)
            self._legacy_base_charged = True
        core = self.scoreboard.run(trace, on_window=on_window,
                                   window_interval=window_interval)
        fetch_frac = (self.uoc.stats.fetch_fraction
                      if self.uoc is not None else 0.0)
        windows: List[WindowSample] = []
        if recorder is not None:
            windows = (recorder.finish() if finalize
                       else list(recorder.windows))
        return SimulationResult(
            generation=self.config.name,
            trace_name=trace.name,
            core=core,
            branch=self.branch_unit.stats,
            memory=self.memory.stats,
            ledger=self.ledger,
            uoc_fetch_fraction=fetch_frac,
            windows=windows,
            metrics=self.metrics,
            events=(self.trace_sink.events()
                    if self.trace_sink is not None else []),
        )

    def _ensure_recorder(self, interval: int,
                         counters: Optional[Sequence[str]]
                         ) -> Optional[WindowRecorder]:
        """The run-segment-spanning window recorder (None = windowing
        off).  A resumed segment must use the same window configuration
        as the segments before it."""
        if interval <= 0:
            return None
        want = tuple(counters) if counters is not None else WINDOW_COUNTERS
        if self._recorder is None:
            self._recorder = WindowRecorder(self.metrics, interval,
                                            counters=want)
        elif (self._recorder.interval != int(interval)
              or self._recorder.counters != want):
            raise ValueError(
                "window configuration changed across run segments")
        return self._recorder

    # -- checkpointing (state_dict protocol) --------------------------------

    def save_state(self) -> dict[str, object]:
        """A versioned, JSON-serializable checkpoint of the whole
        simulator — every component's ``state_dict`` plus the run-
        segmentation cursors.  The registry holds every counter, the
        ``energy.*`` event counts included.  Restore with
        :meth:`restore` on a fresh simulator built with the same
        config/corunners/sink setup."""
        from ..state import checkpoint_document

        payload = {
            "generation": self.config.name,
            "corunners": self.corunners,
            "instructions": self.scoreboard._index,
            "components": {
                "metrics": self.metrics.state_dict(),
                "branch_unit": self.branch_unit.state_dict(),
                "memory": self.memory.state_dict(),
                "icache": self.icache.state_dict(),
                "uoc": (self.uoc.state_dict()
                        if self.uoc is not None else None),
                "scoreboard": self.scoreboard.state_dict(),
            },
            "legacy_base_charged": self._legacy_base_charged,
            "recorder": (self._recorder.state_dict()
                         if self._recorder is not None else None),
            "sink": (self.trace_sink.state_dict()
                     if self.trace_sink is not None else None),
        }
        return checkpoint_document(payload)

    def restore(self, doc: dict[str, object]) -> None:
        """Load a :meth:`save_state` document into this simulator (in
        place; geometry/config mismatches raise ``ValueError``)."""
        from ..state import validate_checkpoint

        doc = validate_checkpoint(doc)
        if doc["generation"] != self.config.name:
            raise ValueError(
                f"checkpoint is for generation {doc['generation']!r}, "
                f"this simulator is {self.config.name!r}")
        if int(doc["corunners"]) != self.corunners:
            raise ValueError(
                f"checkpoint has corunners={doc['corunners']}, this "
                f"simulator has {self.corunners}")
        comp = doc["components"]
        if (comp["uoc"] is None) != (self.uoc is None):
            raise ValueError("UOC presence mismatch vs checkpoint")
        recorder = doc["recorder"]
        # Built first: a recorder registers the counters it reads, which
        # the registry then restores with the rest.
        self._recorder = (
            WindowRecorder(self.metrics, int(recorder["interval"]),
                           counters=tuple(recorder["counters"]))
            if recorder is not None else None)
        self.metrics.load_state_dict(comp["metrics"])
        self.branch_unit.load_state_dict(comp["branch_unit"])
        self.memory.load_state_dict(comp["memory"])
        self.icache.load_state_dict(comp["icache"])
        if self.uoc is not None:
            self.uoc.load_state_dict(comp["uoc"])
        self.scoreboard.load_state_dict(comp["scoreboard"])
        self._legacy_base_charged = bool(doc["legacy_base_charged"])
        if self._recorder is not None:
            self._recorder.load_state_dict(recorder)
        if self.trace_sink is not None and doc["sink"] is not None:
            self.trace_sink.load_state_dict(doc["sink"])


def _block_charge(ledger: EnergyLedger) -> Callable[[int], None]:
    """The per-chunk hook without a UOC: one I-cache fetch and decode
    per block.  It holds the two energy cells, not the simulator, so the
    scoreboard keeping it closes no reference cycle."""
    fetch = ledger.cell("icache_fetch")
    decode = ledger.cell("decode")

    def charge(count: int) -> None:
        fetch.value += count
        decode.value += count

    return charge
