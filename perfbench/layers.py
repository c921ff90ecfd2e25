"""Outside-in layer tracing for the simulator benchmark.

The traced run builds its own :class:`~repro.core.GenerationSimulator`
per task and replaces a handful of public methods on that simulator's
component *instances* with timing wrappers.  No simulator source changes:
the scoreboard looks these methods up on the instances at call time, so
the wrappers sit exactly on the layer boundaries.

Spans nest (prefetcher entry points run inside ``MemoryHierarchy.access``).
A span's *self* time is its duration minus the durations of the spans it
encloses; the core's self time is the task's wall time minus every span,
so the layer self times of a task sum to its traced wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span keys, grouped by the layer they belong to.  The frontend and
#: memory keys split one layer by use, so a change that helps one use
#: and hurts another shows.
LAYER_KEYS: Dict[str, tuple] = {
    "frontend": ("frontend.cond", "frontend.other"),
    "memory": ("memory.l1_hit", "memory.l1_miss", "memory.store",
               "memory.icache"),
    "prefetch": ("prefetch",),
    "uop_cache": ("uop_cache",),
    "metrics": ("metrics",),
}

#: Prefetcher entry points wrapped on each engine instance the memory
#: hierarchy owns (absent engines are skipped).
PREFETCH_ENTRY_POINTS = (
    ("reorder", ("insert",)),
    ("stride", ("train",)),
    ("sms", ("train_miss",)),
    ("buddy", ("on_demand_access", "on_l2_demand_miss")),
    ("standalone", ("observe",)),
)


class LayerTracer:
    """Self time and call counts per span key, kept in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: One child-time accumulator per open span.
        self._open: List[float] = []

    def span(self, fn: Callable[..., Any], key: str,
             classify: Optional[Callable[..., str]] = None,
             before: Optional[Callable[[], Any]] = None,
             ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records a span under ``key``, or under
        ``classify(args, kwargs, before())`` when a classifier is given."""
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            mark = before() if before is not None else None
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                k = (classify(args, kwargs, mark)
                     if classify is not None else key)
                self_s[k] += elapsed - children
                calls[k] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def take(self) -> Dict[str, Dict[str, float]]:
        """Return and reset the per-key totals (one task's row)."""
        row = {k: {"self_s": self.self_s[k], "calls": self.calls[k]}
               for k in sorted(self.self_s)}
        self.self_s.clear()
        self.calls.clear()
        return row


def instrument(sim: Any, tracer: LayerTracer) -> None:
    """Wrap the layer entry points on one simulator's components."""
    bu = sim.branch_unit
    bu.process_branch = tracer.span(
        bu.process_branch, "frontend",
        classify=lambda a, k, _: ("frontend.cond" if a[0].is_conditional
                                  else "frontend.other"))

    mem = sim.memory
    l1_hits = mem.stats.cell("l1_hits")

    def memory_use(args: tuple, kwargs: dict, hits_before: int) -> str:
        if kwargs.get("is_store", args[3] if len(args) > 3 else False):
            return "memory.store"
        return ("memory.l1_hit" if l1_hits.value != hits_before
                else "memory.l1_miss")

    mem.access = tracer.span(mem.access, "memory", classify=memory_use,
                             before=lambda: l1_hits.value)
    sim.icache.fetch_line = tracer.span(sim.icache.fetch_line,
                                        "memory.icache")
    for attr, methods in PREFETCH_ENTRY_POINTS:
        engine = getattr(mem, attr)
        if engine is None:
            continue
        for name in methods:
            setattr(engine, name,
                    tracer.span(getattr(engine, name), "prefetch"))
    if sim.uoc is not None:
        sim.uoc.on_block = tracer.span(sim.uoc.on_block, "uop_cache")


@contextmanager
def traced_windows(tracer: LayerTracer) -> Iterator[None]:
    """Span every ``WindowRecorder.take`` call while the block runs.

    The simulator creates its window recorder inside ``run()``, so there
    is no instance to wrap beforehand; the method is wrapped on the class
    for the duration of the traced pass instead."""
    from repro.metrics.windows import WindowRecorder

    original = WindowRecorder.take
    WindowRecorder.take = tracer.span(original, "metrics")
    try:
        yield
    finally:
        WindowRecorder.take = original
