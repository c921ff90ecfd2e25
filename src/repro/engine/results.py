"""Population result types.

These are the stable return types of every population run.  They live
in the engine, so the execution layer (:mod:`repro.engine.runner`) does
not depend on the figure/table harness built on top of it; import them
from :mod:`repro.engine`.

Run records are schema-versioned: :data:`RESULT_SCHEMA_VERSION` is
stamped into every serialized :class:`SliceMetrics` row (and, through
the engine fingerprint, into every cache key), so a format change —
like schema 2's addition of per-window metric series — can never be
misread from an old cache entry or archive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..metrics.windows import WindowSample, window_metric_series

#: Version of the serialized SliceMetrics/PopulationResult record.
#: History: 1 = flat scalar rows; 2 = adds per-window metric series;
#: 3 = window values carry the per-bucket stall-cycle counters
#: (``core.stall.*``) alongside the original five window counters.
RESULT_SCHEMA_VERSION = 3

#: Every schema this build can read.  Schema 1 rows carry no windows;
#: schema 2 windows simply lack the stall counters (their stall
#: breakdown reads as all-base).
READABLE_SCHEMAS = (1, 2, RESULT_SCHEMA_VERSION)


@dataclass
class SliceMetrics:
    """Per-(slice, generation) results kept by population runs."""

    trace_name: str
    family: str
    generation: str
    ipc: float
    mpki: float
    average_load_latency: float
    bubbles_per_branch: float
    #: Interval-model CPI-stack fractions (base/mispredict/frontend/memory)
    #: — the Section XI improvement-attribution view.
    cpi_base: float = 0.0
    cpi_mispredict: float = 0.0
    cpi_frontend: float = 0.0
    cpi_memory: float = 0.0
    #: Per-interval windows from the run (empty when windowing was off
    #: or the row predates schema 2).
    windows: List[WindowSample] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the disk-cache / archive payload)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "trace_name": self.trace_name,
            "family": self.family,
            "generation": self.generation,
            "ipc": self.ipc,
            "mpki": self.mpki,
            "average_load_latency": self.average_load_latency,
            "bubbles_per_branch": self.bubbles_per_branch,
            "cpi_base": self.cpi_base,
            "cpi_mispredict": self.cpi_mispredict,
            "cpi_frontend": self.cpi_frontend,
            "cpi_memory": self.cpi_memory,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SliceMetrics":
        """Rebuild a row from :meth:`to_dict` output.

        Accepts every schema in :data:`READABLE_SCHEMAS` (schema 1 rows
        carry no windows; schema 2 windows predate the stall counters);
        anything newer is an explicit error rather than a silent
        misread.
        """
        schema = data.get("schema", 1)
        if schema not in READABLE_SCHEMAS:
            raise ValueError(
                f"unsupported SliceMetrics schema {schema!r} "
                f"(this build reads <= {RESULT_SCHEMA_VERSION})")
        kwargs = {k: v for k, v in data.items()
                  if k not in ("schema", "windows")}
        windows = [WindowSample.from_dict(w)
                   for w in data.get("windows", [])]
        return cls(windows=windows, **kwargs)

    def window_series(self, attr: str, warmup: int = 0) -> List[float]:
        """Per-window time series of ``attr`` (e.g. ``"ipc"``)."""
        return window_metric_series(self.windows, attr, warmup=warmup)


@dataclass
class PopulationResult:
    """All slices x all generations."""

    metrics: List[SliceMetrics] = field(default_factory=list)

    def for_generation(self, name: str) -> List[SliceMetrics]:
        return [m for m in self.metrics if m.generation == name]

    def series(self, name: str, attr: str, sort: bool = True) -> List[float]:
        """Per-slice metric values for one generation (sorted for the
        paper's s-curve presentation)."""
        vals = [getattr(m, attr) for m in self.for_generation(name)]
        return sorted(vals) if sort else vals

    def mean(self, name: str, attr: str) -> float:
        vals = self.series(name, attr, sort=False)
        return math.fsum(vals) / len(vals) if vals else 0.0

    def family_mean(self, name: str, family: str, attr: str) -> float:
        vals = [getattr(m, attr) for m in self.for_generation(name)
                if m.family == family]
        return math.fsum(vals) / len(vals) if vals else 0.0

    def window_series(self, name: str, attr: str,
                      warmup: int = 0) -> List[float]:
        """Sorted per-window values of ``attr`` across one generation's
        slices (the windowed analogue of :meth:`series`): every slice
        contributes its post-warmup windows, and the flattened pool is
        sorted for s-curve presentation."""
        vals: List[float] = []
        for m in self.for_generation(name):
            vals.extend(m.window_series(attr, warmup=warmup))
        return sorted(vals)
