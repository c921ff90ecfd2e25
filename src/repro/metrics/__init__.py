"""repro.metrics — hierarchical stat registry with windowed snapshots.

Public surface:

- :class:`MetricRegistry` / :class:`MetricSnapshot` — counter, gauge,
  and formula store with O(1) increments and cheap snapshot/delta.
- :class:`StatsView` — attribute-style facade that keeps the legacy
  ``CoreStats``-shaped reads working on top of registry cells.
- :mod:`repro.metrics.formulas` — every derived metric (IPC, MPKI,
  average load latency, UOC fetch fraction) defined exactly once.
- :class:`WindowRecorder` / :class:`WindowSample` — per-N-instruction
  interval snapshots for warmup-excludable time series.
- :func:`diff_metric_documents` / :func:`render_metric_diff` — A/B
  comparison of two saved ``metrics --json`` documents.
- :mod:`repro.metrics.regress` — the population-archive regression
  sentinel (:func:`compare_populations`, permutation-test significance
  filter) behind ``python -m repro regress``.
"""

from .diff import diff_metric_documents, render_metric_diff
from .formulas import STANDARD_FORMULAS
from .regress import (REGRESS_SCHEMA_VERSION, REGRESSION_METRICS,
                      compare_populations, permutation_pvalue,
                      population_rows, regress_exit_code,
                      render_regress, window_delta_pvalue)
from .registry import (Counter, Formula, Gauge, MetricRegistry,
                       MetricSnapshot, StatsView)
from .windows import (DEFAULT_WINDOW_INSTRUCTIONS, STALL_WINDOW_COUNTERS,
                      WINDOW_COUNTERS, WindowRecorder, WindowSample,
                      window_metric_series)

__all__ = [
    "Counter",
    "Gauge",
    "Formula",
    "MetricRegistry",
    "MetricSnapshot",
    "StatsView",
    "STANDARD_FORMULAS",
    "DEFAULT_WINDOW_INSTRUCTIONS",
    "STALL_WINDOW_COUNTERS",
    "WINDOW_COUNTERS",
    "WindowRecorder",
    "WindowSample",
    "window_metric_series",
    "diff_metric_documents",
    "render_metric_diff",
    "REGRESS_SCHEMA_VERSION",
    "REGRESSION_METRICS",
    "compare_populations",
    "permutation_pvalue",
    "population_rows",
    "regress_exit_code",
    "render_regress",
    "window_delta_pvalue",
]
