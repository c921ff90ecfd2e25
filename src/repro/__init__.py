"""Reproduction of "Evolution of the Samsung Exynos CPU Microarchitecture"
(ISCA 2020, Industry Track).

Top-level API:

- :func:`repro.run` — simulate one trace (or picklable trace spec) on one
  generation.
- :func:`repro.run_population` — the standard suite across generations,
  with ``workers=N`` process sharding and ``cache="off"|"memory"|"disk"``
  result memoization (see :mod:`repro.engine`).
- :mod:`repro.config` — the six generation configurations (Table I).
- :mod:`repro.traces` — synthetic workload families and the standard
  evaluation population.
- :mod:`repro.frontend` — SHP/uBTB/BTB/VPC/RAS/MRB branch prediction.
- :mod:`repro.security` — CONTEXT_HASH target encryption (Spectre v2).
- :mod:`repro.uop_cache` — the micro-operation cache and its mode machine.
- :mod:`repro.memory` — caches, TLBs, DRAM path, coordinated management.
- :mod:`repro.prefetch` — multi-stride, SMS, Buddy, standalone engines.
- :mod:`repro.core` — the scoreboard timing model and
  :class:`~repro.core.simulator.GenerationSimulator`.
- :mod:`repro.engine` — the parallel population execution engine and its
  on-disk result cache.
- :mod:`repro.harness` — regenerates every table and figure.

Quick start::

    import repro
    result = repro.run(("specint_like", 1), "M5")
    print(result.ipc, result.mpki, result.average_load_latency)

    pop = repro.run_population(n_slices=24, workers=4, cache="disk")
    print(pop.mean("M6", "ipc"))
"""

__version__ = "1.0.0"

from .config import (  # noqa: F401
    GENERATIONS,
    GENERATION_ORDER,
    GenerationConfig,
    all_generations,
    get_generation,
)
from .core import GenerationSimulator, SimulationResult  # noqa: F401
from .traces import (  # noqa: F401
    Trace,
    TraceRecord,
    TraceSpec,
    make_trace,
    standard_suite,
)
from .engine import run, run_population  # noqa: F401
