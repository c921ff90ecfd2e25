"""Parallel population execution engine with an on-disk result cache.

The engine turns every population statistic in the harness (Figures 9,
16, 17; Tables II/IV; the Section XI attribution) into a batch of small,
picklable tasks — one per (generation config, trace spec) pair — that it
shards across worker processes and memoizes under
``~/.cache/repro`` (see :mod:`repro.engine.cache`).

Public API:

- :func:`~repro.engine.runner.run` — one (trace, generation) simulation;
  also exported as ``repro.run``.
- :func:`~repro.engine.runner.run_population` — the standard suite across
  generations with ``workers=``/``cache=`` control; also exported as
  ``repro.run_population``.
- :func:`~repro.engine.runner.execute_population` — ditto, returning
  ``(PopulationResult, EngineStats)``.
- :class:`~repro.engine.runner.PopulationEngine` — the batch executor,
  for custom task matrices (the Figure 1 sweep uses it directly).

See ``docs/engine.md`` for the cache layout and invalidation rules.
"""

from .cache import (  # noqa: F401
    CACHE_MODES,
    TaskCache,
    clear_disk,
    default_cache_dir,
)
from .results import (  # noqa: F401
    RESULT_SCHEMA_VERSION,
    PopulationResult,
    SliceMetrics,
)
from .runner import (  # noqa: F401
    EngineStats,
    PopulationEngine,
    clear_caches,
    execute_population,
    run,
    run_population,
)
from .tasks import (  # noqa: F401
    ENGINE_SCHEMA_VERSION,
    execute_task,
    execute_task_heartbeat,
    ghist_task,
    population_task,
    task_fingerprint,
    task_instructions,
    task_label,
)
