"""Shared fixtures for the table/figure benches.

One moderate population run is shared by every population-statistic bench
(Figures 9/16/17, Table IV, the overall summary) so the suite stays
laptop-fast.  The run goes through ``repro.engine``; raise the env knobs
for smoother curves or faster turnaround:

    REPRO_BENCH_SLICES=96 REPRO_BENCH_SLICE_LEN=40000 \
        REPRO_BENCH_WORKERS=8 REPRO_BENCH_CACHE=disk \
        pytest benchmarks/ --benchmark-only

``REPRO_BENCH_WORKERS=0`` uses one worker per CPU; with
``REPRO_BENCH_CACHE=disk`` repeat bench sessions reuse results from
``~/.cache/repro`` (or ``REPRO_CACHE_DIR``) instead of re-simulating.
"""

import json
import os
import time

import pytest

from repro.engine import run_population

BENCH_SLICES = int(os.environ.get("REPRO_BENCH_SLICES", "24"))
BENCH_SLICE_LEN = int(os.environ.get("REPRO_BENCH_SLICE_LEN", "12000"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "memory")

#: Where the per-session engine snapshot lands (repo root by default).
BENCH_ENGINE_FILE = os.environ.get("REPRO_BENCH_ENGINE_FILE",
                                   "BENCH_engine.json")

#: Per-bench wall times collected by the timing hook, keyed by test id.
_BENCH_TIMINGS = {}


@pytest.fixture(scope="session")
def population():
    return run_population(n_slices=BENCH_SLICES,
                          slice_length=BENCH_SLICE_LEN, seed=2020,
                          workers=BENCH_WORKERS, cache=BENCH_CACHE)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    t0 = time.perf_counter()
    yield
    _BENCH_TIMINGS[item.nodeid] = time.perf_counter() - t0


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_engine.json``: each bench's name and wall time
    plus the schema/version stamp, so a perf archive records exactly
    which engine/result/checkpoint formats produced it."""
    if not _BENCH_TIMINGS:
        return
    from repro import __version__
    from repro.engine.results import RESULT_SCHEMA_VERSION
    from repro.engine.tasks import ENGINE_SCHEMA_VERSION
    from repro.state import CHECKPOINT_SCHEMA_VERSION

    doc = {
        "version": __version__,
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
        "params": {
            "slices": BENCH_SLICES,
            "slice_length": BENCH_SLICE_LEN,
            "workers": BENCH_WORKERS,
            "cache": BENCH_CACHE,
        },
        "benches": [
            {"name": name, "wall_seconds": seconds}
            for name, seconds in sorted(_BENCH_TIMINGS.items())
        ],
    }
    try:
        with open(BENCH_ENGINE_FILE, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
    except OSError:
        pass  # a perf snapshot must never fail the bench session
