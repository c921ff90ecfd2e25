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

import os

import pytest

from repro.engine import run_population

BENCH_SLICES = int(os.environ.get("REPRO_BENCH_SLICES", "24"))
BENCH_SLICE_LEN = int(os.environ.get("REPRO_BENCH_SLICE_LEN", "12000"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "memory")


@pytest.fixture(scope="session")
def population():
    return run_population(n_slices=BENCH_SLICES,
                          slice_length=BENCH_SLICE_LEN, seed=2020,
                          workers=BENCH_WORKERS, cache=BENCH_CACHE)

