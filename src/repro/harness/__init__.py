"""Experiment harness: regenerates every table and figure in the paper."""

from .figures import (  # noqa: F401
    FIG1_GHIST_POINTS,
    figure1_ghist_sweep,
    figure9_mpki,
    figure16_load_latency,
    figure17_ipc,
    figure_windowed_ipc,
    figure_windowed_mpki,
    overall_summary,
    population_curves,
    population_window_curves,
    render_curves,
)
from .population import (  # noqa: F401
    branch_pair_statistics,
    to_csv,
    windows_to_csv,
)
from .report import build_report  # noqa: F401
from .tables import (  # noqa: F401
    PAPER_TABLE3,
    PAPER_TABLE4,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table1_features,
    table2_storage,
    table3_hierarchy,
    table4_load_latency,
)
