"""Harness (population runs, tables, figures) and the energy ledger."""

import pytest

from repro.harness import (
    branch_pair_statistics,
    figure1_ghist_sweep,
    overall_summary,
    population_curves,
    render_curves,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table2_storage,
    table4_load_latency,
)
from repro.engine import execute_population, run_population
from repro.power import EnergyLedger
from repro.traces import cbp5_suite, standard_suite


@pytest.fixture(scope="module")
def tiny_population():
    return run_population(n_slices=10, slice_length=6000, seed=7)


def test_population_covers_all_generations(tiny_population):
    for g in ("M1", "M2", "M3", "M4", "M5", "M6"):
        assert len(tiny_population.for_generation(g)) == 10


def test_population_cached(tiny_population):
    again, stats = execute_population(n_slices=10, slice_length=6000, seed=7)
    assert stats.executed == 0
    assert again.metrics == tiny_population.metrics


def test_population_series_sorted(tiny_population):
    s = tiny_population.series("M1", "ipc")
    assert s == sorted(s)


def test_overall_summary_trends(tiny_population):
    s = overall_summary(tiny_population)
    assert s["M6"]["ipc"] > s["M1"]["ipc"]
    assert s["M6"]["load_latency"] < s["M1"]["load_latency"]
    assert s["summary"]["ipc_growth_per_year_pct"] > 5.0


def test_population_curves_clip(tiny_population):
    curves = population_curves("mpki", clip=20.0,
                               population=tiny_population)
    assert all(v <= 20.0 for series in curves.values() for v in series)


def test_render_curves_produces_plot(tiny_population):
    curves = population_curves("ipc", population=tiny_population)
    text = render_curves(curves, "FIG 17")
    assert "FIG 17" in text and "series 1 = M1" in text


def test_tables_render():
    t1 = render_table1()
    assert "M1" in t1 and "M6" in t1 and "rob" in t1
    t2 = render_table2()
    assert "SHP" in t2 and "L2BTB" in t2
    t3 = render_table3()
    assert "L3" in t3
    t4 = render_table4(run_population(n_slices=10, slice_length=6000,
                                      seed=7))
    assert "14.9" in t4  # paper M1 value shown alongside


def test_table2_close_to_paper():
    for row in table2_storage():
        assert abs(row["shp_kb"] - row["shp_paper"]) < 0.5
        assert abs(row["l1btb_kb"] - row["l1btb_paper"]) \
            <= 0.2 * row["l1btb_paper"]
        assert abs(row["l2btb_kb"] - row["l2btb_paper"]) \
            <= 0.1 * row["l2btb_paper"]


def test_table4_monotone_after_m3(tiny_population):
    rows = table4_load_latency(tiny_population)
    lat = {r["core"]: r["avg_load_latency"] for r in rows}
    assert lat["M6"] < lat["M4"] < lat["M3"]
    assert lat["M6"] < lat["M1"]


def test_figure1_shows_diminishing_returns():
    sweep = figure1_ghist_sweep(ghist_points=(2, 120, 330), n_traces=3,
                                trace_length=20000)
    assert sweep[330] < sweep[2]
    # Most of the benefit lands before the long tail (diminishing returns).
    assert (sweep[120] - sweep[330]) < (sweep[2] - sweep[330])


def test_branch_pair_statistics_shape():
    stats = branch_pair_statistics(standard_suite(n_slices=6,
                                                  slice_length=4000))
    total = sum(stats.values())
    assert abs(total - 1.0) < 1e-9
    # Lead-taken dominates, as in the paper's 60/24/16 split.
    assert stats["lead_taken"] > stats["both_not_taken"]


def test_energy_ledger_accounting():
    led = EnergyLedger()
    led.record("decode", 10)
    led.record("uoc_fetch", 4)
    assert led.energy("decode") == 60.0
    assert led.energy() == 60.0 + 10.0
    with pytest.raises(KeyError):
        led.record("warp_drive")


def test_energy_ledger_merge():
    a, b = EnergyLedger(), EnergyLedger()
    a.record("decode", 1)
    b.record("decode", 2)
    assert a.merged(b).counts["decode"] == 3
