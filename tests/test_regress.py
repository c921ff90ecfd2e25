"""Regression-sentinel contracts: delta matrices, significance, gating.

The load-bearing invariants:

- identical archives never regress (exit 0);
- an injected IPC regression with a consistent window shift fires
  (exit 1);
- a doctored scalar whose window series is untouched is suppressed by
  the significance filter — the archive claims a move its own series
  does not show;
- reports are deterministic for a fixed seed.
"""

import copy
import json

import pytest

from repro.engine import execute_population
from repro.metrics.regress import (REGRESS_SCHEMA_VERSION,
                                   REGRESSION_METRICS, compare_populations,
                                   permutation_pvalue, population_rows,
                                   regress_exit_code, render_regress,
                                   window_delta_pvalue)
from repro.serialization import population_to_dict


def make_row(generation="M5", trace="t-1", ipc=1.0, n_windows=8,
             cycles_per_window=1000.0, **scalars):
    """A synthetic archive row with a consistent window series."""
    windows = []
    for i in range(n_windows):
        windows.append({
            "index": i,
            "start_instruction": i * 1000,
            "end_instruction": (i + 1) * 1000,
            "values": {"core.instructions": 1000,
                       "core.cycles": cycles_per_window,
                       "core.branch_mispredicts": 5,
                       "mem.loads": 100,
                       "mem.load_latency_sum": 900},
        })
    row = {"trace_name": trace, "family": "specint_like",
           "generation": generation, "ipc": ipc, "mpki": 5.0,
           "average_load_latency": 9.0, "bubbles_per_branch": 10.0,
           "cpi_base": 0.5, "cpi_mispredict": 0.2, "cpi_frontend": 0.1,
           "cpi_memory": 0.2, "windows": windows}
    row.update(scalars)
    return row


def shifted(row, ipc_factor=0.9, cycles_factor=None):
    """Copy of ``row`` with a moved scalar and (optionally) a window
    series that actually backs the move."""
    out = copy.deepcopy(row)
    out["ipc"] *= ipc_factor
    if cycles_factor is not None:
        for w in out["windows"]:
            w["values"]["core.cycles"] *= cycles_factor
    return out


# ---------------------------------------------------------------------------
# Permutation test
# ---------------------------------------------------------------------------

def test_all_zero_deltas_give_p_one():
    assert permutation_pvalue([0.0] * 10) == 1.0
    assert permutation_pvalue([]) == 1.0


def test_consistent_shift_is_significant():
    p = permutation_pvalue([-0.1] * 12, permutations=500, seed=7)
    assert p < 0.01


def test_pvalue_is_deterministic_for_a_seed():
    deltas = [0.1, -0.02, 0.08, 0.12, -0.01, 0.09, 0.11, 0.05]
    a = permutation_pvalue(deltas, permutations=300, seed=42)
    b = permutation_pvalue(deltas, permutations=300, seed=42)
    assert a == b
    # A different seed may sample differently but stays a probability.
    c = permutation_pvalue(deltas, permutations=300, seed=43)
    assert 0.0 < c <= 1.0


def test_window_delta_pvalue_requires_usable_series():
    a, b = make_row(), make_row()
    assert window_delta_pvalue(a, b, "cpi_base") is None  # no series
    short = copy.deepcopy(b)
    short["windows"] = short["windows"][:3]
    assert window_delta_pvalue(a, short, "ipc") is None  # length mismatch
    bare = copy.deepcopy(b)
    bare["windows"] = []
    assert window_delta_pvalue(a, bare, "ipc") is None
    assert window_delta_pvalue(a, b, "ipc") == 1.0  # identical series


# ---------------------------------------------------------------------------
# The comparison / verdict
# ---------------------------------------------------------------------------

def test_identical_rows_never_regress():
    rows = [make_row(generation=g, trace=t)
            for g in ("M1", "M5") for t in ("t-1", "t-2")]
    report = compare_populations(rows, rows)
    assert report["schema"] == REGRESS_SCHEMA_VERSION
    assert report["regressed"] is False
    assert regress_exit_code(report) == 0
    assert report["summary"]["regressions"] == 0
    assert report["summary"]["slices_compared"] == 4


def test_injected_ipc_regression_fires():
    base = [make_row(trace="t-1"), make_row(trace="t-2")]
    cur = [shifted(base[0], ipc_factor=0.9, cycles_factor=1.15), base[1]]
    report = compare_populations(base, cur)
    assert report["regressed"] is True
    assert regress_exit_code(report) == 1
    hits = [c for c in report["cells"] if c["regressed"]]
    assert {(c["metric"], c["trace"]) for c in hits} == {("ipc", "t-1")}
    assert hits[0]["p_value"] is not None
    assert hits[0]["p_value"] <= report["params"]["alpha"]


def test_doctored_scalar_with_untouched_windows_is_suppressed():
    base = [make_row(trace="t-1")]
    cur = [shifted(base[0], ipc_factor=0.9)]  # windows identical
    report = compare_populations(base, cur)
    assert report["regressed"] is False
    cell = [c for c in report["cells"] if c["delta"] != 0][0]
    assert cell["metric"] == "ipc"
    assert cell["p_value"] == 1.0
    assert cell["regressed"] is False


def test_sub_noise_move_below_min_rel_is_ignored():
    base = [make_row(trace="t-1")]
    cur = [shifted(base[0], ipc_factor=0.999, cycles_factor=1.2)]
    report = compare_populations(base, cur, min_rel=0.005)
    assert report["regressed"] is False
    # The p-value is not even computed below the scalar threshold.
    cell = [c for c in report["cells"]
            if c["metric"] == "ipc" and c["delta"] != 0][0]
    assert cell["p_value"] is None


def test_direction_map_lower_better_metrics():
    base = [make_row(trace="t-1")]
    worse = copy.deepcopy(base[0])
    worse["mpki"] *= 1.5  # no window backing -> scalar-only metric path
    for w in worse["windows"]:
        w["values"]["core.branch_mispredicts"] = 9
    report = compare_populations(base, [worse])
    hits = [c for c in report["cells"] if c["regressed"]]
    assert [c["metric"] for c in hits] == ["mpki"]

    better = copy.deepcopy(base[0])
    better["mpki"] *= 0.5
    for w in better["windows"]:
        w["values"]["core.branch_mispredicts"] = 2
    report = compare_populations(base, [better])
    assert report["regressed"] is False
    assert report["summary"]["improvements"] == 1


def test_improvement_never_gates():
    base = [make_row(trace="t-1")]
    cur = [shifted(base[0], ipc_factor=1.2, cycles_factor=0.85)]
    report = compare_populations(base, cur)
    assert report["regressed"] is False
    assert report["summary"]["improvements"] >= 1
    assert regress_exit_code(report) == 0


def test_rows_without_windows_judge_on_scalar_alone():
    base = [make_row(trace="t-1", n_windows=0)]
    cur = [shifted(base[0], ipc_factor=0.9)]
    report = compare_populations(base, cur)
    assert report["regressed"] is True
    cell = [c for c in report["cells"] if c["regressed"]][0]
    assert cell["p_value"] is None


def test_unknown_metric_is_an_error():
    with pytest.raises(ValueError, match="unknown regression metric"):
        compare_populations([], [], metrics=("bogus",))


def test_disjoint_slices_are_reported_not_compared():
    base = [make_row(trace="t-1"), make_row(trace="only-a")]
    cur = [make_row(trace="t-1"), make_row(trace="only-b")]
    report = compare_populations(base, cur)
    assert report["only_base"] == ["M5/only-a"]
    assert report["only_current"] == ["M5/only-b"]
    assert report["summary"]["slices_compared"] == 1


def test_report_is_deterministic():
    base = [make_row(trace="t-1"), make_row(trace="t-2")]
    cur = [shifted(base[0], 0.93, 1.1), shifted(base[1], 1.04, 0.96)]
    a = compare_populations(base, cur)
    b = compare_populations(base, cur)
    assert a == b


# ---------------------------------------------------------------------------
# Input adaptation
# ---------------------------------------------------------------------------

def test_population_rows_from_archive_and_ledger_record():
    pop, _ = execute_population(n_slices=1, slice_length=1500, seed=5,
                                generations=("M1",), cache="off",
                                ledger=False)
    doc = population_to_dict(pop)
    rows = population_rows(doc)
    assert len(rows) == 1 and rows[0]["generation"] == "M1"
    assert rows[0]["windows"]

    ledger_record = {"kind": "population",
                     "summary": {"slices": [
                         {"trace": "t-1", "generation": "M1", "ipc": 1.0}]}}
    rows = population_rows(ledger_record)
    assert rows[0]["trace_name"] == "t-1"
    assert "windows" not in rows[0]

    with pytest.raises(ValueError, match="not a population document"):
        population_rows({"metrics": {"ipc": 1.0}})


def test_real_archives_identical_and_doctored(tmp_path):
    pop, _ = execute_population(n_slices=2, slice_length=1500, seed=5,
                                generations=("M1", "M5"), cache="off",
                                ledger=False)
    doc = population_to_dict(pop)
    rows = population_rows(doc)
    assert regress_exit_code(compare_populations(rows, rows)) == 0

    doctored = copy.deepcopy(doc)
    row = doctored["metrics"][0]
    row["ipc"] *= 0.9
    for w in row["windows"]:
        w["values"]["core.cycles"] = int(w["values"]["core.cycles"] * 1.2)
    report = compare_populations(rows, population_rows(doctored))
    assert regress_exit_code(report) == 1


# ---------------------------------------------------------------------------
# Rendering + CLI
# ---------------------------------------------------------------------------

def test_render_regress_mentions_verdict_and_filter():
    base = [make_row(trace="t-1")]
    cur = [shifted(base[0], 0.9, 1.15)]
    report = compare_populations(base, cur)
    text = render_regress(report, top=5)
    assert "REGRESSION" in text and "REGRESSED" in text
    assert "min_rel" in text and "alpha" in text
    ok = render_regress(compare_populations(base, base))
    assert "regress: ok" in ok


def _write_archives(tmp_path):
    pop, _ = execute_population(n_slices=2, slice_length=1500, seed=5,
                                generations=("M1", "M5"), cache="off",
                                ledger=False)
    doc = population_to_dict(pop)
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(doc))
    doctored = copy.deepcopy(doc)
    row = doctored["metrics"][0]
    row["ipc"] *= 0.9
    for w in row["windows"]:
        w["values"]["core.cycles"] = int(w["values"]["core.cycles"] * 1.2)
    bad_path = tmp_path / "doctored.json"
    bad_path.write_text(json.dumps(doctored))
    return base_path, bad_path


def test_regress_cli_exit_codes(tmp_path, capsys):
    from repro.cli.registry import main

    base, doctored = _write_archives(tmp_path)
    assert main(["regress", str(base), str(base)]) == 0
    assert "regress: ok" in capsys.readouterr().out
    assert main(["regress", str(base), str(doctored)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    assert main(["regress", str(base), str(doctored), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["regressed"] is True
    assert report["schema"] == REGRESS_SCHEMA_VERSION


def test_regress_cli_requires_exactly_one_baseline(tmp_path, capsys):
    from repro.cli.registry import main

    base, _ = _write_archives(tmp_path)
    assert main(["regress", str(base)]) == 2
    capsys.readouterr()
    assert main(["regress", str(base), str(base), "--ledger", "1"]) == 2


def test_regress_cli_ledger_baseline(tmp_path, capsys):
    from repro.cli.registry import main

    kwargs = dict(n_slices=2, slice_length=1500, seed=5,
                  generations=("M1", "M5"), cache="off")
    pop, _ = execute_population(cache_dir=tmp_path, ledger=True, **kwargs)
    doc = population_to_dict(pop)
    current = tmp_path / "current.json"
    current.write_text(json.dumps(doc))

    args = ["regress", "--cache-dir", str(tmp_path), "--ledger", "1",
            str(current)]
    assert main(args) == 0
    assert "ledger:" in capsys.readouterr().out

    doctored = copy.deepcopy(doc)
    doctored["metrics"][0]["ipc"] *= 0.8
    current.write_text(json.dumps(doctored))
    # Ledger summaries carry no windows: scalar-only judgement fires.
    assert main(args) == 1
    capsys.readouterr()

    missing = ["regress", "--cache-dir", str(tmp_path), "--ledger",
               "zzz", str(current)]
    assert missing and main(missing) == 2


def test_metrics_diff_population_archives(tmp_path, capsys):
    """Population archives belong to `repro regress`: metrics --diff
    refuses them (alone or mixed with a single-run dump) with exit 2."""
    from repro.cli.registry import main

    archive = tmp_path / "archive.json"
    archive.write_text(json.dumps({"metrics": [make_row()]}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"metrics": {"ipc": 1.0}}))
    for pair in ((archive, archive), (archive, single), (single, archive)):
        assert main(["metrics", "--diff", *map(str, pair)]) == 2
        assert "repro regress" in capsys.readouterr().out


def test_every_regression_metric_has_a_direction():
    assert set(REGRESSION_METRICS.values()) <= {+1, -1}
    assert "ipc" in REGRESSION_METRICS and REGRESSION_METRICS["ipc"] == 1
