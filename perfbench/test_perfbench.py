"""Checks of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_simulator()

from layers import LAYER_KEYS, LayerTracer, traced_windows  # noqa: E402


def tiny(name: str, slices: int = 2, length: int = 600) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], slices=slices,
                               length=length)


@pytest.fixture(scope="module")
def spec_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_emitted_metrics(spec_json):
    assert {w["name"] for w in spec_json["workloads"]} == set(bench.WORKLOADS)
    for section, table in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in spec_json[section]}
        assert declared == table


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = bench.run(tiny(name), seed=5, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_PASSES * 2 * 6
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == bench.END_TO_END[metric][0]
        assert entry["value"] > 0, metric


@pytest.mark.parametrize("name,slices", [("memory_bound", 2),
                                          ("suite_fanout", 8)])
def test_traced_run_gives_every_layer_a_number(name, slices):
    # The suite's first slices are loop kernels, which never train a
    # prefetcher; eight slices reach a family that does.
    result = bench.run(tiny(name, slices=slices), seed=5, seconds=0,
                       trace=True)
    assert result["correct"], result["_errors"]
    metrics = result["metrics"]
    assert set(metrics) == set(bench.PER_LAYER)
    for metric, entry in metrics.items():
        assert entry["unit"] == bench.PER_LAYER[metric][0]
        assert math.isfinite(entry["value"]), metric
    layers = {m.split(".")[0] for m in metrics}
    assert layers == {"traces", "core", "engine", "trace", *LAYER_KEYS}
    for layer in ("core", *LAYER_KEYS):
        assert metrics[f"{layer}.self_ns_per_instr"]["value"] > 0, layer
    for metric in ("traces.generate_s", "engine.execute_s",
                   "engine.tasks", "trace.overhead_ratio"):
        assert metrics[metric]["value"] > 0, metric


def test_layer_self_times_sum_to_the_traced_wall_time():
    workload = tiny("memory_bound")
    specs = bench.slice_specs(workload, 7)
    prepared = bench.prepare(specs)
    checker = bench.Checker()
    untraced = bench.serial_pass(specs, prepared, checker)
    tracer = LayerTracer()
    with traced_windows(tracer):
        traced = bench.serial_pass(specs, prepared, checker, tracer=tracer)
    # Traced and untraced passes simulate bit-identical statistics.
    assert checker.failed == 0 and checker.attempted == 2 * 2 * 6
    values = bench.layer_metrics(traced, untraced)
    total_ns = sum(values[f"{layer}.self_ns_per_instr"]
                   for layer in ("core", *LAYER_KEYS))
    assert total_ns * traced.instructions == pytest.approx(
        traced.wall * 1e9, rel=1e-9)
    for row in traced.layer_rows.values():
        spans = sum(s["self_s"] for s in row["spans"].values())
        assert 0 < spans < row["wall_s"]


def test_a_doctored_reference_digest_raises_error_rate():
    workload = tiny("frontend_bound", slices=1)
    clean = bench.Checker()
    specs = bench.slice_specs(workload, 9)
    bench.serial_pass(specs, bench.prepare(specs), clean)
    assert clean.failed == 0
    reference = dict(clean.expected)
    reference[sorted(reference)[0]] = "0" * 64
    result = bench.run(workload, seed=9, seconds=0, trace=False,
                       reference=reference)
    assert not result["correct"]
    assert result["failed"] == bench.MIN_PASSES
    assert result["attempted"] == bench.MIN_PASSES * 6


def test_the_seed_alone_determines_the_inputs():
    for workload in bench.WORKLOADS.values():
        assert (bench.slice_specs(workload, 3)
                == bench.slice_specs(workload, 3))
        assert (bench.slice_specs(workload, 3)
                != bench.slice_specs(workload, 4))


def test_reference_digests_cover_each_default_task():
    refs = json.loads(bench.REFERENCE_FILE.read_text())
    for name, workload in bench.WORKLOADS.items():
        tasks = workload.slices * 6
        serial = {bench.task_label(spec, gen)
                  for spec in bench.slice_specs(workload, bench.DEFAULT_SEED)
                  for gen in ("M1", "M2", "M3", "M4", "M5", "M6")}
        assert serial <= set(refs[name])
        # The fan-out workload also pins its population archive rows.
        extra = 0 if workload.families else tasks
        assert len(refs[name]) == tasks + extra
