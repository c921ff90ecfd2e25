"""The execution engine: determinism, caching tiers, fingerprints, and
the unified ``repro.run`` / ``repro.run_population`` API surface."""

import pytest

import repro
from repro import engine
from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.engine import (
    EngineStats,
    PopulationEngine,
    TaskCache,
    clear_caches,
    execute_population,
    ghist_task,
    population_task,
    run_population,
    task_fingerprint,
)
from repro.serialization import (
    config_fingerprint,
    metrics_from_dict,
    metrics_to_dict,
    population_from_json,
    population_to_json,
)
from repro.traces import TraceSpec, make_trace, standard_suite, \
    standard_suite_specs


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    """Each test starts with empty in-memory engine caches."""
    clear_caches()
    yield
    clear_caches()


# ---------------------------------------------------------------------------
# Trace specs
# ---------------------------------------------------------------------------

def test_trace_spec_builds_identical_trace():
    spec = TraceSpec("loop_kernel", 7, 2500)
    a, b = spec.build(), spec.build()
    direct = make_trace("loop_kernel", seed=7, n_instructions=2500)
    assert a.name == direct.name and a.family == direct.family
    assert len(a) == len(direct)
    assert all(x.pc == y.pc and x.kind == y.kind and x.taken == y.taken
               for x, y in zip(a, direct))
    assert all(x.pc == y.pc for x, y in zip(a, b))


def test_standard_suite_matches_specs():
    specs = standard_suite_specs(n_slices=5, slice_length=1200, seed=77)
    traces = standard_suite(n_slices=5, slice_length=1200, seed=77)
    assert [t.name for t in traces] == [s.build().name for s in specs]
    assert [t.family for t in traces] == [s.family for s in specs]


def test_coerce_spec_accepts_tuples():
    from repro.traces import coerce_spec
    assert coerce_spec(("web_like", 3)) == TraceSpec("web_like", 3)
    assert coerce_spec(("web_like", 3, 999)) == TraceSpec("web_like", 3, 999)
    with pytest.raises(TypeError):
        coerce_spec("web_like")


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_config_fingerprint_is_stable_and_sensitive():
    m5 = get_generation("M5")
    assert m5.fingerprint() == config_fingerprint(m5)
    import dataclasses
    tweaked = dataclasses.replace(m5, rob_size=m5.rob_size + 1)
    assert tweaked.fingerprint() != m5.fingerprint()


def test_task_fingerprint_covers_all_payload_fields():
    m1 = get_generation("M1")
    spec = TraceSpec("loop_kernel", 1, 1000)
    base = task_fingerprint(population_task(m1, spec))
    assert base == task_fingerprint(population_task(m1, spec))
    assert base != task_fingerprint(
        population_task(m1, TraceSpec("loop_kernel", 2, 1000)))
    assert base != task_fingerprint(
        population_task(get_generation("M2"), spec))
    assert base != task_fingerprint(population_task(m1, spec, corunners=3))
    assert base != task_fingerprint(ghist_task(spec, 165))


# ---------------------------------------------------------------------------
# Determinism: parallel == serial
# ---------------------------------------------------------------------------

def test_parallel_population_matches_serial():
    kwargs = dict(n_slices=4, slice_length=1500, seed=11,
                  generations=("M1", "M5"))
    serial = run_population(workers=1, cache="off", **kwargs)
    parallel = run_population(workers=4, cache="off", **kwargs)
    assert len(serial.metrics) == len(parallel.metrics) == 8
    # Metric-for-metric identical, order included (dataclass equality
    # compares every field exactly).
    assert serial.metrics == parallel.metrics


def test_single_run_matches_hand_wired_simulator():
    spec = TraceSpec("specint_like", 5, 2000)
    via_run = repro.run(spec, "M4")
    hand = GenerationSimulator(get_generation("M4")).run(spec.build())
    assert via_run.ipc == hand.ipc
    assert via_run.mpki == hand.mpki
    assert via_run.average_load_latency == hand.average_load_latency


def test_run_accepts_trace_config_and_corunners():
    t = make_trace("stream_like", seed=2, n_instructions=1500)
    r = repro.run(t, get_generation("M1"), corunners=3)
    assert r.generation == "M1" and r.ipc > 0


# ---------------------------------------------------------------------------
# Cache tiers
# ---------------------------------------------------------------------------

def test_memory_cache_serves_a_repeat_run():
    kwargs = dict(n_slices=2, slice_length=1000, seed=3,
                  generations=("M1",), cache="memory")
    first, _ = execute_population(**kwargs)
    again, stats = execute_population(**kwargs)
    assert stats.executed == 0
    assert stats.cache_hits == stats.tasks_total == 2
    assert again.metrics == first.metrics


def test_cache_off_recomputes_fresh_objects():
    kwargs = dict(n_slices=2, slice_length=1000, seed=3,
                  generations=("M1",))
    first = run_population(cache="off", **kwargs)
    again = run_population(cache="off", **kwargs)
    assert again is not first
    assert again.metrics == first.metrics


def test_disk_cache_skips_simulation_entirely(tmp_path, monkeypatch):
    calls = {"n": 0}
    orig = GenerationSimulator.run

    def counting_run(self, trace, **kwargs):
        calls["n"] += 1
        return orig(self, trace, **kwargs)

    monkeypatch.setattr(GenerationSimulator, "run", counting_run)
    kwargs = dict(n_slices=2, slice_length=1000, seed=13,
                  generations=("M1", "M3"))

    cold, cold_stats = execute_population(cache="disk", cache_dir=tmp_path,
                                          **kwargs)
    assert calls["n"] == 4  # 2 slices x 2 generations
    assert cold_stats.executed == 4 and cold_stats.cache_hits == 0

    clear_caches()  # drop every in-memory tier; only disk files remain
    warm, warm_stats = execute_population(cache="disk", cache_dir=tmp_path,
                                          **kwargs)
    assert calls["n"] == 4  # GenerationSimulator.run never invoked again
    assert warm_stats.executed == 0
    assert warm_stats.cache_hits == warm_stats.tasks_total == 4
    assert warm.metrics == cold.metrics


def test_disk_cache_respects_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_population(n_slices=1, slice_length=800, seed=5,
                   generations=("M1",), cache="disk")
    entries = list(tmp_path.glob("tasks/*/*.json"))
    assert len(entries) == 1


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = TaskCache("disk", cache_dir=tmp_path)
    fp = "ab" + "0" * 62
    cache.put(fp, {"x": 1.0})
    clear_caches()
    path = tmp_path / "tasks" / "ab" / (fp + ".json")
    path.write_text("{not json")
    assert cache.get(fp) is None
    assert not path.exists()  # corrupt entry dropped
    cache.put(fp, {"x": 2.0})
    clear_caches()
    assert cache.get(fp) == {"x": 2.0}


def test_task_cache_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TaskCache("sometimes")
    with pytest.raises(ValueError):
        run_population(n_slices=1, slice_length=500, cache="sometimes")


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------

def test_engine_stats_and_progress_reporting(tmp_path):
    seen = []
    engine_ = PopulationEngine(workers=1, cache="off",
                               progress=lambda d, t: seen.append((d, t)))
    m1 = get_generation("M1")
    payloads = [population_task(m1, TraceSpec("loop_kernel", s, 800))
                for s in (1, 2, 3)]
    rows, stats = engine_.run_payloads(payloads)
    assert [r["generation"] for r in rows] == ["M1"] * 3
    assert seen == [(1, 3), (2, 3), (3, 3)]
    assert stats.tasks_total == 3 and stats.executed == 3
    assert stats.tasks_per_second > 0
    assert "3 tasks" in stats.describe()


def test_ghist_tasks_match_legacy_sweep():
    from repro.harness import figure1_ghist_sweep
    from repro.traces import cbp5_suite
    points = (8, 120)
    legacy = figure1_ghist_sweep(
        ghist_points=points,
        traces=cbp5_suite(n_traces=2, trace_length=4000))
    engine_path = figure1_ghist_sweep(ghist_points=points, n_traces=2,
                                      trace_length=4000, cache="off")
    for bits in points:
        assert engine_path[bits] == pytest.approx(legacy[bits])


def test_workers_zero_resolves_to_cpu_count():
    e = PopulationEngine(workers=0, cache="off")
    assert e.workers >= 1


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------

def test_population_json_roundtrip():
    pop = run_population(n_slices=2, slice_length=1000, seed=21,
                         generations=("M2",), cache="off")
    back = population_from_json(population_to_json(pop))
    assert back.metrics == pop.metrics
    one = pop.metrics[0]
    assert metrics_from_dict(metrics_to_dict(one)) == one


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------

def test_run_population_reexported_everywhere():
    assert repro.run_population is engine.run_population


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_cli_population_workers_and_no_cache(capsys):
    from repro.__main__ import main
    rc = main(["population", "--slices", "2", "--length", "1000",
               "--workers", "2", "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FIG 17" in out and "summary:" in out


def test_cli_population_uses_disk_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.__main__ import main
    rc = main(["population", "--slices", "2", "--length", "1000"])
    assert rc == 0
    assert list(tmp_path.glob("tasks/*/*.json"))  # results persisted
    capsys.readouterr()


def test_cli_fig1_engine_flags(capsys):
    from repro.__main__ import main
    rc = main(["fig1", "--traces", "1", "--length", "3000", "--no-cache"])
    assert rc == 0
    assert "FIG 1" in capsys.readouterr().out
