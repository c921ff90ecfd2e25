"""Telemetry contracts: pure observation, live state, hang detection.

The load-bearing invariants:

- telemetry is scheduling-only: population archives are byte-identical
  with telemetry on or off, serial or ``workers=2``;
- heartbeats ride the existing executor result channel (no side
  channel): done counts, cache splits, throughput, and ETA all derive
  from them;
- a worker silent past ``hang_threshold`` trips a *suspected hung*
  warning — exactly once per silent episode — without affecting
  results;
- the ``--status-file`` JSON is atomically rewritten and schema'd.
"""

import json
import time

import pytest

from repro.engine import execute_population
from repro.observe.telemetry import (TELEMETRY_SCHEMA_VERSION,
                                     TelemetryConfig, TelemetryMonitor,
                                     write_status_file)
from repro.serialization import population_to_json

POP_KWARGS = dict(n_slices=2, slice_length=1500, seed=17,
                  generations=("M1", "M5"), cache="off", ledger=False)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def _monitor(total=4, workers=1, config=None, clock=None):
    return TelemetryMonitor(total, workers=workers, config=config,
                            clock=clock or FakeClock())


# ---------------------------------------------------------------------------
# Monitor state machine (virtual clock)
# ---------------------------------------------------------------------------

def test_on_result_accounting_and_throughput():
    clock = FakeClock()
    m = _monitor(total=4, clock=clock)
    clock.now += 2.0
    m.on_result(1.5, instructions=1000)
    m.on_result(0.0, cached=True)
    assert m.done == 2 and m.executed == 1 and m.cached == 1
    assert m.instructions == 1000
    assert m.tasks_per_second() == pytest.approx(1.0)
    assert m.instructions_per_second() == pytest.approx(500.0)


def test_eta_projects_from_executed_tasks_only():
    m = _monitor(total=4, workers=2)
    assert m.eta_seconds() is None  # nothing executed yet
    m.on_result(0.0, cached=True)
    assert m.eta_seconds() is None  # cache hits predict nothing
    m.on_result(3.0)
    # 2 remaining * 3s each / 2 workers
    assert m.eta_seconds() == pytest.approx(3.0)
    m.on_result(1.0)
    m.on_result(1.0)
    assert m.eta_seconds() == 0.0


def test_suspected_hung_and_single_warning_per_episode():
    clock = FakeClock()
    emitted = []
    config = TelemetryConfig(hang_threshold=5.0, emit=emitted.append)
    m = _monitor(total=2, config=config, clock=clock)
    m.on_result(0.1)
    assert m.suspected_hung() is False

    clock.now += 10.0  # one task outstanding, channel silent
    assert m.suspected_hung() is True
    m.poll()
    m.poll()  # same episode: no second warning
    assert len(m.warnings) == 1
    assert "worker suspected hung" in m.warnings[0]
    assert emitted == m.warnings

    m.on_result(0.1)  # activity clears it
    assert m.suspected_hung() is False
    assert m.finished is False


def test_no_hang_flag_when_done_or_finished():
    clock = FakeClock()
    config = TelemetryConfig(hang_threshold=1.0)
    m = _monitor(total=1, config=config, clock=clock)
    m.on_result(0.1)
    clock.now += 100.0
    assert m.suspected_hung() is False  # all tasks done
    m.poll()
    assert m.warnings == []


def test_status_document_schema():
    clock = FakeClock()
    m = _monitor(total=2, workers=2, clock=clock)
    m.on_result(1.0, instructions=500)
    clock.now += 2.0
    doc = m.status()
    assert doc["schema"] == TELEMETRY_SCHEMA_VERSION
    assert doc["state"] == "running"
    assert doc["total"] == 2 and doc["done"] == 1
    assert doc["workers"] == 2
    assert doc["instructions"] == 500
    assert doc["elapsed_seconds"] == pytest.approx(2.0)
    m.finish()
    assert m.status()["state"] == "done"


def test_render_line_mentions_progress_and_eta():
    m = _monitor(total=4)
    m.on_result(2.0)
    line = m.render_line()
    assert "1/4 tasks" in line and "eta" in line


def test_write_status_file_atomic_and_readable(tmp_path):
    path = tmp_path / "status.json"
    write_status_file(path, {"b": 2, "a": 1})
    assert json.loads(path.read_text()) == {"a": 1, "b": 2}
    assert list(tmp_path.iterdir()) == [path]  # no temp litter
    # Failures are swallowed, never raised.
    write_status_file(tmp_path / "no-dir" / "x.json", {"a": 1})


# ---------------------------------------------------------------------------
# Engine integration: bit-identity and the status file
# ---------------------------------------------------------------------------

def test_results_bit_identical_with_telemetry_on_off_serial_workers():
    baseline, _ = execute_population(workers=1, **POP_KWARGS)
    config = TelemetryConfig(poll_interval=0.01)
    with_tel, _ = execute_population(workers=1, telemetry=config,
                                     **POP_KWARGS)
    sharded, _ = execute_population(workers=2, telemetry=config,
                                    **POP_KWARGS)
    expected = population_to_json(baseline)
    assert population_to_json(with_tel) == expected
    assert population_to_json(sharded) == expected


def test_engine_fills_monitor_and_status_file(tmp_path):
    from repro.engine.runner import PopulationEngine

    status = tmp_path / "status.json"
    config = TelemetryConfig(status_file=str(status), poll_interval=0.01)
    engine = PopulationEngine(workers=1, cache="off", telemetry=config)
    from repro.config import get_generation
    from repro.engine.tasks import population_task
    from repro.traces import TraceSpec

    payloads = [population_task(get_generation("M1"),
                                TraceSpec("specint_like", s, 1500))
                for s in (1, 2)]
    _rows, stats = engine.run_payloads(payloads)
    monitor = engine.last_monitor
    assert monitor is not None
    assert monitor.finished is True
    assert monitor.done == monitor.total == 2
    assert monitor.executed == stats.executed == 2
    assert monitor.instructions == 3000
    doc = json.loads(status.read_text())
    assert doc["state"] == "done" and doc["done"] == 2


def test_cache_hits_report_as_cached_heartbeats(tmp_path):
    kwargs = dict(POP_KWARGS, cache="disk")
    execute_population(cache_dir=tmp_path, **kwargs)
    from repro.engine.runner import PopulationEngine  # noqa: F401
    config = TelemetryConfig()
    _pop, stats = execute_population(cache_dir=tmp_path,
                                     telemetry=config, **kwargs)
    assert stats.cache_hits == stats.tasks_total == 4


# ---------------------------------------------------------------------------
# Hung-worker detection end to end (deliberately slow injected task)
# ---------------------------------------------------------------------------

def _slow_heartbeat(payload):
    """A deliberately slow task wrapper: stalls the result channel long
    enough for the watchdog to flag it, then runs the real task."""
    from repro.engine.tasks import execute_task_heartbeat

    time.sleep(0.25)
    return execute_task_heartbeat(payload)


@pytest.mark.parametrize("workers", [1, 2])
def test_slow_task_trips_hang_warning_without_affecting_results(
        monkeypatch, workers):
    from repro.engine import runner as runner_mod

    baseline, _ = execute_population(workers=1, **POP_KWARGS)

    # The patched entry point propagates to pool workers (fork start
    # method) and pickles by qualified name from this module.
    monkeypatch.setattr(runner_mod, "execute_task_heartbeat",
                        _slow_heartbeat)
    warnings = []
    config = TelemetryConfig(hang_threshold=0.05, poll_interval=0.01,
                             emit=warnings.append)
    pop, _stats = execute_population(workers=workers, telemetry=config,
                                     **POP_KWARGS)

    assert population_to_json(pop) == population_to_json(baseline)
    assert warnings, "watchdog never flagged the stalled channel"
    assert any("worker suspected hung" in w for w in warnings)
