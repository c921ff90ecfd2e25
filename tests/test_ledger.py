"""Run-ledger contracts: provenance records, bit-identity, CLI views.

The load-bearing invariants:

- ledger writes land beside results (``<cache_root>/ledger/``), never
  inside them — population archives are byte-identical with the ledger
  on or off;
- every ``run`` / ``execute_population`` appends one schema-stamped
  record (config + task fingerprints, knobs, phase breakdown, per-slice
  summary, archive digest);
- ledger IO failures never fail the run they describe.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine import execute_population, run
from repro.observe import ledger
from repro.observe.ledger import (LEDGER_SCHEMA_VERSION, append_record,
                                  compare_records, find_record, gc_ledger,
                                  ledger_enabled, ledger_path, read_ledger,
                                  record_id)
from repro.serialization import population_to_json

POP_KWARGS = dict(n_slices=2, slice_length=1500, seed=11,
                  generations=("M1", "M5"), cache="off")


# ---------------------------------------------------------------------------
# Enable/disable resolution
# ---------------------------------------------------------------------------

def test_ledger_enabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert ledger_enabled() is True


@pytest.mark.parametrize("value", ["0", "off", "no", "false", " OFF "])
def test_ledger_env_disables(monkeypatch, value):
    monkeypatch.setenv("REPRO_LEDGER", value)
    assert ledger_enabled() is False


def test_explicit_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    assert ledger_enabled(True) is True
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert ledger_enabled(False) is False


def test_ledger_path_honours_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert ledger_path() == tmp_path / "ledger" / "runs.jsonl"


# ---------------------------------------------------------------------------
# Record append / read / prune
# ---------------------------------------------------------------------------

def test_append_and_read_round_trip(tmp_path):
    record = {"id": "abc", "kind": "test", "n": 1}
    assert append_record(record, cache_dir=tmp_path) == "abc"
    append_record({"id": "def", "kind": "test", "n": 2},
                  cache_dir=tmp_path)
    records = read_ledger(tmp_path)
    assert [r["id"] for r in records] == ["abc", "def"]


def test_corrupt_lines_are_skipped_not_fatal(tmp_path):
    append_record({"id": "ok", "kind": "test"}, cache_dir=tmp_path)
    with open(ledger_path(tmp_path), "a") as f:
        f.write("{torn line\n[1, 2]\n\n")
    records = read_ledger(tmp_path)
    assert [r["id"] for r in records] == ["ok"]


def test_append_failure_returns_none(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file where the cache root should be")
    assert append_record({"id": "x"}, cache_dir=blocker) is None


def test_record_id_excludes_itself_and_is_stable():
    record = {"kind": "test", "n": 1}
    first = record_id(record)
    assert record_id({**record, "id": first}) == first
    assert record_id({**record, "n": 2}) != first
    assert len(first) == 12


def test_find_record_by_index_and_prefix():
    records = [{"id": "aaa111"}, {"id": "aab222"}, {"id": "ccc333"}]
    assert find_record(records, "1") == {"id": "ccc333"}  # newest
    assert find_record(records, "-3") == {"id": "aaa111"}
    assert find_record(records, "ccc") == {"id": "ccc333"}
    assert find_record(records, "aa") is None  # ambiguous prefix
    assert find_record(records, "aaa111") == {"id": "aaa111"}
    assert find_record(records, "9") is None
    assert find_record(records, "zzz") is None


def test_gc_keeps_newest(tmp_path):
    for i in range(5):
        append_record({"id": f"r{i}"}, cache_dir=tmp_path)
    assert gc_ledger(2, tmp_path) == 3
    assert [r["id"] for r in read_ledger(tmp_path)] == ["r3", "r4"]
    assert gc_ledger(2, tmp_path) == 0  # already pruned
    assert gc_ledger(0, tmp_path) == 2
    assert read_ledger(tmp_path) == []


def test_gc_locks_out_a_concurrent_append(tmp_path, monkeypatch):
    """A record another process appends while gc holds the ledger
    between its read and its replace waits for gc, then survives."""
    for i in range(3):
        append_record({"id": f"r{i}"}, cache_dir=tmp_path)
    src = str(Path(repro.__file__).resolve().parent.parent)
    script = ("import sys\n"
              "from repro.observe.ledger import append_record\n"
              "print('ready', flush=True)\n"
              "append_record({'id': 'late'}, cache_dir=sys.argv[1])\n")
    env = {**os.environ, "PYTHONPATH": src}
    rewrite = ledger.atomic_write
    blocked = []

    def rewrite_after_an_append(path, data):
        proc = subprocess.Popen([sys.executable, "-c", script,
                                 str(tmp_path)], env=env,
                                stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # ample time to append, were it not locked out
        blocked.append(proc.poll() is None)
        rewrite(path, data)
        blocked.append(proc)

    monkeypatch.setattr(ledger, "atomic_write", rewrite_after_an_append)
    assert gc_ledger(2, tmp_path) == 1
    still_running, proc = blocked
    assert proc.wait(timeout=60) == 0
    proc.stdout.close()
    assert still_running
    assert [r["id"] for r in read_ledger(tmp_path)] == ["r1", "r2", "late"]


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

def test_population_run_appends_provenance_record(tmp_path):
    pop, stats = execute_population(cache_dir=tmp_path, ledger=True,
                                    **POP_KWARGS)
    records = read_ledger(tmp_path)
    assert len(records) == 1
    record = records[0]
    assert record["schema"] == LEDGER_SCHEMA_VERSION
    assert record["kind"] == "population"
    assert record["params"]["n_slices"] == 2
    assert record["params"]["generations"] == ["M1", "M5"]
    assert set(record["config_fingerprints"]) == {"M1", "M5"}
    assert record["engine"]["tasks_total"] == stats.tasks_total
    assert record["engine"]["kind_stats"] == stats.kind_stats
    assert len(record["summary"]["slices"]) == 4
    assert set(record["summary"]["generations"]) == {"M1", "M5"}
    # The digest ties the record to the exact archive bytes.
    expected = hashlib.sha256(
        population_to_json(pop).encode("utf-8")).hexdigest()
    assert record["archive_digest"] == expected


def test_single_run_appends_record(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result = run(("specint_like", 3, 2000), "M4", ledger=True)
    records = read_ledger(tmp_path)
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "run"
    assert record["params"]["trace"]["family"] == "specint_like"
    assert record["summary"]["ipc"] == result.ipc
    assert record["engine"]["wall_seconds"] > 0.0


def test_archives_bit_identical_with_ledger_on_or_off(tmp_path):
    pop_on, _ = execute_population(cache_dir=tmp_path, ledger=True,
                                   **POP_KWARGS)
    pop_off, _ = execute_population(cache_dir=tmp_path, ledger=False,
                                    **POP_KWARGS)
    assert population_to_json(pop_on) == population_to_json(pop_off)
    # And the ledger lives beside the cache, not inside result payloads.
    assert ledger_path(tmp_path).exists()
    assert "ledger" not in population_to_json(pop_on)


def test_ledger_off_writes_nothing(tmp_path):
    execute_population(cache_dir=tmp_path, ledger=False, **POP_KWARGS)
    assert not ledger_path(tmp_path).exists()


def test_memo_hit_still_appends_record(tmp_path):
    kwargs = dict(POP_KWARGS, cache="memory")
    execute_population(cache_dir=tmp_path, ledger=True, **kwargs)
    execute_population(cache_dir=tmp_path, ledger=True, **kwargs)
    records = read_ledger(tmp_path)
    assert len(records) == 2
    # Identical results -> identical archive digests, distinct records.
    assert records[0]["archive_digest"] == records[1]["archive_digest"]
    assert records[1]["engine"]["kind_stats"]["population"]["hits"] == 4


def test_unwritable_ledger_never_fails_the_run(tmp_path):
    blocker = tmp_path / "cache-root"
    blocker.write_text("a file, so ledger mkdir fails")
    pop, _ = execute_population(cache_dir=blocker, ledger=True,
                                **POP_KWARGS)
    assert len(pop.metrics) == 4


# ---------------------------------------------------------------------------
# Record comparison
# ---------------------------------------------------------------------------

def test_compare_records_flags_drift(tmp_path):
    execute_population(cache_dir=tmp_path, ledger=True, **POP_KWARGS)
    execute_population(cache_dir=tmp_path, ledger=True,
                       **dict(POP_KWARGS, seed=12))
    a, b = read_ledger(tmp_path)
    comparison = compare_records(a, b)
    assert comparison["identical_results"] is False
    assert "seed" in comparison["params"]
    assert comparison["params"]["seed"]["delta"] == 1
    assert "archive_digest" in comparison["provenance"]


def test_compare_records_identical_reruns(tmp_path):
    for _ in range(2):
        execute_population(cache_dir=tmp_path, ledger=True, **POP_KWARGS)
    a, b = read_ledger(tmp_path)
    comparison = compare_records(a, b)
    assert comparison["identical_results"] is True
    assert comparison["params"] == {}
    assert comparison["provenance"] == {}
    # Engine cost may differ (wall clock) but results must not.
    assert "summary" in comparison and comparison["summary"] == {}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_runs_cli_list_show_compare_gc(tmp_path, capsys):
    from repro.cli.registry import main

    for _ in range(2):
        execute_population(cache_dir=tmp_path, ledger=True, **POP_KWARGS)
    cache = ["--cache-dir", str(tmp_path)]

    assert main(["runs", *cache, "list"]) == 0
    out = capsys.readouterr().out
    assert "2 ledger records" in out and "population" in out

    assert main(["runs", *cache, "show", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "population"

    assert main(["runs", *cache, "compare", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "results identical: yes" in out

    assert main(["runs", *cache, "show", "zzz"]) == 2
    capsys.readouterr()

    assert main(["runs", *cache, "gc", "--keep", "1"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert len(read_ledger(tmp_path)) == 1


def test_runs_cli_empty_ledger(tmp_path, capsys):
    from repro.cli.registry import main

    assert main(["runs", "--cache-dir", str(tmp_path), "list"]) == 0
    assert "empty" in capsys.readouterr().out
