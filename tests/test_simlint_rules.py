"""Fixture tests for the simlint rules (repro.analysis).

Each SIM00x rule gets at least one known-bad snippet that must fire and
one known-good snippet that must stay quiet; path-scoped rules (SIM002,
SIM008, SIM010) are additionally exercised on both sides of their
allowlists.  SIM006, the project-level cache-key completeness rule, is
covered both as a unit (``uncovered_fields`` against a deliberately
stale fingerprint) and end-to-end (a leaky ``config_to_dict`` makes the
real engine fingerprint miss a field and the rule must catch it).
"""

from __future__ import annotations

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_source, run_lint
from repro.analysis.config import path_matches
from repro.analysis.project import (CacheKeyCompletenessRule,
                                    iter_field_perturbations,
                                    uncovered_fields)
from repro.config import M1, GenerationConfig

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def check(source, rule, path="<snippet>.py", config=None):
    """Lint a dedented snippet with exactly one rule selected."""
    return lint_source(textwrap.dedent(source), path=path, config=config,
                       select=[rule])


# ---------------------------------------------------------------------------
# SIM001: unseeded/global random
# ---------------------------------------------------------------------------

def test_sim001_fires_on_global_random():
    bad = """\
        import random
        x = random.random()
        y = random.randint(0, 7)
    """
    found = check(bad, "SIM001")
    assert [f.rule for f in found] == ["SIM001", "SIM001"]
    assert "process-global RNG" in found[0].message


def test_sim001_sees_through_aliases():
    assert check("import random as rnd\nx = rnd.choice([1, 2])\n", "SIM001")
    assert check("from random import shuffle\nshuffle([1, 2])\n", "SIM001")


def test_sim001_fires_on_unseeded_instances():
    assert check("import random\nr = random.Random()\n", "SIM001")
    assert check("import random\nr = random.SystemRandom()\n", "SIM001")


def test_sim001_quiet_on_seeded_instance():
    good = """\
        import random
        rng = random.Random(7)
        x = rng.random()
        y = rng.randint(0, 7)
    """
    assert check(good, "SIM001") == []


# ---------------------------------------------------------------------------
# SIM002: wall clock outside the allowlist
# ---------------------------------------------------------------------------

def test_sim002_fires_outside_allowlist():
    bad = "import time\nt0 = time.perf_counter()\n"
    found = check(bad, "SIM002", path="src/repro/core/simulator.py")
    assert [f.rule for f in found] == ["SIM002"]
    assert "wall clock" in found[0].message


def test_sim002_fires_on_datetime_now():
    bad = "import datetime\nstamp = datetime.datetime.now()\n"
    assert check(bad, "SIM002")


def test_sim002_quiet_in_allowlisted_engine_stats():
    good = "import time\nt0 = time.perf_counter()\n"
    assert check(good, "SIM002", path="src/repro/engine/runner.py") == []


def test_sim002_quiet_on_sleep():
    # time.sleep changes wall time, not results; it is not a clock *read*.
    assert check("import time\ntime.sleep(1)\n", "SIM002") == []


# ---------------------------------------------------------------------------
# SIM003: builtin hash()
# ---------------------------------------------------------------------------

def test_sim003_fires_on_builtin_hash():
    found = check("key = hash(('pc', 4096))\n", "SIM003")
    assert [f.rule for f in found] == ["SIM003"]
    assert "PYTHONHASHSEED" in found[0].message


def test_sim003_quiet_on_hashlib_and_methods():
    good = """\
        import hashlib
        digest = hashlib.sha256(b"pc").hexdigest()
        class T:
            def hash(self):
                return 0
        t = T()
        v = t.hash()
    """
    assert check(good, "SIM003") == []


# ---------------------------------------------------------------------------
# SIM004: ordering-sensitive consumption of unordered containers
# ---------------------------------------------------------------------------

def test_sim004_fires_on_set_iteration():
    assert check("for x in {1, 2, 3}:\n    print(x)\n", "SIM004")
    assert check("vals = [x for x in set(range(9))]\n", "SIM004")


def test_sim004_fires_on_order_sensitive_consumers():
    assert check("order = list({1, 2})\n", "SIM004")
    assert check("total = sum(set([1.5, 2.5]))\n", "SIM004")
    assert check("s = ','.join({'a', 'b'})\n", "SIM004")


def test_sim004_fires_on_sum_over_dict_values():
    found = check("total = sum(d.values())\n", "SIM004")
    assert [f.rule for f in found] == ["SIM004"]
    assert "math.fsum" in found[0].message


def test_sim004_quiet_on_sanctioned_forms():
    good = """\
        import math
        s = {3, 1, 2}
        for x in sorted(s):
            print(x)
        n = len(s)
        ok = 2 in s
        total = math.fsum(d.values())
        total2 = sum(v for _, v in sorted(d.items()))
    """
    assert check(good, "SIM004") == []


# ---------------------------------------------------------------------------
# SIM008: pickle/eval outside the serialization module
# ---------------------------------------------------------------------------

def test_sim008_fires_on_pickle_import():
    assert check("import pickle\n", "SIM008",
                 path="src/repro/engine/cache.py")
    assert check("from pickle import dumps\n", "SIM008",
                 path="src/repro/engine/cache.py")
    assert check("import marshal\n", "SIM008")


def test_sim008_fires_on_eval_exec():
    found = check("cfg = eval(open('c.txt').read())\n", "SIM008")
    assert [f.rule for f in found] == ["SIM008"]
    assert "literal_eval" in found[0].message
    assert check("exec(code)\n", "SIM008")


def test_sim008_quiet_in_serialization_module():
    assert check("import pickle\n", "SIM008",
                 path="src/repro/serialization.py") == []


def test_sim008_quiet_on_json_and_literal_eval():
    good = """\
        import ast
        import json
        cfg = json.loads(text)
        lit = ast.literal_eval(text)
    """
    assert check(good, "SIM008") == []


# ---------------------------------------------------------------------------
# SIM010: plain sum() over float series in aggregation layers
# ---------------------------------------------------------------------------

FSUM_PATH = "src/repro/harness/figures.py"


def test_sim010_fires_on_float_sums_in_fsum_paths():
    found = check("m = sum(vals) / len(vals)\n", "SIM010", path=FSUM_PATH)
    assert [f.rule for f in found] == ["SIM010"]
    assert found[0].severity == "warning"
    assert "math.fsum" in found[0].message
    assert check("t = sum(r['mpki'] for r in rows)\n", "SIM010",
                 path=FSUM_PATH)
    assert check("s = sum([a / b for a, b in pairs])\n", "SIM010",
                 path=FSUM_PATH)


def test_sim010_fires_on_float_start_value():
    assert check("s = sum((len(x) for x in xs), 0.0)\n", "SIM010",
                 path=FSUM_PATH)


def test_sim010_quiet_on_provably_integral_sums():
    good = """\
        n = sum(len(t) for t in traces)
        ones = sum(1 for t in traces if t)
        total = sum((len(t) for t in traces), 0)
        mix = sum(len(t) * 2 - 1 for t in traces)
    """
    assert check(good, "SIM010", path=FSUM_PATH) == []


def test_sim010_quiet_outside_fsum_paths():
    assert check("m = sum(vals) / len(vals)\n", "SIM010",
                 path="src/repro/core/scoreboard.py") == []


def test_sim010_defers_set_and_values_sums_to_sim004():
    src = "a = sum({1.0, 2.0})\nb = sum(d.values())\n"
    assert check(src, "SIM010", path=FSUM_PATH) == []
    assert check(src, "SIM004", path=FSUM_PATH)


# ---------------------------------------------------------------------------
# SIM011: implicit iteration-order reads
# ---------------------------------------------------------------------------

def test_sim011_fires_on_bare_popitem():
    found = check("k, v = d.popitem()\n", "SIM011")
    assert [f.rule for f in found] == ["SIM011"]
    assert found[0].severity == "error"
    assert "last=" in found[0].message


def test_sim011_fires_on_next_iter():
    found = check("first = next(iter(d))\n", "SIM011")
    assert [f.rule for f in found] == ["SIM011"]
    assert "sorted" in found[0].message
    assert check("first = next(iter(d), None)\n", "SIM011")
    assert check("pair = next(iter(d.items()))\n", "SIM011")


def test_sim011_quiet_on_explicit_end_and_sorted():
    good = """\
        oldest = table.popitem(last=False)
        newest = table.popitem(last=True)
        first = next(iter(sorted(d)))
        last = next(iter(reversed(sorted(d))))
        nxt = next(gen)
    """
    assert check(good, "SIM011") == []


def test_sim011_repo_is_clean():
    report = run_lint([SRC_ROOT], select=["SIM011"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------

def test_line_suppression_silences_named_rule():
    src = "import random\nx = random.random()  # simlint: disable=SIM001\n"
    assert lint_source(src, select=["SIM001"]) == []


def test_line_suppression_is_rule_specific():
    src = "import random\nx = random.random()  # simlint: disable=SIM003\n"
    assert lint_source(src, select=["SIM001"])


def test_blanket_line_suppression():
    src = "key = hash(x)  # simlint: disable\n"
    assert lint_source(src, select=["SIM003"]) == []


def test_file_suppression():
    src = ("# simlint: disable-file=SIM001\n"
           "import random\n"
           "x = random.random()\n"
           "key = hash(x)\n")
    found = lint_source(src, select=["SIM001", "SIM003"])
    assert [f.rule for f in found] == ["SIM003"]  # only SIM001 is filed off


def test_path_matches_prefix_semantics():
    assert path_matches("src/repro/engine/cache.py", ("src/repro/engine",))
    assert path_matches("src/repro/engine", ("src/repro/engine",))
    assert not path_matches("src/repro/engineered.py", ("src/repro/engine",))


# ---------------------------------------------------------------------------
# SIM006: cache-key completeness (unit level)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ExtendedConfig(GenerationConfig):
    """A generation config grown by one field, as a design study would."""

    widget_knob: int = 0


def _extended():
    return ExtendedConfig(name="MX", year_index=7, process_node="4nm",
                          product_frequency_ghz=2.9, widget_knob=3)


def _stale_fingerprint(cfg):
    """A fingerprint frozen to GenerationConfig's original field list —
    exactly the bug SIM006 exists to catch."""
    payload = {f.name: getattr(cfg, f.name)
               for f in dataclasses.fields(GenerationConfig)}
    return json.dumps(payload, sort_keys=True, default=str)


def _complete_fingerprint(cfg):
    """The shipped approach: asdict() discovers every field dynamically."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=list)


def test_sim006_detects_field_missing_from_fingerprint():
    assert uncovered_fields([_extended()], _stale_fingerprint) \
        == ["widget_knob"]


def test_sim006_passes_when_fingerprint_covers_every_field():
    assert uncovered_fields([_extended()], _complete_fingerprint) == []
    assert uncovered_fields([M1], _complete_fingerprint) == []


def test_sim006_perturbations_visit_nested_fields():
    paths = {p for p, _ in iter_field_perturbations(M1)}
    assert "rob_size" in paths
    assert "branch.shp_rows" in paths
    assert "prefetch.max_degree" in paths
    assert "memlat.dram_base_latency" in paths
    variants = dict(iter_field_perturbations(M1))
    assert variants["rob_size"].rob_size == M1.rob_size + 1
    assert variants["branch.shp_rows"].branch.shp_rows \
        == M1.branch.shp_rows + 1
    # the variant changes exactly that one field
    assert variants["rob_size"].branch == M1.branch


# ---------------------------------------------------------------------------
# SIM006 end to end: the real engine fingerprint with a hole punched in it
# ---------------------------------------------------------------------------

def _engine_paths():
    return [SRC_ROOT / "repro" / "engine" / "tasks.py",
            SRC_ROOT / "repro" / "config.py",
            SRC_ROOT / "repro" / "serialization.py"]


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_sim006_quiet_on_shipped_engine():
    result = run_lint(_engine_paths(), select=["SIM006"])
    assert result.parse_errors == []
    assert result.findings == []


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_sim006_fires_when_config_field_leaks_from_fingerprint(monkeypatch):
    import repro.engine.tasks as tasks_mod
    real = tasks_mod.config_to_dict

    def leaky(cfg):
        payload = real(cfg)
        payload.pop("rob_size", None)  # the simulated forgotten field
        return payload

    monkeypatch.setattr(tasks_mod, "config_to_dict", leaky)
    result = run_lint(_engine_paths(), select=["SIM006"])
    messages = [f.message for f in result.findings]
    assert any("rob_size" in m for m in messages), messages
    assert all(f.rule == "SIM006" for f in result.findings)
    # findings anchor on the fingerprint definition they indict
    assert result.findings[0].path.endswith("repro/engine/tasks.py")


def test_sim006_rule_reports_harness_breakage_instead_of_crashing():
    rule = CacheKeyCompletenessRule()

    class FakeCtx:
        relpath = "src/repro/engine/tasks.py"
        lines = ["def task_fingerprint(payload):"]

    boom = rule._check  # force the protective wrapper

    def exploding(ctxs):
        raise RuntimeError("harness mid-refactor")

    rule._check = exploding
    try:
        found = list(rule.check_project([FakeCtx()], LintConfig()))
    finally:
        rule._check = boom
    assert len(found) == 1
    assert "could not evaluate" in found[0].message
