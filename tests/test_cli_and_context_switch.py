"""CLI entry point and the Section V context-switch policy API."""

import pytest

from repro.__main__ import build_parser, main
from repro.config import get_generation
from repro.engine import clear_caches
from repro.engine.tasks import _TRACE_STATS
from repro.frontend import BranchUnit
from repro.security import ProcessContext, SecureFrontEndContext
from repro.traces import make_trace


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_simulate_runs(capsys):
    rc = main(["simulate", "--family", "loop_kernel", "--seed", "3",
               "--length", "3000", "--gen", "M5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "M5" in out and "IPC" in out


def test_cli_simulate_all_generations(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    compiled = _TRACE_STATS["compiled"]
    rc = main(["simulate", "--family", "stream_like", "--length", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    for g in ("M1", "M6"):
        assert g in out
    assert _TRACE_STATS["compiled"] == compiled + 1  # shared by all six


def test_cli_tables(capsys):
    rc = main(["tables"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out and "TABLE II" in out and "TABLE III" in out


def test_cli_families(capsys):
    rc = main(["families"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "web_like" in out and "btb_stress" in out


def test_cli_fig1_small(capsys):
    rc = main(["fig1", "--traces", "1", "--length", "4000"])
    assert rc == 0
    assert "FIG 1" in capsys.readouterr().out


def test_cli_parser_rejects_unknown_family():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--family", "nope"])


# ---------------------------------------------------------------------------
# Context-switch policies (Section V)
# ---------------------------------------------------------------------------

def test_context_switch_none_is_noop():
    unit = BranchUnit(get_generation("M5"))
    t = make_trace("loop_kernel", seed=1, n_instructions=3000)
    unit.run_trace(t)
    shp_before = unit.shp
    unit.context_switch("none")
    assert unit.shp is shp_before


def _geometry(unit):
    """Every structure's size and wiring: what a flush must not change."""
    shp, btb, vpc = unit.shp, unit.btb, unit.vpc
    return {
        "shp": (shp.n_tables, shp.rows, shp.ghist.bits, shp.phist.bits),
        "btb": (btb.mbtb.capacity_lines, btb.l2btb.capacity_lines,
                btb.vbtb_capacity, btb.l2btb_fill_latency,
                btb.l2btb_fill_bandwidth, btb.has_empty_line_opt),
        "ubtb": (unit.ubtb.capacity, unit.ubtb.uncond_capacity),
        "ras": unit.ras.entries,
        "vpc": (vpc.max_targets, vpc.hybrid_vpc_targets,
                vpc.vbtb_chain_slots,
                vpc.hash_table.entries if vpc.hash_table else 0,
                vpc.shp is shp),
        "accel": (unit.accel.has_1at, unit.accel.has_zat_zot,
                  unit.accel.btb is btb),
        "mrb": unit.mrb.capacity,
    }


def test_context_switch_flush_erases_state():
    unit = BranchUnit(get_generation("M5"))
    t = make_trace("loop_kernel", seed=1, n_instructions=3000)
    unit.run_trace(t)
    assert unit.btb.mbtb_entry_count > 0
    unit.context_switch("flush")
    assert unit.btb.mbtb_entry_count == 0
    assert unit.ubtb.node_count == 0
    assert not unit.ubtb.locked
    for gen in ("M1", "M5", "M6"):
        fresh = BranchUnit(get_generation(gen))
        flushed = BranchUnit(get_generation(gen))
        flushed.context_switch("flush")
        assert _geometry(flushed) == _geometry(fresh), gen


def test_context_switch_encrypt_installs_cipher():
    unit = BranchUnit(get_generation("M5"))
    ctx = SecureFrontEndContext(ProcessContext(asid=4))
    unit.context_switch("encrypt", encrypt=ctx.cipher.encrypt,
                        decrypt=ctx.cipher.decrypt)
    unit.ras.push(0x1234)
    assert unit.ras.pop() == 0x1234  # own context decrypts perfectly


def test_context_switch_encrypt_requires_cipher():
    unit = BranchUnit(get_generation("M5"))
    with pytest.raises(ValueError):
        unit.context_switch("encrypt")


def test_context_switch_unknown_mode():
    unit = BranchUnit(get_generation("M5"))
    with pytest.raises(ValueError):
        unit.context_switch("partition")


def test_flush_costs_retraining_bubbles():
    """Re-running the same kernel after a flush pays discovery again."""
    t = make_trace("loop_kernel", seed=5, n_instructions=4000)

    unit_keep = BranchUnit(get_generation("M5"))
    unit_keep.run_trace(t)
    warm_redirects = unit_keep.stats.btb_miss_redirects
    unit_keep.run_trace(t)
    second_pass_keep = unit_keep.stats.btb_miss_redirects - warm_redirects

    unit_flush = BranchUnit(get_generation("M5"))
    unit_flush.run_trace(t)
    mid = unit_flush.stats.btb_miss_redirects
    unit_flush.context_switch("flush")
    unit_flush.run_trace(t)
    second_pass_flush = unit_flush.stats.btb_miss_redirects - mid

    assert second_pass_flush > second_pass_keep
