"""Report generation and assorted edge cases."""

import pytest

from repro.__main__ import main
from repro.config import get_generation
from repro.frontend.mrb import MispredictRecoveryBuffer
from repro.frontend.vpc import VPCPredictor
from repro.frontend.shp import ScaledHashedPerceptron
from repro.engine import run_population
from repro.harness import build_report
from repro.memory.cache import SetAssocCache
from repro.power import EnergyLedger
from repro.traces.generator import ProgramWalker
from repro.traces.program import (
    BasicBlock,
    Program,
    RetTerminator,
    TemplateOp,
    UncondTerminator,
)
from repro.traces.types import Kind


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_pop():
    return run_population(n_slices=6, slice_length=4000, seed=77)


def test_build_report_contains_all_sections(small_pop):
    text = build_report(population=small_pop, include_fig1=False)
    for marker in ("TABLE I", "TABLE II", "TABLE III", "TABLE IV",
                   "FIG 9", "FIG 16", "FIG 17", "Headline summary"):
        assert marker in text


def test_build_report_with_fig1(small_pop):
    text = build_report(population=small_pop, include_fig1=True,
                        fig1_traces=1)
    assert "FIG 1" in text


def test_cli_report_to_file(tmp_path, capsys):
    out = tmp_path / "r.md"
    rc = main(["report", "--slices", "4", "--length", "2000",
               "--no-fig1", "--out", str(out)])
    assert rc == 0
    assert "TABLE IV" in out.read_text()


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_mrb_new_recording_supersedes_old():
    mrb = MispredictRecoveryBuffer(entries=4)
    mrb.start_recording(0x1)
    mrb.observe_fetch_address(0xA)
    mrb.start_recording(0x2)  # new mispredict before the first completes
    for a in (0xB, 0xC, 0xD):
        mrb.observe_fetch_address(a)
    assert not mrb.begin_replay(0x1)  # first recording was abandoned
    assert mrb.begin_replay(0x2)


def test_vpc_update_without_predict():
    """Training-only flows (e.g. cold decode) must be safe."""
    vpc = VPCPredictor(ScaledHashedPerceptron(2, 128))
    vpc.update(0x10, 0x100)
    vpc.update(0x10, 0x100)
    assert vpc.chain_length(0x10) == 1


def test_cache_insert_lru_into_empty_set():
    c = SetAssocCache(4 * 64, 4)
    c.fill(0x0, insert_lru=True)  # no peers: degenerates to plain insert
    assert c.contains(0x0)


def test_energy_ledger_custom_table():
    led = EnergyLedger({"thing": 2.0})
    led.record("thing", 3)
    assert led.energy() == 6.0
    with pytest.raises(KeyError):
        led.record("decode")  # not in the custom table


def test_walker_ret_underflow_goes_to_entry():
    blocks = [
        BasicBlock([TemplateOp(Kind.ALU)], RetTerminator()),
        BasicBlock([TemplateOp(Kind.ALU)], UncondTerminator(0)),
    ]
    program = Program(blocks, name="retloop")
    w = ProgramWalker(program, seed=0)
    t = w.walk(50)
    rets = [r for r in t if r.kind == Kind.BR_RET]
    assert rets
    # Underflowed returns restart at block 0 (the program entry).
    assert all(r.target == blocks[0].pc for r in rets)


def test_shp_update_without_prior_predict():
    shp = ScaledHashedPerceptron(2, 128)
    shp.update(0x40, True)  # internally re-predicts; must not crash
    shp.update(0x40, False)
    assert shp._seen_not_taken[0x40]


def test_generation_config_frozen():
    cfg = get_generation("M1")
    with pytest.raises(Exception):
        cfg.width = 12  # frozen dataclass


def test_program_requires_blocks():
    with pytest.raises(ValueError):
        Program([], name="empty")
