"""Scaled Hashed Perceptron behaviour (Section IV-A)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.frontend import BranchUnit
from repro.frontend.history import fold_bits, mix_segment, pc_hash
from repro.frontend.lhp import LocalHashedPerceptron
from repro.frontend.shp import (
    BIAS_MAX,
    ScaledHashedPerceptron,
    WEIGHT_MAX,
    WEIGHT_MIN,
)
from repro.frontend.vpc import virtual_pc
from repro.state import to_pairs
from repro.traces import TraceSpec
from repro.traces.compiled import compile_trace
from repro.traces.types import Kind, Trace, TraceRecord


def _train(shp, pc, outcomes):
    """Run the predict/update/history loop; return accuracy."""
    correct = 0
    for taken in outcomes:
        pred = shp.predict(pc)
        if pred[0] == taken:
            correct += 1
        shp.update(pc, taken, pred)
        shp.push_history(pc, True, taken)
    return correct / len(outcomes)


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ScaledHashedPerceptron(0, 1024)
    with pytest.raises(ValueError):
        ScaledHashedPerceptron(8, 1000)  # not a power of two


def test_learns_heavily_biased_branch():
    shp = ScaledHashedPerceptron(4, 256, ghist_bits=32, phist_bits=16)
    outcomes = [True] * 50 + ([False] + [True] * 9) * 10
    acc = _train(shp, 0x4000, outcomes)
    assert acc > 0.85


def test_always_taken_filter_keeps_weights_clean():
    """Always-taken branches must not touch the weight tables."""
    shp = ScaledHashedPerceptron(4, 256)
    before = [list(t) for t in shp.tables]
    _train(shp, 0x8000, [True] * 100)
    assert [list(t) for t in shp.tables] == before
    assert shp.filtered_lookups > 0


def test_filter_exits_on_first_not_taken():
    shp = ScaledHashedPerceptron(4, 256)
    _train(shp, 0x8000, [True] * 20)
    filtered = shp.filtered_lookups
    pred = shp.predict(0x8000)
    assert shp.filtered_lookups == filtered + 1  # in the filter state
    shp.update(0x8000, False, pred)
    shp.push_history(0x8000, True, False)
    shp.predict(0x8000)
    assert shp.filtered_lookups == filtered + 1


def test_learns_short_pattern_from_global_history():
    """A TTN loop pattern is linearly separable given its own history."""
    shp = ScaledHashedPerceptron(8, 1024, ghist_bits=64, phist_bits=32)
    pattern = ([True, True, False] * 100)
    acc_late = 0
    for i, taken in enumerate(pattern):
        pred = shp.predict(0x1000)
        if i >= len(pattern) // 2 and pred[0] == taken:
            acc_late += 1
        shp.update(0x1000, taken, pred)
        shp.push_history(0x1000, True, taken)
    assert acc_late / (len(pattern) // 2) > 0.9


def test_long_loop_needs_long_ghist():
    """The Figure 1 mechanism: a trip-48 loop exit is predictable only
    when the GHIST range covers the run length."""
    def loop_accuracy(ghist_bits):
        shp = ScaledHashedPerceptron(8, 1024, ghist_bits=ghist_bits,
                                     phist_bits=16)
        exits = hits = 0
        for rep in range(160):
            for i in range(48):
                taken = i != 47
                pred = shp.predict(0x2000)
                if not taken and rep > 100:
                    exits += 1
                    hits += pred[0] == taken
                shp.update(0x2000, taken, pred)
                shp.push_history(0x2000, True, taken)
        return hits / max(1, exits)

    assert loop_accuracy(96) > loop_accuracy(8) + 0.4


def test_bias_weight_doubled_in_sum():
    shp = ScaledHashedPerceptron(4, 256)
    shp._bias[0x300] = 5
    shp._seen_not_taken[0x300] = True
    _, total, indices = shp.predict(0x300)
    table_sum = sum(shp.tables[t][i] for t, i in enumerate(indices))
    assert total == table_sum + 10


def test_weights_saturate():
    shp = ScaledHashedPerceptron(2, 128, ghist_bits=8, phist_bits=8)
    shp.theta = 10**9  # force update on every branch
    for _ in range(400):
        pred = shp.predict(0x40)
        shp.update(0x40, True, pred)
        shp.push_history(0x40, True, True)
        # keep filter off
        shp._seen_not_taken[0x40] = True
    assert all(WEIGHT_MIN <= w <= WEIGHT_MAX
               for t in shp.tables for w in t)
    assert shp._bias[0x40] <= BIAS_MAX


def test_threshold_adapts_upward_on_mispredicts():
    shp = ScaledHashedPerceptron(4, 256, ghist_bits=16, phist_bits=8)
    theta0 = shp.theta
    import random
    rng = random.Random(0)
    for _ in range(4000):
        taken = rng.random() < 0.5
        pred = shp.predict(0x900)
        shp.update(0x900, taken, pred)
        shp.push_history(0x900, True, taken)
    assert shp.theta != theta0  # O-GEHL threshold moved


def test_storage_bits_matches_geometry():
    shp = ScaledHashedPerceptron(8, 1024)
    assert shp.storage_bits == 8 * 1024 * 8  # 8KB, Table II M1 SHP column


# ---------------------------------------------------------------------------
# The table indices equal the hash formula
# ---------------------------------------------------------------------------

def _shp_indices(shp, pc):
    """Per table: mixed GHIST and PHIST segments XOR the PC hash."""
    rows = []
    for t in range(shp.n_tables):
        glo, ghi = shp.ghist_intervals[t]
        plo, phi = shp.phist_intervals[t]
        g = mix_segment(shp.ghist.segment(glo, ghi), ghi - glo,
                        shp.index_bits, salt=t + 1)
        p = mix_segment(shp.phist.segment(plo, phi), phi - plo,
                        shp.index_bits, salt=0x40 + t)
        h = pc_hash(pc, shp.index_bits, salt=(t + 1) * 0x51 + shp.seed_salt)
        rows.append((g ^ p ^ h) & (shp.rows - 1))
    return tuple(rows)


def _lhp_indices(lhp, pc, lhist):
    """Per table: the folded local-history segment XOR the PC hash."""
    rows = []
    for t, (lo, hi) in enumerate(lhp.intervals):
        seg = (lhist >> lo) & ((1 << (hi - lo)) - 1)
        h = fold_bits(seg, hi - lo, lhp.index_bits)
        p = pc_hash(pc, lhp.index_bits, salt=(t + 3) * 0x2B)
        rows.append((h ^ p) & (lhp.rows - 1))
    return tuple(rows)


_PCS = st.integers(min_value=0, max_value=(1 << 20) - 1).map(
    lambda x: 0x400000 + 4 * x)


#: A branch stream: (kind, pc pool index, taken) per branch, each after
#: 0-2 ALU records.  A small PC pool makes branches recur.
_KINDS = (Kind.BR_COND, Kind.BR_COND, Kind.BR_COND, Kind.BR_UNCOND,
          Kind.BR_CALL, Kind.BR_RET, Kind.BR_INDIRECT,
          Kind.BR_INDIRECT_CALL)
_STREAMS = st.lists(st.tuples(st.sampled_from(_KINDS),
                              st.integers(0, 11), st.booleans(),
                              st.integers(0, 2)),
                    min_size=1, max_size=48)
#: (tables, rows, GHIST bits): M1, M5, and a GHIST wider than 256 bits.
_GEOMETRIES = {"M1": (8, 1024, 165), "M5": (16, 2048, 206),
               "wide": (8, 1024, 330)}


def _compiled(stream, pcs):
    records = []
    for kind, which, taken, gap in stream:
        pc = pcs[which]
        records += [TraceRecord(pc=pc - 4 * (i + 1), kind=Kind.ALU)
                    for i in range(gap)]
        taken = taken if kind == Kind.BR_COND else True
        records.append(TraceRecord(pc=pc, kind=kind, taken=taken,
                                   target=pc + 0x40 if taken else 0))
    return compile_trace(Trace("stream", "test", records))


@pytest.mark.parametrize("start", ["zero", "resumed", "unbound"])
@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
@settings(max_examples=20, deadline=None)
@given(pcs=st.lists(_PCS, min_size=12, max_size=12, unique=True),
       history=st.tuples(st.integers(0, (1 << 330) - 1),
                         st.integers(0, (1 << 80) - 1)),
       stream=_STREAMS)
def test_shp_indices_match_the_hash_formula(geometry, start, pcs, history,
                                            stream):
    tables, rows, ghist_bits = _GEOMETRIES[geometry]
    shp = ScaledHashedPerceptron(tables, rows, ghist_bits=ghist_bits,
                                 seed_salt=3)
    if start != "zero":  # as restored from a checkpoint: any history
        shp.ghist.restore(history[0])
        shp.phist.restore(history[1])
    trace = _compiled(stream, pcs)
    if start != "unbound":
        shp.bind(trace)
    for rec in trace.branch_records():
        if rec is None:
            continue
        for pc in (rec.pc, virtual_pc(rec.pc, 0), virtual_pc(rec.pc, 4)):
            assert tuple(shp._indices(pc)) == _shp_indices(shp, pc)
        if rec.is_conditional:
            shp.update(rec.pc, rec.taken, shp.predict(rec.pc))
        shp.push_history(rec.pc, rec.is_conditional, rec.taken)
    assert shp._stream is None  # the binding ends with its stream


def _slot(lhp, pc):
    return pc_hash(pc, lhp.history_entries.bit_length() - 1, salt=0x77)


@pytest.mark.parametrize("start", ["zero", "resumed", "unbound"])
@settings(max_examples=30, deadline=None)
@given(pcs=st.lists(_PCS, min_size=12, max_size=12, unique=True),
       local=st.dictionaries(st.integers(0, 63),
                             st.integers(0, (1 << 16) - 1), max_size=64),
       stream=_STREAMS)
def test_lhp_indices_match_the_hash_formula(start, pcs, local, stream):
    lhp = LocalHashedPerceptron()
    if start == "resumed":  # as restored from a checkpoint: any histories
        lhp.load_state_dict({"tables": lhp.state_dict()["tables"],
                             "local": to_pairs(local)})
    trace = _compiled(stream, pcs)
    if start != "unbound":
        lhp.bind(trace)
    for rec in trace.branch_records():
        if rec is None or not rec.is_conditional:
            continue
        slot, lhist, indices, bound = lhp._lookup(rec.pc)
        assert slot == _slot(lhp, rec.pc)
        assert lhist == lhp._local.get(slot, 0)
        assert tuple(indices) == _lhp_indices(lhp, rec.pc, lhist)
        assert bound == (start != "unbound")  # every conditional has a row
        total = sum(lhp.tables[t][i] for t, i in enumerate(indices))
        assert lhp.predict(rec.pc) == (total >= 0, total)
        assert lhp.update(rec.pc, rec.taken) == (total >= 0)


@pytest.mark.parametrize("stray", ["same_slot", "other_slot"])
def test_bound_lhp_falls_back_off_its_rows(stray):
    """A bound LHP fed an update its rows do not expect, then the rest of
    its trace, matches an unbound LHP fed the same calls."""
    trace = compile_trace(TraceSpec("hard_random", 1, 1500).build())
    conds = [r for r in trace.branch_records()
             if r is not None and r.is_conditional]
    bound, unbound = LocalHashedPerceptron(), LocalHashedPerceptron()
    bound.bind(trace)
    # A PC no branch of the trace has: in the first row's history slot
    # (every later row misses) or in another one (later rows still serve).
    branch_pcs = {r.pc for r in trace.branch_records() if r is not None}
    first = _slot(bound, conds[0].pc)
    pc = next(p for p in range(0x10, 1 << 20, 4) if p not in branch_pcs
              and (_slot(bound, p) == first) == (stray == "same_slot"))
    assert bound.update(pc, True) == unbound.update(pc, True)
    served = 0
    for rec in conds:
        assert bound.predict(rec.pc) == unbound.predict(rec.pc)
        served += bound._lookup(rec.pc)[3]
        assert (bound.update(rec.pc, rec.taken)
                == unbound.update(rec.pc, rec.taken))
        assert bound.state_dict() == unbound.state_dict()
    assert (served > 0) == (stray == "other_slot")
    # Loading a checkpoint replaces the histories, so it ends the binding.
    bound.bind(trace)
    assert bound._lookup(conds[0].pc)[3]
    bound.load_state_dict(json.loads(json.dumps(bound.state_dict())))
    assert not bound._lookup(conds[0].pc)[3]


def test_bound_shp_rejects_an_off_stream_push():
    trace = compile_trace(TraceSpec("specint_like", 1, 600).build())
    first = next(r for r in trace.branch_records() if r is not None)
    shp = ScaledHashedPerceptron()
    shp.bind(trace)
    for pc, cond, taken in ((first.pc + 4, first.is_conditional, first.taken),
                            (first.pc, not first.is_conditional, first.taken),
                            (first.pc, first.is_conditional, not first.taken)):
        with pytest.raises(ValueError, match="expects branch 0"):
            shp.push_history(pc, cond, taken)
    assert (shp.ghist.value, shp.phist.value) == (0, 0)  # nothing pushed
    shp.push_history(first.pc, first.is_conditional, first.taken)
    # Loading a checkpoint replaces the history, so it drops the binding.
    shp.load_state_dict(json.loads(json.dumps(shp.state_dict())))
    shp.push_history(first.pc, first.is_conditional, first.taken)


def test_generations_share_rows_by_geometry():
    """M1-M4 share one SHP history set and M5/M6 another; M1/M2, M3/M4
    and M5/M6 each share an SHP index set, and M1-M6 one LHP row set —
    all built on first use from one branch stream."""
    trace = compile_trace(TraceSpec("web_like", 3, 1500).build())
    assert trace.derived == {}
    for gen in ("M1", "M2", "M3", "M4", "M5", "M6"):
        GenerationSimulator(get_generation(gen)).run(trace)
    kinds = sorted(k if isinstance(k, str) else k[0] for k in trace.derived)
    assert kinds == (["branch.stream", "lhp.rows"] + ["shp.history"] * 2
                     + ["shp.index"] * 3)
    before = dict(trace.derived)
    BranchUnit(get_generation("M6")).run_trace(trace)
    assert all(trace.derived[k] is v for k, v in before.items())
    assert len(trace.derived) == len(before)


#: The branch stats both front-end drivers report.
_BRANCH_STATS = ("branches", "conditional_branches", "taken_branches",
                 "mispredicts", "conditional_mispredicts",
                 "indirect_mispredicts", "return_mispredicts",
                 "btb_miss_redirects", "total_bubbles", "mrb_saved_bubbles",
                 "zero_bubble_redirects")


@pytest.mark.parametrize("gen", ["M1", "M3", "M5", "M6"])
@pytest.mark.parametrize("family", ["web_like", "specint_like",
                                    "btb_stress", "hard_random"])
def test_front_end_alone_matches_the_full_run(family, gen):
    """The branch unit never reads simulated time, so running it alone
    gives the full simulator's branch stats."""
    trace = TraceSpec(family, 17, 3000).build()
    alone = BranchUnit(get_generation(gen)).run_trace(trace)
    full = GenerationSimulator(get_generation(gen)).run(trace).branch
    assert ({k: getattr(alone, k) for k in _BRANCH_STATS}
            == {k: getattr(full, k) for k in _BRANCH_STATS})
