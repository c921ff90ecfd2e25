"""Scaled Hashed Perceptron behaviour (Section IV-A)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import lhp as lhp_mod, shp as shp_mod
from repro.frontend.history import fold_bits, mix_segment, pc_hash
from repro.frontend.lhp import LocalHashedPerceptron
from repro.frontend.shp import (
    BIAS_MAX,
    ScaledHashedPerceptron,
    WEIGHT_MAX,
    WEIGHT_MIN,
)


def _train(shp, pc, outcomes):
    """Run the predict/update/history loop; return accuracy."""
    correct = 0
    for taken in outcomes:
        pred = shp.predict(pc)
        if pred.taken == taken:
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
    pred = shp.predict(0x8000)
    assert pred.filtered_always_taken
    shp.update(0x8000, False, pred)
    shp.push_history(0x8000, True, False)
    pred2 = shp.predict(0x8000)
    assert not pred2.filtered_always_taken


def test_learns_short_pattern_from_global_history():
    """A TTN loop pattern is linearly separable given its own history."""
    shp = ScaledHashedPerceptron(8, 1024, ghist_bits=64, phist_bits=32)
    pattern = ([True, True, False] * 100)
    acc_late = 0
    for i, taken in enumerate(pattern):
        pred = shp.predict(0x1000)
        if i >= len(pattern) // 2 and pred.taken == taken:
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
                    hits += pred.taken == taken
                shp.update(0x2000, taken, pred)
                shp.push_history(0x2000, True, taken)
        return hits / max(1, exits)

    assert loop_accuracy(96) > loop_accuracy(8) + 0.4


def test_bias_weight_doubled_in_sum():
    shp = ScaledHashedPerceptron(4, 256)
    shp._bias[0x300] = 5
    shp._seen_not_taken[0x300] = True
    pred = shp.predict(0x300)
    table_sum = sum(shp.tables[t][i] for t, i in enumerate(pred.indices))
    assert pred.total == table_sum + 10


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


def test_snapshot_restore_roundtrip():
    shp = ScaledHashedPerceptron(4, 256)
    shp.push_history(0x10, True, True)
    snap = shp.snapshot()
    shp.push_history(0x14, True, False)
    shp.restore(snap)
    assert shp.snapshot() == snap


# ---------------------------------------------------------------------------
# The memoized table indices equal the hash formula
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


@pytest.mark.parametrize("memo_cap", [shp_mod._MEMO_CAP, 4],
                         ids=["default_cap", "cap4"])
@settings(max_examples=30, deadline=None)
@given(pcs=st.lists(_PCS, min_size=8, max_size=16, unique=True),
       outcomes=st.lists(st.booleans(), min_size=16, max_size=64))
def test_memoized_indices_match_the_hash_formula(memo_cap, pcs, outcomes):
    # A cap of 4 is below the 8+ distinct PCs, so every memo overflows
    # and clears mid-run; the indices must not change.
    with mock.patch.object(shp_mod, "_MEMO_CAP", memo_cap), \
            mock.patch.object(lhp_mod, "_MEMO_CAP", memo_cap):
        shp = ScaledHashedPerceptron(seed_salt=3)
        lhp = LocalHashedPerceptron()
        for step, taken in enumerate(outcomes):
            pc = pcs[step % len(pcs)]
            assert shp._indices(pc) == _shp_indices(shp, pc)
            slot = lhp._history_slot(pc)
            assert slot == pc_hash(
                pc, lhp.history_entries.bit_length() - 1, salt=0x77)
            lhist = lhp._local.get(slot, 0)
            assert lhp._indices(pc, lhist) == _lhp_indices(lhp, pc, lhist)
            shp.update(pc, taken, shp.predict(pc))
            shp.push_history(pc, step % 3 != 0, taken)
            lhp.update(pc, taken)
