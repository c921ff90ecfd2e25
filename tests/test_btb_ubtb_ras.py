"""BTB hierarchy, micro-BTB graph and return address stack."""

import random
from collections import OrderedDict

import pytest

from repro.config import get_generation
from repro.frontend import BranchUnit
from repro.frontend.btb import BTBHierarchy, LINE_BYTES, SLOTS_PER_LINE
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.ubtb import MicroBTB
from repro.traces.types import Kind, TraceRecord


# ---------------------------------------------------------------------------
# BTB hierarchy
# ---------------------------------------------------------------------------

def _btb(**kw):
    defaults = dict(mbtb_entries=64, vbtb_entries=16, l2btb_entries=128,
                    l2btb_fill_latency=4, l2btb_fill_bandwidth=2)
    defaults.update(kw)
    return BTBHierarchy(**defaults)


def test_discovery_then_hit():
    btb = _btb()
    assert btb.lookup(0x1000) == (None, "miss", 0)
    btb.discover(0x1000, 0x2000, Kind.BR_COND)
    entry, source, extra = btb.lookup(0x1000)
    assert source == "mbtb" and entry.target == 0x2000 and extra == 0


def test_dense_line_spills_to_vbtb():
    """Figure 2: the first eight discovered branches share the mBTB line;
    the ninth spills to the vBTB at +1 bubble."""
    btb = _btb()
    base = 0x4000
    for i in range(SLOTS_PER_LINE + 1):
        btb.discover(base + 4 * i, 0x9000 + i, Kind.BR_COND)
    _, source, extra = btb.lookup(base + 4 * SLOTS_PER_LINE)
    assert source == "vbtb"
    assert extra == 1
    assert btb.spills_to_vbtb == 1


def test_vbtb_capacity_evicts_lru():
    btb = _btb(vbtb_entries=2)
    base = 0x4000
    for i in range(SLOTS_PER_LINE + 3):  # 3 spills into a 2-entry vBTB
        btb.discover(base + 4 * i, 0x9000 + i, Kind.BR_COND)
    first_spilled = base + 4 * SLOTS_PER_LINE
    assert btb.lookup(first_spilled)[1] == "miss"


def test_evicted_line_refills_from_l2btb_with_latency():
    btb = _btb(mbtb_entries=16)  # two lines of capacity
    pcs = [0x1000, 0x1080, 0x1100]  # three distinct 128B lines
    for pc in pcs:
        btb.discover(pc, pc + 0x100, Kind.BR_UNCOND)
    # Line of pcs[0] was evicted to the L2BTB; looking it up refills.
    _, source, extra = btb.lookup(pcs[0])
    assert source == "l2btb"
    assert extra >= btb.l2btb_fill_latency
    # Now resident again.
    assert btb.lookup(pcs[0])[1] == "mbtb"


def test_l2btb_fill_bandwidth_affects_bubbles():
    slow = _btb(mbtb_entries=16, l2btb_fill_bandwidth=1)
    fast = _btb(mbtb_entries=16, l2btb_fill_bandwidth=8)
    for btb in (slow, fast):
        base = 0x2000
        for i in range(SLOTS_PER_LINE):  # fill one line fully
            btb.discover(base + 4 * i, 0x8000, Kind.BR_COND)
        btb.discover(0x4000, 0x8000, Kind.BR_COND)
        btb.discover(0x6000, 0x8000, Kind.BR_COND)  # evicts base line
    _, s_source, s_extra = slow.lookup(0x2000)
    _, f_source, f_extra = fast.lookup(0x2000)
    assert s_source == f_source == "l2btb"
    assert s_extra > f_extra


def test_empty_line_optimization_tracks_branch_free_lines():
    btb = _btb(has_empty_line_opt=True)
    btb.note_line_scanned(0x8000, had_branch=False)
    assert btb.is_known_empty(0x8000)
    btb.note_line_scanned(0x8000, had_branch=True)
    assert not btb.is_known_empty(0x8000)
    assert btb.empty_line_skips == 1


def test_empty_line_opt_disabled_by_default():
    btb = _btb()
    btb.note_line_scanned(0x8000, had_branch=False)
    assert not btb.is_known_empty(0x8000)


def test_entry_at_ot_classification():
    btb = _btb()
    e = btb.discover(0x100, 0x900, Kind.BR_COND)
    for _ in range(10):
        e.record_outcome(True)
    assert e.is_always_taken and e.is_often_taken
    e.record_outcome(False)
    assert not e.is_always_taken
    assert e.is_often_taken  # 10/11 >= 87.5%
    for _ in range(5):
        e.record_outcome(False)
    assert not e.is_often_taken


def test_unconditional_entries_count_as_always_taken():
    btb = _btb()
    e = btb.discover(0x200, 0x900, Kind.BR_UNCOND)
    assert e.is_always_taken


# ---------------------------------------------------------------------------
# Micro-BTB
# ---------------------------------------------------------------------------

def _spin_loop(ubtb, pc=0x1000, target=0x1000, iters=40):
    for _ in range(iters):
        ubtb.observe(pc, Kind.BR_COND, True, target)


def test_ubtb_learns_and_locks_on_tight_loop():
    u = MicroBTB(entries=16)
    _spin_loop(u, iters=40)
    assert u.locked
    assert u.lock_events == 1
    pred = u.predict(0x1000)
    assert pred is not None
    taken, target, gate = pred
    assert taken and target == 0x1000


def test_ubtb_unlocks_on_mispredict_and_relocks():
    u = MicroBTB(entries=16)
    _spin_loop(u, iters=40)
    assert u.locked
    u.notify_mispredict()
    assert not u.locked
    _spin_loop(u, iters=MicroBTB.LOCK_THRESHOLD + 2)
    assert u.locked


def test_ubtb_unknown_branch_unlocks():
    u = MicroBTB(entries=16)
    _spin_loop(u, iters=40)
    assert u.predict(0xDEAD) is None
    assert not u.locked


def test_ubtb_edges_learned():
    u = MicroBTB(entries=16)
    # A taken B, B not-taken A pattern.
    for _ in range(6):
        u.observe(0xA0, Kind.BR_COND, True, 0xB0)
        u.observe(0xB0, Kind.BR_COND, False, 0xC0)
    node_a = u._get_node(0xA0)
    node_b = u._get_node(0xB0)
    assert node_a.taken_edge == 0xB0
    assert node_b.not_taken_edge == 0xA0


def test_ubtb_uncond_only_entries_reserved():
    u = MicroBTB(entries=2, uncond_only_entries=4)
    for i in range(4):
        u.observe(0x100 + 16 * i, Kind.BR_UNCOND, True, 0x900)
    assert len(u.uncond_nodes) == 4
    assert len(u.nodes) == 0


def test_ubtb_capacity_evicts():
    u = MicroBTB(entries=4)
    for i in range(8):
        u.observe(0x100 + 16 * i, Kind.BR_COND, True, 0x900)
    assert len(u.nodes) == 4


def test_ubtb_indirect_branches_never_lock():
    u = MicroBTB(entries=16)
    for _ in range(40):
        assert not u.observe(0x500, Kind.BR_INDIRECT, True, 0x900)
    assert not u.locked


def test_ubtb_gating_requires_low_lhp_miss_rate():
    u = MicroBTB(entries=16)
    # A trip-5 loop: exit every 5th - too many LHP misses early to gate...
    # after the LHP learns the short pattern, gating may engage; what we
    # assert is the invariant: gate implies low lifetime miss rate.
    for _ in range(200):
        for i in range(5):
            u.observe(0x700, Kind.BR_COND, i != 4, 0x700)
    node = u._get_node(0x700)
    if u.locked:
        pred = u.predict(0x700)
        if pred is not None and pred[2]:
            assert node.lhp_misses * 64 <= node.visits


class _TouchOrder:
    """The uBTB graph's LRU order under the touch sequence the unit once
    made per branch: ``pc`` (or allocate it, evicting the oldest node of
    its store), the previous branch's ``prev``, then ``pc`` again."""

    def __init__(self, capacity: int, uncond_capacity: int) -> None:
        self.stores = {False: (OrderedDict(), capacity),
                       True: (OrderedDict(), uncond_capacity)}
        self.prev = None

    def _touch(self, pc: int) -> bool:
        for store, _ in self.stores.values():
            if pc in store:
                store.move_to_end(pc)
                return True
        return False

    def branch(self, pc: int, kind: Kind) -> None:
        if not self._touch(pc):
            uncond_only = kind != Kind.BR_COND and self.stores[True][1] > 0
            store, cap = self.stores[uncond_only]
            store[pc] = None
            while len(store) > cap:
                store.popitem(last=False)
        if self.prev is not None:
            self._touch(self.prev)
        self._touch(pc)
        self.prev = pc


def _evicting_stream(seed: int, rounds: int):
    """Branch records that keep a 48 + 48 node graph evicting: small
    loop kernels, each repeated until the uBTB can lock onto it, between
    sweeps over a pool of 240 branches of every kind."""
    rng = random.Random(seed)
    kinds = ((Kind.BR_COND,) * 5 + (Kind.BR_UNCOND,) * 2
             + (Kind.BR_CALL, Kind.BR_RET, Kind.BR_INDIRECT))
    pool = [(0x10000 + 12 * i, rng.choice(kinds)) for i in range(240)]

    def record(pc, kind, taken):
        taken = taken or kind != Kind.BR_COND
        return TraceRecord(pc=pc, kind=kind, taken=taken,
                           target=pc + 0x40 if taken else 0)

    for _ in range(rounds):
        kernel = rng.sample(pool, rng.randint(2, 6))
        for _ in range(rng.randint(4, 14)):
            for pc, kind in kernel:
                yield record(pc, kind, rng.random() < 0.9)
        for pc, kind in rng.sample(pool, 70):
            yield record(pc, kind, rng.random() < 0.5)


def test_ubtb_eviction_order_matches_the_old_touch_order():
    """One lookup per branch keeps the net LRU order of the three the
    unit made (``pc``, ``prev``, ``pc``): the first ``pc`` touch was
    redundant, since nothing is allocated between it and the last one.
    A full M5 graph evicts the same nodes after every branch."""
    unit = BranchUnit(get_generation("M5"))
    ubtb = unit.ubtb
    assert (ubtb.capacity, ubtb.uncond_capacity) == (48, 48)
    ref = _TouchOrder(ubtb.capacity, ubtb.uncond_capacity)
    locked = 0
    for rec in _evicting_stream(seed=11, rounds=60):
        locked += ubtb.locked
        unit.process_branch(rec)
        ref.branch(rec.pc, rec.kind)
        assert list(ubtb.nodes) == list(ref.stores[False][0])
        assert list(ubtb.uncond_nodes) == list(ref.stores[True][0])
    # Both stores filled and evicted, and the locked path ran.
    assert len(ubtb.nodes) == len(ubtb.uncond_nodes) == 48
    assert locked and ubtb.locked_predictions


# ---------------------------------------------------------------------------
# RAS
# ---------------------------------------------------------------------------

def test_ras_push_pop_lifo():
    ras = ReturnAddressStack(8)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.pop() == 0x200
    assert ras.pop() == 0x100


def test_ras_underflow_returns_none():
    ras = ReturnAddressStack(4)
    assert ras.pop() is None
    assert ras.underflows == 1


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(2)
    ras.push(1)
    ras.push(2)
    ras.push(3)
    assert ras.overflows == 1
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None  # 1 was dropped


def test_ras_checkpoint_restore():
    ras = ReturnAddressStack(8)
    ras.push(0x10)
    snap = ras.checkpoint()
    ras.push(0x20)
    ras.pop()
    ras.pop()
    ras.restore(snap)
    assert ras.peek() == 0x10


def test_ras_cipher_roundtrip():
    key = 0x5A5A5A
    ras = ReturnAddressStack(8, encrypt=lambda t: t ^ key,
                             decrypt=lambda t: t ^ key)
    ras.push(0xCAFE)
    assert ras.pop() == 0xCAFE


def test_ras_wrong_key_garbles():
    ras = ReturnAddressStack(8, encrypt=lambda t: t ^ 0x111,
                             decrypt=lambda t: t ^ 0x222)
    ras.push(0xCAFE)
    assert ras.pop() != 0xCAFE


def test_ras_validates():
    with pytest.raises(ValueError):
        ReturnAddressStack(0)
