"""Set-associative cache (incl. sectoring) and TLB hierarchy."""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import GENERATION_ORDER, get_generation
from repro.core import GenerationSimulator
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import (PAGE_BYTES, PAGE_WALK_LATENCY, Tlb,
                              TranslationHierarchy)
from repro.observe.sink import TraceSink
from repro.traces import TraceSpec
from repro.config import TlbConfig


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit():
    c = SetAssocCache(4096, 4)
    assert c.probe(0x100) is None
    c.fill(0x100)
    assert c.probe(0x100) is not None
    assert c.hits == 1 and c.misses == 1


def test_cache_same_line_offsets_hit():
    c = SetAssocCache(4096, 4)
    c.fill(0x1000)
    assert c.probe(0x103F) is not None  # same 64B line
    assert c.probe(0x1040) is None      # next line


def test_cache_lru_eviction():
    c = SetAssocCache(4 * 64, 4)  # one set of four ways
    for i in range(4):
        c.fill(i * 64)
    c.probe(0)           # touch line 0 (now MRU)
    victim = c.fill(4 * 64)
    assert victim is not None
    assert victim.address == 64  # LRU was line 1
    assert c.probe(0) is not None


def test_sectored_cache_buddy_slot_invalid():
    """Section VIII-B: a 128B sector tag with only one 64B line valid —
    the buddy slot is a miss until buddy-prefetched."""
    c = SetAssocCache(8192, 4, sector_bytes=128)
    c.fill(0x1000)
    assert c.probe(0x1000) is not None
    assert c.probe(0x1040) is None  # buddy subline invalid
    c.fill(0x1040, prefetched=True)
    assert c.probe(0x1040) is not None
    # Both sublines share one tag entry.
    assert c.resident_count == 1


def test_sector_evicted_as_unit():
    c = SetAssocCache(2 * 128, 2, sector_bytes=128)  # one set, 2 ways
    c.fill(0x0)
    c.fill(0x40)
    c.fill(0x80)
    victim = c.fill(0x100)
    assert victim is not None and victim.address == 0x0
    assert victim.valid_mask == 0b11


def test_insert_lru_position():
    c = SetAssocCache(4 * 64, 4)
    for i in range(4):
        c.fill(i * 64)
    c.fill(4 * 64, insert_lru=True)  # "ordinary" insertion
    # Inserting one more evicts the ordinary-state line first.
    c.fill(5 * 64)
    assert c.probe(4 * 64, update_lru=False, count=False) is None


def test_invalidate():
    c = SetAssocCache(4096, 4)
    c.fill(0x200)
    assert c.invalidate(0x200) is not None
    assert c.probe(0x200) is None
    assert c.invalidate(0x200) is None


def test_dirty_and_metadata_bits():
    c = SetAssocCache(4096, 4)
    c.fill(0x300, dirty=True, prefetched=True)
    line = c.probe(0x300)
    assert line.dirty and line.prefetched
    assert line.hit_count == 1


def test_cache_validation():
    with pytest.raises(ValueError):
        SetAssocCache(0, 4)
    with pytest.raises(ValueError):
        SetAssocCache(4096, 4, line_bytes=64, sector_bytes=96)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=200))
def test_cache_capacity_invariant(addresses):
    c = SetAssocCache(2048, 4, sector_bytes=128)
    for a in addresses:
        if c.probe(a) is None:
            c.fill(a)
    assert c.resident_count <= c.num_entries
    # Every resident sector base is sector-aligned.
    for line in c.iter_lines():
        assert line.address % c.sector_bytes == 0


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------

def test_tlb_miss_then_hit():
    t = Tlb(TlbConfig(entries=16, ways=4))
    assert not t.probe(0x1000)
    t.fill(0x1000)
    assert t.probe(0x1FFF)  # same 4KB page
    assert not t.probe(0x2000)


def test_sectored_tlb_covers_multiple_pages():
    t = Tlb(TlbConfig(entries=16, ways=4, sectors=4))
    t.fill(0x0000)
    assert t.probe(0x3FFF)  # fourth page of the sector
    assert not t.probe(0x4000)


def test_translation_hierarchy_levels_and_latency():
    h = TranslationHierarchy(get_generation("M3"))
    r = h.translate(0x10_0000)
    assert r.level == "walk" and r.latency == PAGE_WALK_LATENCY
    r2 = h.translate(0x10_0000)
    assert r2.level == "l1" and r2.latency == 0.0


def test_l15_tlb_catches_l1_capacity_spill():
    h = TranslationHierarchy(get_generation("M3"))
    # Fill beyond L1 capacity (32 pages on M3) but within L1.5 (512).
    for i in range(64):
        h.translate(i * 4096)
    r = h.translate(0)
    assert r.level in ("l1", "l1.5")  # not a walk


def test_m1_has_no_l15():
    h = TranslationHierarchy(get_generation("M1"))
    assert h.l15 is None


def test_prefetch_fill_avoids_future_walk():
    h = TranslationHierarchy(get_generation("M3"))
    h.prefetch_fill(0x80_0000)
    r = h.translate(0x80_0000)
    assert r.level != "walk"


# ---------------------------------------------------------------------------
# Set storage: a set exists from its first fill
# ---------------------------------------------------------------------------

#: kind -> (a fresh 16-set structure, the address stride between sets).
STRUCTURES = {
    "cache": (lambda: SetAssocCache(4096, 4), 64),
    "sectored": (lambda: SetAssocCache(8192, 4, sector_bytes=128), 128),
    "tlb": (lambda: Tlb(TlbConfig(entries=64, ways=4)), PAGE_BYTES),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURES))
def test_fresh_state_lists_every_set_empty(kind):
    s = STRUCTURES[kind][0]()
    assert s.state_dict()["sets"] == [[] for _ in range(s.num_sets)]


@pytest.mark.parametrize("kind", sorted(STRUCTURES))
def test_never_filled_set_misses_and_allocates_nothing(kind):
    make, stride = STRUCTURES[kind]
    s = make()
    assert not s.probe(3 * stride)
    assert (s.hits, s.misses) == (0, 1)
    if isinstance(s, SetAssocCache):
        assert s.probe(3 * stride, count=False) is None
        assert not s.contains(3 * stride)
        assert s.invalidate(3 * stride) is None
        assert (s.hits, s.misses) == (0, 1)
        assert s.resident_count == 0
    assert s._sets == [None] * s.num_sets


@pytest.mark.parametrize("kind", sorted(STRUCTURES))
def test_partly_filled_state_round_trips_through_json(kind):
    make, stride = STRUCTURES[kind]
    s = make()
    for i in (5, 0, 16 + 5, 7, 9):
        s.fill(i * stride)
    if isinstance(s, SetAssocCache):
        s.fill(7 * stride + 64, prefetched=True)  # the buddy, if sectored
        s.invalidate(9 * stride)  # set 9: filled, then emptied
    s.probe(5 * stride)
    s.probe(2 * stride)
    state = s.state_dict()
    again = make()
    again.load_state_dict(json.loads(json.dumps(state)))
    assert again.state_dict() == state
    # Sets with no entries, set 9 included, load back unallocated.
    assert [i for i, x in enumerate(again._sets) if x is not None] == \
        [i for i, x in enumerate(state["sets"]) if x]


@pytest.mark.parametrize("kind", ["cache", "sectored"])
def test_iter_lines_in_set_index_order(kind):
    make, stride = STRUCTURES[kind]
    c = make()
    for i in (9, 2, 14, 16 + 2, 0):
        c.fill(i * stride)
    assert [line.address for line in c.iter_lines()] == [
        i * stride for i in (0, 2, 16 + 2, 9, 14)]


@pytest.mark.parametrize("gen", GENERATION_ORDER)
def test_building_a_simulator_tracks_few_objects(gen):
    # A simulator holds an L3 of up to 4,096 sets and a 1,024-entry L2
    # TLB; building one must not allocate storage for each of them.
    config = get_generation(gen)
    GenerationSimulator(config)  # warm any lazily built module tables
    gc.disable()
    try:
        before = len(gc.get_objects())
        sim = GenerationSimulator(config)  # alive while counting
        created = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert created < 1000, f"{gen}: {created} GC-tracked objects"


#: A branch-heavy slice, and a streaming one that locks the stride
#: prefetcher (its integrated confirmation queue is on M3-M6).
BRANCHY = TraceSpec("specint_like", 4, 3000)
STREAM = TraceSpec("stream_like", 3, 2000)


def _run(gen, spec, **kwargs):
    sim = GenerationSimulator(gen, **kwargs)
    return sim, sim.run(spec.build())


def _split(gen, spec, between):
    """One simulator runs ``spec``'s first half; ``between(sim)`` runs
    at the cut and returns the simulator that runs the rest."""
    trace = spec.build()
    cut = len(trace) // 2
    sim = GenerationSimulator(gen)
    sim.run(trace.slice(0, cut), finalize=False)
    sim = between(sim)
    return sim, sim.run(trace.slice(cut))


def _flushed(sim):
    sim.branch_unit.context_switch("flush")
    return sim


def _restored(sim):
    resumed = GenerationSimulator(sim.config)
    resumed.restore(sim.save_state())
    return resumed


#: route -> (slice, a function of (generation, slice) that returns the
#: last simulator it built, or None, and that simulator's result).
DROP_ROUTES = {
    "plain": (BRANCHY, _run),
    "stream_like": (STREAM, _run),
    "traced": (BRANCHY,
               lambda gen, spec: _run(gen, spec, trace_sink=TraceSink())),
    "flush": (BRANCHY, lambda gen, spec: _split(gen, spec, _flushed)),
    "resume": (BRANCHY, lambda gen, spec: _split(gen, spec, _restored)),
    "corunners": (BRANCHY, lambda gen, spec: _run(gen, spec, corunners=2)),
    "repro.run": (STREAM, lambda gen, spec: (None, repro.run(spec, gen))),
}


@pytest.mark.parametrize("route", DROP_ROUTES)
@pytest.mark.parametrize("gen", GENERATION_ORDER)
def test_a_dropped_simulator_leaves_no_cyclic_garbage(gen, route):
    # No object a simulator builds may sit on a reference cycle, so
    # reference counting alone frees it and its result: the cyclic
    # collector finds nothing once both are dropped.  The result's
    # registry stays readable without its simulator.
    spec, simulate = DROP_ROUTES[route]
    gc.collect()
    gc.disable()
    try:
        sim, result = simulate(gen, spec)
        values = result.metrics.snapshot().values
        del sim
        assert result.metrics.snapshot().values == values
        assert values["core.instructions"] == spec.n_instructions
        del result
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{gen} {route}: {found} objects on reference cycles"
