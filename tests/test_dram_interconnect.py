"""DRAM model, memory path features and miss buffers."""

import pytest

from repro.config import MemoryLatencyConfig
from repro.memory.dram import DramModel
from repro.memory.interconnect import MemoryPath
from repro.memory.mab import MissBufferPool
from repro.memory.coordinated import CoordinatedPolicy
from repro.memory.cache import CacheLine


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------

def test_dram_page_hit_cheaper_than_miss():
    d = DramModel(base_latency=100, page_miss_penalty=40)
    first = d.access(0x1000)
    second = d.access(0x1400)  # same bank (line+1024), same 16KB row
    assert not first.page_hit and second.page_hit
    assert second.latency == 100 and first.latency == 140


def test_dram_bank_conflict_reopens_row():
    d = DramModel(n_banks=2, base_latency=100, page_miss_penalty=40)
    d.access(0x0)
    d.access(1 << 17)  # same bank (bit 6 pattern), different row
    r = d.access(0x0)
    assert not r.page_hit


def test_early_activate_hides_page_miss():
    d = DramModel(base_latency=100, page_miss_penalty=40)
    assert d.early_activate(0x5000)
    r = d.access(0x5000)
    assert not r.page_hit and r.early_activated
    assert r.latency == 100  # activate already in flight


def test_early_activate_ignored_under_load():
    d = DramModel(activate_ignore_load=2)
    d.outstanding = 5
    assert not d.early_activate(0x5000)
    assert d.early_activates_ignored == 1


def test_page_hit_rate_stat():
    d = DramModel()
    d.access(0x0)
    d.access(0x400)  # same bank and row
    assert d.page_hit_rate == 0.5


# ---------------------------------------------------------------------------
# Memory path (Section IX)
# ---------------------------------------------------------------------------

def _path(**kw):
    cfg = MemoryLatencyConfig(**kw)
    return MemoryPath(cfg, DramModel(base_latency=100, page_miss_penalty=0))


def test_fast_path_cuts_inbound_latency():
    base = _path().dram_round_trip(0x1000)
    fast = _path(has_data_fast_path=True).dram_round_trip(0x1000)
    assert fast.latency < base.latency
    assert fast.fast_path_used and not base.fast_path_used
    # One crossing + no inbound queueing replaced two crossings + queue.
    cfg = MemoryLatencyConfig()
    saved = cfg.async_crossing_latency + cfg.interconnect_queue_latency
    assert abs((base.latency - fast.latency) - saved) < 1e-9


def test_speculative_read_overlaps_cache_lookup():
    plain = _path().dram_round_trip(0x1000, latency_critical=True,
                                    bypassed_lookup_latency=15.0)
    spec = _path(has_speculative_read=True).dram_round_trip(
        0x1000, latency_critical=True, bypassed_lookup_latency=15.0)
    assert spec.speculative and not plain.speculative
    assert plain.latency - spec.latency == 15.0


def test_speculative_read_only_for_latency_critical():
    p = _path(has_speculative_read=True)
    r = p.dram_round_trip(0x1000, latency_critical=False,
                          bypassed_lookup_latency=15.0)
    assert not r.speculative


def test_early_activate_flows_through_path():
    p = _path(has_early_page_activate=True)
    r = p.dram_round_trip(0x9000, latency_critical=True)
    assert r.early_activated


# ---------------------------------------------------------------------------
# Miss buffers (MAB)
# ---------------------------------------------------------------------------

def test_mab_no_stall_when_free():
    m = MissBufferPool(4)
    assert m.allocate(now=0.0, ready=10.0, addr=0x0) == 0.0
    assert m.occupancy == 1


def test_mab_stalls_when_full():
    m = MissBufferPool(2)
    m.allocate(0.0, 100.0, 0x0)
    m.allocate(0.0, 50.0, 0x40)
    delay = m.allocate(0.0, 100.0, 0x80)
    assert delay > 0.0
    assert m.stalls == 1


def test_mab_frees_completed_entries():
    m = MissBufferPool(1)
    m.allocate(0.0, 10.0, 0x0)
    assert m.allocate(20.0, 30.0, 0x40) == 0.0  # first completed at t=10


def test_mab_validation():
    with pytest.raises(ValueError):
        MissBufferPool(0)


# ---------------------------------------------------------------------------
# Coordinated castout policy (Section VIII-A)
# ---------------------------------------------------------------------------

def test_reused_castout_elevated():
    p = CoordinatedPolicy()
    line = CacheLine(address=0x0, hit_count=3)
    d = p.classify_castout(line)
    assert d.allocate and d.elevated and d.label == "elevated"


def test_touched_castout_ordinary():
    p = CoordinatedPolicy()
    line = CacheLine(address=0x0, hit_count=1)
    d = p.classify_castout(line)
    assert d.allocate and not d.elevated and d.label == "ordinary"


def test_untouched_castout_bypasses():
    p = CoordinatedPolicy()
    line = CacheLine(address=0x0, prefetched=True)
    d = p.classify_castout(line)
    assert not d.allocate and d.label == "bypass"
    assert p.bypassed == 1


def test_reallocated_line_counts_as_reused():
    p = CoordinatedPolicy()
    line = CacheLine(address=0x0)
    CoordinatedPolicy.mark_reallocated(line)
    d = p.classify_castout(line)
    assert d.elevated
