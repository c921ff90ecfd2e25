"""Memory hierarchy integration paths not covered elsewhere: Buddy at the
L2, the standalone engine at the L3, coordinated bypass, speculative-read
and early-activate counters, and DRAM statistics through full
simulations."""

from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.memory import MemoryHierarchy
from repro.traces import make_trace


def test_buddy_fills_neighbor_sector_at_l2():
    cfg = get_generation("M4")
    m = MemoryHierarchy(cfg)
    # A demand miss on one 64B line of a 128B sector: the buddy engine
    # fetches the neighbour into the (sectored) L2.
    m.access(0x0, 0x10000, now=0.0)
    assert m.buddy is not None and m.buddy.issued >= 1
    assert m.l2.contains(0x10040)  # buddy line resident
    assert not m.l1.contains(0x10040)  # only at the L2 (no L1 pollution)


def test_standalone_prefetcher_feeds_l3():
    cfg = get_generation("M5")
    m = MemoryHierarchy(cfg)
    now = 0.0
    # Long descending stream of L1 misses trains the standalone engine.
    for i in range(400):
        m.access(0x0, 0x80_0000 + i * 256, now=now)  # skip-stride: L1-missy
        now += 25.0
    assert m.standalone is not None
    assert m.standalone.promotions + m.standalone.phantom > 0


def test_m1_has_no_optional_engines():
    m = MemoryHierarchy(get_generation("M1"))
    assert m.sms is None and m.buddy is None and m.standalone is None


def test_coordinated_bypass_counts_on_streaming():
    cfg = get_generation("M3")
    m = MemoryHierarchy(cfg)
    now = 0.0
    # Pure streaming: lines are touched once; their castouts should be
    # bypassed or inserted ordinary, never elevated en masse.
    for i in range(30000):
        m.access(0x0, 0x100_0000 + i * 64, now=now)
        now += 8.0
    p = m.coordinated
    assert p.elevated <= (p.ordinary + p.bypassed)


def test_speculative_read_counters_on_m5():
    m = MemoryHierarchy(get_generation("M5"))
    for i in range(64):
        m.access(0x0, 0x200_0000 + i * (1 << 16), now=float(i * 50))
    assert m.path.speculative_reads > 0
    assert m.dram.early_activates_honored > 0


def test_no_speculative_read_before_m5():
    m = MemoryHierarchy(get_generation("M4"))
    for i in range(32):
        m.access(0x0, 0x200_0000 + i * (1 << 16), now=float(i * 50))
    assert m.path.speculative_reads == 0
    assert m.dram.early_activates_honored == 0


def test_dram_page_hits_on_streaming():
    m = MemoryHierarchy(get_generation("M1"))
    now = 0.0
    for i in range(2000):
        m.access(0x0, 0x300_0000 + i * 64, now=now)
        now += 10.0
    # Sequential 64B lines mostly land in open rows across the banks.
    assert m.dram.page_hit_rate > 0.4


def test_store_misses_allocate():
    m = MemoryHierarchy(get_generation("M1"))
    m.access(0x0, 0x5000, now=0.0, is_store=True)
    assert m.l1.contains(0x5000)
    line = m.l1.probe(0x5000, update_lru=False, count=False)
    assert line.dirty


def test_writeback_of_dirty_victims():
    m = MemoryHierarchy(get_generation("M1"))
    # Dirty a line, then blow it out of the L1 with conflicting fills.
    m.access(0x0, 0x0, now=0.0, is_store=True)
    set_stride = m.l1.num_sets * 64
    for w in range(1, m.l1.ways + 2):
        m.access(0x0, w * set_stride, now=float(w))
    assert not m.l1.contains(0x0)
    assert m.l2.contains(0x0)  # the dirty victim was written back


def test_generation_simulator_exposes_all_stats():
    t = make_trace("mobile_like", seed=8, n_instructions=6000)
    r = GenerationSimulator(get_generation("M5")).run(t)
    assert r.core.instructions == 6000
    assert r.branch.branches > 0
    assert r.memory.loads > 0
    assert r.ledger.energy() > 0
    assert 0.0 <= r.uoc_fetch_fraction <= 1.0


def test_prefetch_dram_traffic_counted():
    m = MemoryHierarchy(get_generation("M5"))
    now = 0.0
    for i in range(600):
        m.access(0x0, 0x400_0000 + i * 64, now=now)
        now += 20.0
    assert m.stats.prefetch_dram_traffic > 0
    assert m.stats.prefetches_issued >= m.stats.prefetch_dram_traffic * 0.2
