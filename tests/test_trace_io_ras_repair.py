"""RAS speculative repair on mispredicts."""

from repro.config import get_generation
from repro.frontend import BranchUnit
from repro.traces import Kind, Trace, TraceRecord


def test_ras_repairs_counted_and_harmless():
    """Every mispredict exercises the checkpoint repair; returns keep
    predicting perfectly through the noise."""
    recs = []
    import random
    rng = random.Random(3)
    pc_call, pc_ret = 0x1000, 0x8000
    for i in range(500):
        recs.append(TraceRecord(pc=pc_call, kind=Kind.BR_CALL, taken=True,
                                target=pc_ret - 8))
        # A hard branch inside the callee: forces mispredicts.
        recs.append(TraceRecord(pc=pc_ret - 8, kind=Kind.BR_COND,
                                taken=rng.random() < 0.5,
                                target=pc_ret - 4))
        recs.append(TraceRecord(pc=pc_ret - 4, kind=Kind.ALU))
        recs.append(TraceRecord(pc=pc_ret, kind=Kind.BR_RET, taken=True,
                                target=pc_call + 4))
        recs.append(TraceRecord(pc=pc_call + 4, kind=Kind.BR_UNCOND,
                                taken=True, target=pc_call))
    t = Trace("callret-noise", "micro", recs)
    unit = BranchUnit(get_generation("M3"))
    s = unit.run_trace(t)
    assert s.mispredicts > 50
    assert s.ras_repairs == s.mispredicts
    assert s.return_mispredicts <= 1  # the repair keeps the RAS clean
