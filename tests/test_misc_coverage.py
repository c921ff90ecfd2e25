"""Remaining coverage: LHP, baselines protocol, figure/table helpers."""

import pytest

from repro.engine import run_population
from repro.frontend.baselines import measure_conditional_mpki
from repro.frontend.lhp import LocalHashedPerceptron
from repro.harness.figures import population_curves, render_curves
from repro.harness.tables import table1_features
from repro.traces import Kind, Trace, TraceRecord


# ---------------------------------------------------------------------------
# LHP
# ---------------------------------------------------------------------------

def test_lhp_learns_local_pattern():
    lhp = LocalHashedPerceptron()
    pattern = [True, True, False]
    correct = 0
    for i in range(600):
        taken = pattern[i % 3]
        pred, _ = lhp.predict(0x40)
        if i > 300:
            correct += pred == taken
        lhp.update(0x40, taken)
    assert correct / 300 > 0.9


def test_lhp_separate_branches_separate_histories():
    lhp = LocalHashedPerceptron()
    # Branch A always taken; branch B never: both must be learnable
    # simultaneously despite shared tables.
    for _ in range(200):
        lhp.update(0x1000, True)
        lhp.update(0x2000, False)
    assert lhp.predict(0x1000)[0] is True
    assert lhp.predict(0x2000)[0] is False


def test_lhp_storage_bits_positive():
    assert LocalHashedPerceptron().storage_bits > 0


def test_lhp_rejects_bad_rows():
    with pytest.raises(ValueError):
        LocalHashedPerceptron(rows=100)


# ---------------------------------------------------------------------------
# Baseline measurement protocol
# ---------------------------------------------------------------------------

def test_measure_mpki_counts_only_conditionals():
    recs = [
        TraceRecord(pc=0, kind=Kind.BR_UNCOND, taken=True, target=8),
        TraceRecord(pc=8, kind=Kind.ALU),
        TraceRecord(pc=12, kind=Kind.BR_COND, taken=True, target=0),
    ] * 100

    class AlwaysNo:
        def predict(self, pc):
            return False

        def update(self, pc, taken):
            pass

        def push_history(self, pc, c, t):
            pass

    mpki = measure_conditional_mpki(AlwaysNo(), Trace("t", "f", recs))
    # One conditional per 3 records, all mispredicted -> 1000/3.
    assert abs(mpki - 1000 / 3) < 1.0


# ---------------------------------------------------------------------------
# Harness helpers
# ---------------------------------------------------------------------------

def test_population_curves_unknown_attr_raises():
    pop = run_population(n_slices=2, slice_length=1000, seed=55,
                         generations=("M1",))
    with pytest.raises(AttributeError):
        population_curves("nonexistent", population=pop,
                          generations=("M1",))


def test_render_curves_empty():
    assert "(no data)" in render_curves({}, "EMPTY")


def test_render_curves_custom_size():
    pop = run_population(n_slices=2, slice_length=1000, seed=55,
                         generations=("M1",))
    curves = population_curves("ipc", population=pop, generations=("M1",))
    text = render_curves(curves, "T", width=20, height=5)
    rows = [l for l in text.splitlines() if l.startswith("  |")]
    assert len(rows) == 5
    assert all(len(r) == 3 + 20 for r in rows)


def test_table1_has_all_generations_and_fields():
    rows = table1_features()
    assert [r["core"] for r in rows] == ["M1", "M2", "M3", "M4", "M5", "M6"]
    for r in rows:
        assert set(r) >= {"process", "width", "rob", "l1d", "l2", "l3",
                          "mispredict_penalty"}
    # Spot-check the cascading-latency rendering on M4+.
    m4 = rows[3]
    assert m4["l1_hit"] == "3 or 4"


def test_cpi_stack_fields_populated():
    pop = run_population(n_slices=2, slice_length=1500, seed=56,
                         generations=("M3",))
    for m in pop.metrics:
        total = (m.cpi_base + m.cpi_mispredict + m.cpi_frontend
                 + m.cpi_memory)
        assert abs(total - 1.0) < 1e-6
