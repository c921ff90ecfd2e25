"""Baseline conditional predictors the SHP is compared against.

The paper's predictor lineage starts from the perceptron literature; the
natural published baselines are a bimodal (per-PC 2-bit counter) predictor
and a gshare (global-history XOR PC) predictor.  The ablation bench
``benchmarks/test_ablation_shp_vs_baselines.py`` reproduces the expected
ordering: SHP < gshare < bimodal in MPKI.
"""

from __future__ import annotations

from typing import Dict

from ..metrics import formulas
from .history import fold_bits, pc_hash


class BimodalPredictor:
    """Per-PC 2-bit saturating counters."""

    def __init__(self, entries: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return pc_hash(pc, self.index_bits)

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        c = self.counters[i]
        self.counters[i] = min(3, c + 1) if taken else max(0, c - 1)

    def push_history(self, pc: int, is_conditional: bool,
                     taken: bool) -> None:
        """No history state; kept for interface parity."""

    @property
    def storage_bits(self) -> int:
        return self.entries * 2


class GsharePredictor:
    """Global history XOR PC indexing a 2-bit counter table."""

    def __init__(self, entries: int = 16384, history_bits: int = 14) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.history_bits = history_bits
        self.counters = [2] * entries
        self._ghist = 0

    def _index(self, pc: int) -> int:
        h = fold_bits(self._ghist, self.history_bits, self.index_bits)
        return h ^ pc_hash(pc, self.index_bits)

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        c = self.counters[i]
        self.counters[i] = min(3, c + 1) if taken else max(0, c - 1)

    def push_history(self, pc: int, is_conditional: bool,
                     taken: bool) -> None:
        if is_conditional:
            mask = (1 << self.history_bits) - 1
            self._ghist = ((self._ghist << 1) | (1 if taken else 0)) & mask

    @property
    def storage_bits(self) -> int:
        return self.entries * 2


def measure_conditional_mpki(predictor, trace) -> float:
    """Run a direction predictor over a trace's conditional branches and
    return mispredicts per thousand instructions.

    Works for any object with ``predict(pc) -> bool``, ``update(pc, taken)``
    and ``push_history(pc, is_conditional, taken)`` — the bimodal/gshare
    baselines here, or :class:`~repro.frontend.shp.ScaledHashedPerceptron`
    via :class:`ShpDirectionAdapter`.
    """
    mispredicts = 0
    for rec in trace:
        if not rec.is_branch:
            continue
        if rec.is_conditional:
            if predictor.predict(rec.pc) != rec.taken:
                mispredicts += 1
            predictor.update(rec.pc, rec.taken)
        predictor.push_history(rec.pc, rec.is_conditional, rec.taken)
    return formulas.mpki(mispredicts, len(trace))


class ShpDirectionAdapter:
    """Adapts the SHP to the simple direction-predictor protocol above."""

    def __init__(self, shp) -> None:
        self.shp = shp
        self._last_prediction = None

    def predict(self, pc: int) -> bool:
        self._last_prediction = self.shp.predict(pc)
        return self._last_prediction[0]

    def update(self, pc: int, taken: bool) -> None:
        self.shp.update(pc, taken, self._last_prediction)
        self._last_prediction = None

    def push_history(self, pc: int, is_conditional: bool,
                     taken: bool) -> None:
        self.shp.push_history(pc, is_conditional, taken)
