"""Scaled Hashed Perceptron conditional-branch predictor (Section IV-A).

The first-generation SHP is eight tables of 1,024 sign/magnitude weights,
each indexed by an XOR hash of (a) a GHIST interval, (b) a PHIST interval
and (c) the branch PC, plus a per-branch "local BIAS" weight that lives in
the BTB entry and is *doubled* before being added to the table sum.  A
non-negative sum predicts TAKEN.

Training follows the O-GEHL dynamic-threshold scheme: update on a
mispredict, or on a correct prediction whose |sum| fails to exceed the
adaptive threshold.  Always-taken branches (unconditional, or conditional
never yet observed not-taken) do not update the weight tables, reducing
aliasing (Section IV-A).

M3 doubled the rows (8x2048); M5 went to sixteen tables of 2,048 weights
and stretched GHIST by 25% with rebalanced intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .history import (
    GlobalHistory,
    PathHistory,
    geometric_intervals,
    mix_segment,
    pc_hash,
)

#: 8-bit sign/magnitude weights: magnitude 0..127 plus a sign bit.
WEIGHT_MAX = 127
WEIGHT_MIN = -127

#: Per-branch BIAS weight range (kept in the BTB entry).
BIAS_MAX = 31
BIAS_MIN = -31

#: Hash memo size bound; hitting it clears the memo (the memos are
#: pure caches, so clearing is always safe).
_MEMO_CAP = 1 << 16


@dataclass
class ShpPrediction:
    """Everything the front end needs from one SHP lookup."""

    taken: bool
    total: int
    indices: Tuple[int, ...]
    bias: int
    #: True when the branch is in the always-taken filter state.
    filtered_always_taken: bool = False

    @property
    def confidence_margin(self) -> int:
        """|sum|, a proxy for prediction confidence (used by the JRS
        estimator feeding the MRB)."""
        return abs(self.total)


class ScaledHashedPerceptron:
    """The SHP proper.

    Parameters mirror :class:`repro.config.BranchPredictorConfig`; the
    per-branch BIAS/always-taken state conceptually lives in the BTB but is
    owned here for cohesion (the BTB stores an opaque reference to it).
    """

    def __init__(
        self,
        n_tables: int = 8,
        rows: int = 1024,
        ghist_bits: int = 165,
        phist_bits: int = 80,
        theta_init: Optional[int] = None,
        seed_salt: int = 0,
    ) -> None:
        if n_tables < 1 or rows < 2:
            raise ValueError("SHP needs >=1 table and >=2 rows")
        if rows & (rows - 1):
            raise ValueError("rows must be a power of two")
        self.n_tables = n_tables
        self.rows = rows
        self.index_bits = rows.bit_length() - 1
        self.ghist = GlobalHistory(ghist_bits)
        self.phist = PathHistory(phist_bits)
        self.ghist_intervals = geometric_intervals(n_tables, ghist_bits)
        self.phist_intervals = geometric_intervals(n_tables, phist_bits)
        self.tables: List[List[int]] = [[0] * rows for _ in range(n_tables)]
        self.seed_salt = seed_salt
        #: Memos over the pure hash functions: ``pc_hash``/``mix_segment``
        #: depend only on their arguments, so caching them changes how
        #: often they are evaluated, never any value.  The memos are
        #: deliberately not part of ``state_dict`` — they are derivable
        #: caches.
        self._pc_memo: Dict[int, Tuple[int, ...]] = {}
        self._g_memo: List[Dict[int, int]] = [{} for _ in range(n_tables)]
        self._p_memo: List[Dict[int, int]] = [{} for _ in range(n_tables)]

        # O-GEHL adaptive threshold: theta tracks history length scale.
        self.theta = theta_init if theta_init is not None else (
            int(1.93 * n_tables + 14)
        )
        self._theta_counter = 0
        self._theta_counter_max = 63

        # Per-branch BTB-resident state: bias weight + always-taken filter.
        self._bias: Dict[int, int] = {}
        self._seen_not_taken: Dict[int, bool] = {}

        # Statistics.
        self.lookups = 0
        self.updates = 0
        self.filtered_lookups = 0

    # -- indexing -----------------------------------------------------------

    def _indices(self, pc: int) -> Tuple[int, ...]:
        """Per-table row: ``mix_segment`` of the table's GHIST and PHIST
        intervals XOR ``pc_hash`` of the PC, masked to the rows.  Each
        pure hash is computed once per distinct input (per-PC
        ``pc_hash`` vectors, per-(table, raw segment) ``mix_segment``
        values)."""
        bits = self.index_bits
        hs = self._pc_memo.get(pc)
        if hs is None:
            hs = tuple(
                pc_hash(pc, bits, salt=(t + 1) * 0x51 + self.seed_salt)
                for t in range(self.n_tables))
            if len(self._pc_memo) > _MEMO_CAP:
                self._pc_memo.clear()
            self._pc_memo[pc] = hs
        gv = self.ghist.value
        pv = self.phist.value
        mask = self.rows - 1
        g_memo = self._g_memo
        p_memo = self._p_memo
        idx = []
        for t in range(self.n_tables):
            glo, ghi = self.ghist_intervals[t]
            plo, phi = self.phist_intervals[t]
            gseg = (gv >> glo) & ((1 << (ghi - glo)) - 1)
            gm = g_memo[t]
            g = gm.get(gseg)
            if g is None:
                if len(gm) > _MEMO_CAP:
                    gm.clear()
                g = gm[gseg] = mix_segment(gseg, ghi - glo, bits, salt=t + 1)
            pseg = (pv >> plo) & ((1 << (phi - plo)) - 1)
            pm = p_memo[t]
            p = pm.get(pseg)
            if p is None:
                if len(pm) > _MEMO_CAP:
                    pm.clear()
                p = pm[pseg] = mix_segment(pseg, phi - plo, bits,
                                           salt=0x40 + t)
            idx.append((g ^ p ^ hs[t]) & mask)
        return tuple(idx)

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> ShpPrediction:
        """Compute the SHP sum for the branch at ``pc``.

        The BIAS weight is doubled before being added to the eight (or
        sixteen) table weights; sum >= 0 predicts TAKEN.
        """
        self.lookups += 1
        indices = self._indices(pc)
        bias = self._bias.get(pc, 1)  # fresh branches lean weakly taken
        total = 2 * bias
        for t, i in enumerate(indices):
            total += self.tables[t][i]
        filtered = not self._seen_not_taken.get(pc, False) and pc in self._bias
        if filtered:
            self.filtered_lookups += 1
            return ShpPrediction(taken=True, total=total, indices=indices,
                                 bias=bias, filtered_always_taken=True)
        return ShpPrediction(taken=total >= 0, total=total, indices=indices,
                             bias=bias)

    # -- training -------------------------------------------------------------

    def _adjust_theta(self, mispredicted: bool, margin_low: bool) -> None:
        """O-GEHL threshold fitting: keep the rate of mispredict-driven
        updates balanced against low-margin-driven updates."""
        if mispredicted:
            self._theta_counter += 1
            if self._theta_counter >= self._theta_counter_max:
                self._theta_counter = 0
                self.theta += 1
        elif margin_low:
            self._theta_counter -= 1
            if self._theta_counter <= -self._theta_counter_max:
                self._theta_counter = 0
                if self.theta > 1:
                    self.theta -= 1

    def update(self, pc: int, taken: bool,
               prediction: Optional[ShpPrediction] = None) -> None:
        """Train on the resolved outcome of the branch at ``pc``.

        Must be called for every retired conditional branch; history
        updates happen separately via :meth:`push_history` so that
        prediction and history advance in the same order the hardware does.
        """
        if prediction is None:
            prediction = self.predict(pc)
            self.lookups -= 1  # internal re-lookup, not a real access

        # Maintain the always-taken filter state.
        first_time = pc not in self._bias
        if first_time:
            self._bias[pc] = 1 if taken else -1
            self._seen_not_taken[pc] = not taken
            return  # discovery; no weight training yet
        if not taken:
            self._seen_not_taken[pc] = True

        if not self._seen_not_taken[pc]:
            # Still in always-taken state: do not touch the weight tables
            # (Section IV-A aliasing reduction); keep bias saturating up.
            if self._bias[pc] < BIAS_MAX:
                self._bias[pc] += 1
            return

        mispredicted = prediction.taken != taken
        margin_low = prediction.confidence_margin <= self.theta
        if not mispredicted and not margin_low:
            return

        self.updates += 1
        self._adjust_theta(mispredicted, margin_low)
        delta = 1 if taken else -1
        bias = self._bias[pc] + delta
        self._bias[pc] = max(BIAS_MIN, min(BIAS_MAX, bias))
        for t, i in enumerate(prediction.indices):
            w = self.tables[t][i] + delta
            self.tables[t][i] = max(WEIGHT_MIN, min(WEIGHT_MAX, w))

    # -- history maintenance ----------------------------------------------------

    def push_history(self, pc: int, is_conditional: bool, taken: bool) -> None:
        """Advance GHIST (conditionals only) and PHIST (every branch)."""
        if is_conditional:
            self.ghist.push(taken)
        self.phist.push(pc)

    # -- checkpointing (for speculation repair in the full front end) ---------

    def snapshot(self) -> Tuple[int, int]:
        return (self.ghist.snapshot(), self.phist.snapshot())

    def restore(self, snap: Tuple[int, int]) -> None:
        self.ghist.restore(snap[0])
        self.phist.restore(snap[1])

    # -- checkpointing (the whole-predictor state_dict protocol) --------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "ghist": self.ghist.state_dict(),
            "phist": self.phist.state_dict(),
            "tables": [list(t) for t in self.tables],
            "theta": self.theta,
            "theta_counter": self._theta_counter,
            "bias": to_pairs(self._bias),
            "seen_not_taken": to_pairs(self._seen_not_taken),
            "lookups": self.lookups,
            "updates": self.updates,
            "filtered_lookups": self.filtered_lookups,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from ..state import dict_from_pairs

        tables = [list(t) for t in state["tables"]]
        if len(tables) != self.n_tables or \
                any(len(t) != self.rows for t in tables):
            raise ValueError("SHP table geometry mismatch vs checkpoint")
        self.ghist.load_state_dict(state["ghist"])
        self.phist.load_state_dict(state["phist"])
        self.tables = tables
        self.theta = int(state["theta"])
        self._theta_counter = int(state["theta_counter"])
        self._bias = {int(k): int(v)
                      for k, v in dict_from_pairs(state["bias"]).items()}
        self._seen_not_taken = {
            int(k): bool(v)
            for k, v in dict_from_pairs(state["seen_not_taken"]).items()}
        self.lookups = int(state["lookups"])
        self.updates = int(state["updates"])
        self.filtered_lookups = int(state["filtered_lookups"])

    # -- accounting -------------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Weight-table storage (the Table II "SHP" column); the BIAS lives
        in the BTB entry and is counted there."""
        return self.n_tables * self.rows * 8
