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

Table ``t``'s row for a lookup is ``(history[t] ^ pc_hash[t]) & (rows -
1)``, where ``history`` is the :class:`~repro.frontend.history
.HistoryHash` row of the current GHIST/PHIST.  Both registers advance on
actual outcomes, so their value at each dynamic branch depends on the
trace alone: :meth:`ScaledHashedPerceptron.bind` points the SHP at rows
computed once per (compiled trace, history intervals, start history)
and cached on the trace —

- *history rows*, one per conditional and non-return indirect branch;
  M1-M4 share one 8-table set, M5/M6 one 16-table set;
- *index rows*, the history row XOR the branch's own ``pc_hash``,
  masked; M1/M2, M3/M4 and M5/M6 each share one set.

A lookup for the branch's own PC returns its index row, a VPC virtual PC
XORs its ``pc_hash`` into the history row, and an unbound SHP (driven
one record at a time) hashes its own registers with the same
:class:`~repro.frontend.history.HistoryHash` and its per-segment
memos.  GHIST and PHIST stay registers, so the checkpoint state is the
same either way.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .history import (
    CONDITIONAL,
    HAS_ROW,
    ROW_TYPECODE,
    TAKEN,
    BranchStream,
    GlobalHistory,
    HistoryHash,
    PathHistory,
    geometric_intervals,
    pc_hash,
)

if TYPE_CHECKING:
    from ..traces.compiled import CompiledTrace

#: 8-bit sign/magnitude weights: magnitude 0..127 plus a sign bit.
WEIGHT_MAX = 127
WEIGHT_MIN = -127

#: Per-branch BIAS weight range (kept in the BTB entry).
BIAS_MAX = 31
BIAS_MIN = -31

#: One SHP lookup, as :meth:`ScaledHashedPerceptron.predict` returns it
#: and :meth:`~ScaledHashedPerceptron.update` takes it back: the
#: predicted direction, the sum and the per-table rows.
ShpLookup = Tuple[bool, int, Sequence[int]]

#: A lookup's table weights, summed in C: ``sum(map(_WEIGHT, tables,
#: indices))``.
_WEIGHT = list.__getitem__


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
        ghist_ends = tuple(hi for _, hi in self.ghist_intervals)
        phist_ends = tuple(hi for _, hi in self.phist_intervals)
        self._history_hash = HistoryHash(ghist_ends, phist_ends)
        #: What the history rows depend on besides the trace and the
        #: start history: the intervals (equal on M1-M4, and on M5/M6).
        self._history_key = (ghist_ends, phist_ends)
        #: Per-PC ``pc_hash`` vectors (a pure function's memo, never
        #: checkpointed); keyed by branch and VPC virtual PCs, so bounded
        #: by the program's static branches.
        self._pc_memo: Dict[int, Tuple[int, ...]] = {}
        #: The bound branch stream (None = unbound), its rows, and the
        #: number of its branches pushed so far.
        self._stream: Optional[BranchStream] = None
        self._hist_rows = array(ROW_TYPECODE)
        self._index_rows = array(ROW_TYPECODE)
        self._cursor = 0

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
        self.filtered_lookups = 0

    # -- indexing -----------------------------------------------------------

    def _pc_hashes(self, pc: int) -> Tuple[int, ...]:
        hs = self._pc_memo.get(pc)
        if hs is None:
            bits = self.index_bits
            hs = self._pc_memo[pc] = tuple(
                pc_hash(pc, bits, salt=(t + 1) * 0x51 + self.seed_salt)
                for t in range(self.n_tables))
        return hs

    def _indices(self, pc: int) -> Sequence[int]:
        """Per-table row for a lookup of ``pc`` at the current history:
        the bound stream's index row when ``pc`` is its next branch's
        own PC, else a history row XOR ``pc``'s hashes, masked — the
        stream's row, or one hashed from the registers."""
        stream = self._stream
        if stream is not None:
            row = stream.row_of[self._cursor]
            if row >= 0:
                n = self.n_tables
                o = row * n
                if pc == stream.pcs[self._cursor]:
                    return self._index_rows[o:o + n]
                mask = self.rows - 1
                return tuple([(h ^ x) & mask for h, x in zip(
                    self._hist_rows[o:o + n], self._pc_hashes(pc))])
        return self._history_hash.indices(self.ghist.value, self.phist.value,
                                          self._pc_hashes(pc), self.rows - 1)

    def bind(self, trace: "CompiledTrace") -> None:
        """Serve lookups over ``trace``'s branches from rows built for
        the current GHIST/PHIST.

        The rows live in the trace's ``derived`` cache, so every SHP with
        the same intervals (and row count, for the index rows) that
        starts ``trace`` from the same history reuses them.  From here
        on each :meth:`push_history` must push the stream's next branch;
        the binding ends after its last branch, on
        :meth:`load_state_dict`, or at the next ``bind``."""
        cache = trace.derived
        stream = BranchStream.of(trace)
        start = (self._history_key, self.ghist.value, self.phist.value)
        hist = cache.get(("shp.history",) + start)
        if hist is None:
            hist = cache[("shp.history",) + start] = self._history_hash.rows(
                stream, self.ghist.value, self.phist.value)
        index_key = ("shp.index",) + start + (self.index_bits,
                                              self.seed_salt)
        index = cache.get(index_key)
        if index is None:
            index = cache[index_key] = self._build_index_rows(stream, hist)
        self._hist_rows = hist
        self._index_rows = index
        self._cursor = 0
        self._stream = stream if len(stream.pcs) else None

    def _build_index_rows(self, stream: BranchStream, hist: array) -> array:
        """Each history row XOR its own branch's ``pc_hash`` vector,
        masked to the rows; built one table at a time."""
        n = self.n_tables
        mask = self.rows - 1
        pcs = [pc for pc, flag in zip(stream.pcs, stream.flags)
               if flag & HAS_ROW]
        hashes = [self._pc_hashes(pc) for pc in pcs]
        out = array(ROW_TYPECODE, [0]) * len(hist)
        for t in range(n):
            out[t::n] = array(ROW_TYPECODE, [
                (h ^ hs[t]) & mask for h, hs in zip(hist[t::n], hashes)])
        return out

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> ShpLookup:
        """Look up the branch at ``pc``: ``(taken, total, indices)``.

        ``total`` is the BIAS weight, doubled, plus the eight (or
        sixteen) table weights; sum >= 0 predicts TAKEN, and a branch in
        the always-taken filter state predicts TAKEN whatever its sum.
        """
        indices = self._indices(pc)
        bias = self._bias.get(pc)
        if bias is None:  # fresh branches lean weakly taken
            total = 2 + sum(map(_WEIGHT, self.tables, indices))
            return total >= 0, total, indices
        total = 2 * bias + sum(map(_WEIGHT, self.tables, indices))
        if not self._seen_not_taken.get(pc, False):
            self.filtered_lookups += 1
            return True, total, indices
        return total >= 0, total, indices

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
               prediction: Optional[ShpLookup] = None) -> None:
        """Train on the resolved outcome of the branch at ``pc``, given
        its :meth:`predict` lookup (looked up again when omitted).

        Must be called for every retired conditional branch; history
        updates happen separately via :meth:`push_history` so that
        prediction and history advance in the same order the hardware does.
        """
        if prediction is None:
            prediction = self.predict(pc)
        predicted, total, indices = prediction

        # Maintain the always-taken filter state.
        bias = self._bias.get(pc)
        if bias is None:
            self._bias[pc] = 1 if taken else -1
            self._seen_not_taken[pc] = not taken
            return  # discovery; no weight training yet
        if not taken:
            self._seen_not_taken[pc] = True
        elif not self._seen_not_taken[pc]:
            # Still in always-taken state: do not touch the weight tables
            # (Section IV-A aliasing reduction); keep bias saturating up.
            if bias < BIAS_MAX:
                self._bias[pc] = bias + 1
            return

        mispredicted = predicted != taken
        margin_low = abs(total) <= self.theta
        if not mispredicted and not margin_low:
            return

        self._adjust_theta(mispredicted, margin_low)
        # Saturating steps: every weight stays within its range.
        if taken:
            if bias < BIAS_MAX:
                self._bias[pc] = bias + 1
            for table, i in zip(self.tables, indices):
                w = table[i]
                if w < WEIGHT_MAX:
                    table[i] = w + 1
        else:
            if bias > BIAS_MIN:
                self._bias[pc] = bias - 1
            for table, i in zip(self.tables, indices):
                w = table[i]
                if w > WEIGHT_MIN:
                    table[i] = w - 1

    # -- history maintenance ----------------------------------------------------

    def push_history(self, pc: int, is_conditional: bool, taken: bool) -> None:
        """Advance GHIST (conditionals only) and PHIST (every branch).

        A bound SHP checks that this is the stream's next branch and
        raises ``ValueError`` otherwise: its rows would no longer
        describe the history."""
        stream = self._stream
        if stream is not None:
            k = self._cursor
            flag = ((CONDITIONAL if is_conditional else 0)
                    | (TAKEN if taken else 0))
            want = stream.flags[k] & (CONDITIONAL | TAKEN)
            if pc != stream.pcs[k] or want != flag:
                raise ValueError(
                    f"SHP bound to a branch stream expects branch {k} "
                    f"(pc {stream.pcs[k]:#x}, flag {want}), got pc "
                    f"{pc:#x}, flag {flag}")
            k += 1
            if k == len(stream.pcs):
                self._stream = None
            self._cursor = k
        if is_conditional:
            self.ghist.push(taken)
        self.phist.push(pc)

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
            "filtered_lookups": self.filtered_lookups,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from ..state import dict_from_pairs

        tables = [list(t) for t in state["tables"]]
        if len(tables) != self.n_tables or \
                any(len(t) != self.rows for t in tables):
            raise ValueError("SHP table geometry mismatch vs checkpoint")
        self._stream = None  # the rows assumed the replaced history
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
        self.filtered_lookups = int(state["filtered_lookups"])

    # -- accounting -------------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Weight-table storage (the Table II "SHP" column); the BIAS lives
        in the BTB entry and is counted there."""
        return self.n_tables * self.rows * 8
