"""Local-history hashed perceptron (LHP) used inside the uBTB.

Difficult-to-predict branch nodes in the uBTB graph are "augmented with use
of a local-history hashed perceptron" (Section IV-B, Figure 4).  Unlike the
SHP, which correlates with *global* outcome history, the LHP keeps a short
per-branch outcome history and hashes segments of it into small weight
tables — ideal for the loop/pattern branches that dominate uBTB-resident
kernels.

Table ``t``'s row for a lookup is ``fold_bits`` of the table's segment
of the branch's local history XOR ``pc_hash`` of its PC, masked to the
rows.  The uBTB trains the LHP once per retired conditional, and each
history slot advances on actual outcomes, so in a single-program run the
``(pc, history)`` pair of each dynamic conditional depends on the trace
alone.  :meth:`LocalHashedPerceptron.bind` points the LHP at one *row*
per conditional branch of a compiled trace — its PC, history slot, slot
history and table indices — built once per (compiled trace, LHP
geometry, start histories) and cached on the trace, so M1-M6, which all
build the default LHP, share one set.

A lookup reads the next row only when its PC and its slot's current
history equal the row's, and only such an :meth:`~LocalHashedPerceptron
.update` moves on to the following row.  An index is a pure function of
``(pc, history)``, so no lookup can read a wrong row; any other lookup
(a uBTB node whose kind came from another process's branch at the same
PC, or an unbound LHP driven one record at a time) hashes from the
registers.  The histories stay registers, so the checkpoint state is the
same either way.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .history import (
    CONDITIONAL,
    ROW_TYPECODE,
    TAKEN,
    BranchStream,
    fold_bits,
    geometric_intervals,
    pc_hash,
)

if TYPE_CHECKING:
    from ..traces.compiled import CompiledTrace

_WEIGHT_MAX = 31
_WEIGHT_MIN = -31
#: A lookup's table weights, summed in C: ``sum(map(_WEIGHT, tables,
#: indices))``.
_WEIGHT = list.__getitem__

#: Rows of an unbound LHP: none.  Never written to.
_NO_ROWS = (array("q"), array(ROW_TYPECODE), array("Q"), array(ROW_TYPECODE))


class LocalHashedPerceptron:
    """Small hashed perceptron over per-branch local history."""

    def __init__(self, n_tables: int = 3, rows: int = 128,
                 local_bits: int = 16, history_entries: int = 64) -> None:
        if rows & (rows - 1):
            raise ValueError("rows must be a power of two")
        self.n_tables = n_tables
        self.rows = rows
        self.index_bits = rows.bit_length() - 1
        self.local_bits = local_bits
        self.history_entries = history_entries
        self.intervals = geometric_intervals(n_tables, local_bits, first=2)
        self.tables: List[List[int]] = [[0] * rows for _ in range(n_tables)]
        # Per-branch local history, hash-indexed with bounded capacity.
        self._local: Dict[int, int] = {}
        self._mask = (1 << local_bits) - 1
        self.theta = int(1.93 * n_tables + 4)
        #: Per-PC history slots and ``pc_hash`` vectors (pure functions'
        #: memos, never checkpointed), bounded by the program's static
        #: branches.
        self._slot_memo: Dict[int, int] = {}
        self._pc_memo: Dict[int, Tuple[int, ...]] = {}
        #: The bound rows (see :meth:`bind`): per conditional branch its
        #: PC, history slot and slot history, and its ``n_tables``
        #: indices concatenated; and the next row's number.
        self._row_pcs, self._row_slots, self._row_hists, self._row_index = \
            _NO_ROWS
        self._cursor = 0

    def _history_slot(self, pc: int) -> int:
        slot = self._slot_memo.get(pc)
        if slot is None:
            slot = self._slot_memo[pc] = pc_hash(
                pc, self.history_entries.bit_length() - 1, salt=0x77)
        return slot

    def _indices(self, pc: int, lhist: int) -> Tuple[int, ...]:
        """Per-table row: ``fold_bits`` of the table's local-history
        segment XOR ``pc_hash`` of the PC, masked to the rows."""
        bits = self.index_bits
        ps = self._pc_memo.get(pc)
        if ps is None:
            ps = self._pc_memo[pc] = tuple(
                pc_hash(pc, bits, salt=(t + 3) * 0x2B)
                for t in range(self.n_tables))
        mask = self.rows - 1
        return tuple([(fold_bits(lhist >> lo, hi - lo, bits) ^ p) & mask
                      for (lo, hi), p in zip(self.intervals, ps)])

    def _lookup(self, pc: int) -> Tuple[int, int, Sequence[int], bool]:
        """``(slot, history, indices, bound)`` of a lookup of ``pc`` now:
        the next row's when its PC and its slot's history match
        (``bound``), else hashed from the registers."""
        k = self._cursor
        if k < len(self._row_pcs) and pc == self._row_pcs[k]:
            slot = self._row_slots[k]
            lhist = self._local.get(slot, 0)
            if lhist == self._row_hists[k]:
                n = self.n_tables
                return slot, lhist, self._row_index[k * n:k * n + n], True
        else:
            slot = self._history_slot(pc)
            lhist = self._local.get(slot, 0)
        return slot, lhist, self._indices(pc, lhist), False

    def bind(self, trace: "CompiledTrace") -> None:
        """Serve lookups over ``trace``'s conditional branches from rows
        built for the current local histories.

        The rows live in the trace's ``derived`` cache, so every LHP of
        the same geometry that starts ``trace`` from the same histories
        reuses them.  The binding ends after the last row, on
        :meth:`load_state_dict`, or at the next ``bind``."""
        key = ("lhp.rows", self.n_tables, self.rows, self.local_bits,
               self.history_entries, tuple(sorted(self._local.items())))
        rows = trace.derived.get(key)
        if rows is None:
            rows = trace.derived[key] = self._build_rows(
                BranchStream.of(trace))
        self._row_pcs, self._row_slots, self._row_hists, self._row_index = \
            rows
        self._cursor = 0

    def _build_rows(self, stream: BranchStream
                    ) -> Tuple[array, array, array, array]:
        """The rows of the stream's conditional branches, each slot's
        history advancing as :meth:`update` advances it, starting from
        the current histories."""
        local = dict(self._local)
        mask = self._mask
        pcs, slots, hists, index = (array(a.typecode) for a in _NO_ROWS)
        for pc, flag in zip(stream.pcs, stream.flags):
            if flag & CONDITIONAL:
                slot = self._history_slot(pc)
                lhist = local.get(slot, 0)
                pcs.append(pc)
                slots.append(slot)
                hists.append(lhist)
                index.extend(self._indices(pc, lhist))
                local[slot] = ((lhist << 1) | (flag & TAKEN)) & mask
        return pcs, slots, hists, index

    def predict(self, pc: int) -> Tuple[bool, int]:
        """Return (taken, sum) for the branch at ``pc``."""
        total = sum(map(_WEIGHT, self.tables, self._lookup(pc)[2]))
        return total >= 0, total

    def update(self, pc: int, taken: bool) -> bool:
        """Train and advance the branch's local history; returns the
        direction predicted before training."""
        slot, lhist, indices, bound = self._lookup(pc)
        if bound:
            self._cursor += 1
        total = sum(map(_WEIGHT, self.tables, indices))
        predicted = total >= 0
        if predicted != taken or abs(total) <= self.theta:
            # Saturating steps: every weight stays within its range.
            if taken:
                for table, i in zip(self.tables, indices):
                    w = table[i]
                    if w < _WEIGHT_MAX:
                        table[i] = w + 1
            else:
                for table, i in zip(self.tables, indices):
                    w = table[i]
                    if w > _WEIGHT_MIN:
                        table[i] = w - 1
        self._local[slot] = ((lhist << 1) | (1 if taken else 0)) & self._mask
        return predicted

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "tables": [list(t) for t in self.tables],
            "local": to_pairs(self._local),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from ..state import dict_from_pairs

        tables = [list(t) for t in state["tables"]]
        if len(tables) != self.n_tables or \
                any(len(t) != self.rows for t in tables):
            raise ValueError("LHP table geometry mismatch vs checkpoint")
        # The rows assumed the replaced histories.
        self._row_pcs, self._row_slots, self._row_hists, self._row_index = \
            _NO_ROWS
        self.tables = tables
        self._local = {int(k): int(v)
                       for k, v in dict_from_pairs(state["local"]).items()}

    @property
    def storage_bits(self) -> int:
        weight_bits = self.n_tables * self.rows * 6
        history_bits = self.history_entries * self.local_bits
        return weight_bits + history_bits
