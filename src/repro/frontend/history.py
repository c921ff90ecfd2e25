"""Branch history registers and hashing utilities (Section IV-A).

The SHP's table indices are XOR hashes of three components:

1. a hash of the global outcome history (GHIST) over a per-table interval
   — the GHIST records one bit per conditional branch outcome;
2. a hash of the path history (PHIST) over a per-table interval — the
   PHIST records bits two through four of each branch address encountered;
3. a hash of the branch PC.

M1 keeps 165 bits of GHIST and 80 bits of PHIST; M5 grew GHIST by 25%
(to 206 bits here) and rebalanced the intervals.

:class:`HistoryHash` computes the first two components for every table
at once — one *history row* — for every branch of a
:class:`BranchStream` (a compiled trace's branches in order) from a
start history, or, combined with the third, the table rows for one pair
of register values (see :mod:`repro.frontend.shp`).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..traces.types import Kind

if TYPE_CHECKING:
    from ..traces.compiled import CompiledTrace

_GOLDEN = 0x9E3779B9
_M64 = (1 << 64) - 1
#: History-row entries keep the low 32 bits of each table's value, so a
#: row serves every table size up to 2**32 rows ('I' is 4 bytes).
_ROW_MASK = 0xFFFFFFFF
ROW_TYPECODE = "I"
#: Segments a :class:`HistoryHash` remembers per table and register.
_MIX_MEMO_ENTRIES = 1 << 16


def fold_bits(value: int, width: int, out_bits: int) -> int:
    """XOR-fold the low ``width`` bits of ``value`` down to ``out_bits``.

    This is the classic index-folding used by geometric-history predictors;
    it preserves every input bit's influence on the output.
    """
    if out_bits <= 0:
        return 0
    mask = (1 << out_bits) - 1
    value &= (1 << width) - 1 if width > 0 else 0
    folded = 0
    while value:
        folded ^= value & mask
        value >>= out_bits
    return folded


def mix_segment(value: int, width: int, out_bits: int, salt: int = 0) -> int:
    """Non-linearly hash a history segment down to ``out_bits``.

    A raw XOR-fold is linear: two histories differing in single bits at
    positions congruent modulo ``out_bits`` collide systematically, which
    makes loop-exit patterns alias with mid-loop patterns.  Folding to 64
    bits and then applying a multiplicative finaliser destroys that
    structure (the hardware equivalent is folding with a primitive
    polynomial instead of same-width XOR).
    """
    if out_bits <= 0:
        return 0
    folded = fold_bits(value, width, 64) ^ (salt * _GOLDEN & 0xFFFFFFFF)
    folded = (folded * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    folded ^= folded >> 31
    folded = (folded * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    return (folded >> 24) & ((1 << out_bits) - 1)


def _mix32(value: int, width: int, salt_word: int) -> int:
    """The low 32 bits of ``mix_segment(value, width, 32, salt)`` for a
    ``value`` below ``2**width`` (``salt_word`` is ``salt * _GOLDEN``'s
    low 32 bits).  The fold to 64 bits takes one expression up to 256
    bits; the final mask can skip the 64-bit wrap, since bits 24-55 of
    the product are below bit 64."""
    if width > 64:
        if width <= 256:
            value = (value ^ value >> 64 ^ value >> 128
                     ^ value >> 192) & _M64
        else:
            value = fold_bits(value, width, 64)
    x = ((value ^ salt_word) * 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 31
    return ((x * 0xBF58476D1CE4E5B9) >> 24) & _ROW_MASK


class _MixMemo(dict):
    """:func:`_mix32` by segment for one table's GHIST or PHIST
    interval, computed on first use and kept; cleared on reaching
    ``_MIX_MEMO_ENTRIES`` (a pure function's cache, so clearing never
    changes a value)."""

    __slots__ = ("width", "salt_word")

    def __init__(self, width: int, salt: int) -> None:
        super().__init__()
        self.width = width
        self.salt_word = salt * _GOLDEN & 0xFFFFFFFF

    def __missing__(self, segment: int) -> int:
        if len(self) >= _MIX_MEMO_ENTRIES:
            self.clear()
        value = self[segment] = _mix32(segment, self.width, self.salt_word)
        return value


def pc_hash(pc: int, out_bits: int, salt: int = 0) -> int:
    """Hash a (4-byte-aligned) PC down to ``out_bits`` bits."""
    x = (pc >> 2) ^ salt
    x = (x * _GOLDEN) & 0xFFFFFFFF
    return fold_bits(x, 32, out_bits)


def geometric_intervals(n_tables: int, max_bits: int,
                        first: int = 3) -> List[Tuple[int, int]]:
    """Per-table (lo, hi) GHIST bit ranges with geometric spacing.

    Interval ends follow an O-GEHL-style geometric series from ``first``
    up to ``max_bits``; table *i* hashes GHIST bits ``[0, end_i)``.  The
    paper determined its intervals with a stochastic search; a geometric
    ladder is the standard published approximation and preserves the
    property Figure 1 measures (diminishing returns with range growth).
    """
    if n_tables < 1:
        raise ValueError("need at least one table")
    if n_tables == 1:
        return [(0, max_bits)]
    ends: List[int] = []
    ratio = (max_bits / first) ** (1.0 / (n_tables - 1)) if max_bits > first else 1.0
    for i in range(n_tables):
        end = int(round(first * ratio**i))
        end = max(end, (ends[-1] + 1) if ends else 1)
        ends.append(min(end, max_bits))
    return [(0, e) for e in ends]


#: :class:`BranchStream` flag bits.
TAKEN, CONDITIONAL, HAS_ROW = 1, 2, 4
#: The kinds a lookup can read a row at: conditionals (direction) and
#: non-return indirects (VPC).
_ROW_KINDS = frozenset(int(k) for k in (
    Kind.BR_COND, Kind.BR_INDIRECT, Kind.BR_INDIRECT_CALL))


class BranchStream:
    """A compiled trace's branches in order: per branch its position in
    the trace, its PC, a flag (``2 * conditional + taken``, plus 4 when
    it has an SHP row) and its SHP row number (-1 without a row).  The
    branch unit walks the positions; the SHP and the LHP build their
    rows from the rest.  One stream per trace (:meth:`of`)."""

    __slots__ = ("positions", "pcs", "flags", "row_of")

    def __init__(self, trace: "CompiledTrace") -> None:
        kinds, taken, pcs = trace.kind, trace.taken, trace.pc
        cond = int(Kind.BR_COND)
        self.positions = array("i")
        self.pcs = array("q")
        self.flags = array("b")
        self.row_of = array("i")
        rows = 0
        for j, is_branch in enumerate(trace.is_branch):
            if not is_branch:
                continue
            kind = kinds[j]
            flag = (CONDITIONAL if kind == cond else 0) | taken[j]
            row = -1
            if kind in _ROW_KINDS:
                flag |= HAS_ROW
                row = rows
                rows += 1
            self.positions.append(j)
            self.pcs.append(pcs[j])
            self.flags.append(flag)
            self.row_of.append(row)

    @classmethod
    def of(cls, trace: "CompiledTrace") -> "BranchStream":
        """``trace``'s stream, built at first use and kept in its
        ``derived`` cache."""
        stream = trace.derived.get("branch.stream")
        if stream is None:
            stream = trace.derived["branch.stream"] = cls(trace)
        return stream


class HistoryHash:
    """The SHP's per-table history hash over fixed GHIST/PHIST intervals.

    Table ``t`` hashes GHIST bits ``[0, ghist_ends[t])`` and PHIST bits
    ``[0, phist_ends[t])``; its row entry is ``mix_segment(GHIST[0:g_t])
    ^ mix_segment(PHIST[0:p_t])`` (salts ``t + 1`` and ``0x40 + t``)
    before masking to the table's rows.  ``mix_segment`` keeps the low
    ``out_bits`` of one 40-bit value, so one row serves every row count:
    masked to 10 bits it is M1/M2's value, to 11 bits M3/M4's.
    """

    def __init__(self, ghist_ends: Sequence[int],
                 phist_ends: Sequence[int]) -> None:
        if len(ghist_ends) != len(phist_ends):
            raise ValueError("GHIST and PHIST need one interval per table")
        self.n_tables = len(ghist_ends)
        self._ghist_mask = (1 << max(ghist_ends)) - 1
        self._phist_mask = (1 << max(phist_ends)) - 1
        #: Per table: (GHIST mask, its mixes, PHIST mask, its mixes).  An
        #: SHP meets the same segments again and again — record after
        #: record, or row after row of a build — so each is mixed once.
        self._tables = tuple(
            ((1 << g) - 1, _MixMemo(g, t + 1), (1 << p) - 1,
             _MixMemo(p, 0x40 + t))
            for t, (g, p) in enumerate(zip(ghist_ends, phist_ends)))

    def indices(self, ghist: int, phist: int, pc_hashes: Sequence[int],
                mask: int) -> Tuple[int, ...]:
        """Table rows for one (GHIST, PHIST) register pair: each table's
        history row entry XOR its ``pc_hash``, masked to the rows."""
        return tuple([(gmix[ghist & gm] ^ pmix[phist & pm] ^ h) & mask
                      for (gm, gmix, pm, pmix), h in zip(self._tables,
                                                         pc_hashes)])

    def rows(self, stream: "BranchStream", ghist: int, phist: int) -> array:
        """The history rows of the stream's branches that have one,
        concatenated.  Each hashes the history just before its branch;
        every branch then advances the histories as
        :meth:`GlobalHistory.push` and :meth:`PathHistory.push` do,
        starting from ``ghist`` and ``phist``.  Built one table at a
        time."""
        gmask = self._ghist_mask
        pmask = self._phist_mask
        pbits = PathHistory.BITS_PER_BRANCH
        pchunk = (1 << pbits) - 1
        ghist &= gmask
        phist &= pmask
        ghists: List[int] = []
        phists: List[int] = []
        for pc, flag in zip(stream.pcs, stream.flags):
            if flag & HAS_ROW:
                ghists.append(ghist)
                phists.append(phist)
            if flag & CONDITIONAL:
                ghist = ((ghist << 1) | (flag & TAKEN)) & gmask
            phist = ((phist << pbits) | ((pc >> 2) & pchunk)) & pmask
        n = self.n_tables
        out = array(ROW_TYPECODE, [0]) * (len(ghists) * n)
        for t, (gm, gmix, pm, pmix) in enumerate(self._tables):
            out[t::n] = array(ROW_TYPECODE, map(
                int.__xor__, map(gmix.__getitem__, [g & gm for g in ghists]),
                map(pmix.__getitem__, [p & pm for p in phists])))
        return out


class GlobalHistory:
    """GHIST: one outcome bit per conditional branch, newest in bit 0."""

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("GHIST must hold at least one bit")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0

    def push(self, taken: bool) -> None:
        self.value = ((self.value << 1) | (1 if taken else 0)) & self._mask

    def segment(self, lo: int, hi: int) -> int:
        """GHIST bits in [lo, hi), bit ``lo`` being the most recent."""
        return (self.value >> lo) & ((1 << (hi - lo)) - 1)

    def snapshot(self) -> int:
        return self.value

    def restore(self, snap: int) -> None:
        self.value = snap & self._mask

    def state_dict(self) -> dict[str, object]:
        return {"value": self.value}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.restore(int(state["value"]))


class PathHistory:
    """PHIST: three address bits (bits 2..4) per encountered branch."""

    #: Address bits recorded per branch (paper: bits two through four).
    BITS_PER_BRANCH = 3

    def __init__(self, bits: int) -> None:
        if bits < self.BITS_PER_BRANCH:
            raise ValueError("PHIST too small for even one branch")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0

    def push(self, pc: int) -> None:
        chunk = (pc >> 2) & ((1 << self.BITS_PER_BRANCH) - 1)
        self.value = ((self.value << self.BITS_PER_BRANCH) | chunk) & self._mask

    def segment(self, lo: int, hi: int) -> int:
        return (self.value >> lo) & ((1 << (hi - lo)) - 1)

    def snapshot(self) -> int:
        return self.value

    def restore(self, snap: int) -> None:
        self.value = snap & self._mask

    def state_dict(self) -> dict[str, object]:
        return {"value": self.value}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.restore(int(state["value"]))


class IndirectTargetHistory:
    """History of recent indirect-branch targets.

    Used by M6's dedicated indirect hash table: Section IV-F observes that
    the standard GHIST/PHIST/PC hash "did not perform well, as the
    precursor conditional branches do not highly correlate with the
    indirect targets", so the dedicated table hashes *recent indirect
    branch targets* instead.
    """

    def __init__(self, depth: int = 1, bits_per_target: int = 10) -> None:
        self.depth = depth
        self.bits_per_target = bits_per_target
        self._mask = (1 << (depth * bits_per_target)) - 1
        self.value = 0

    def push(self, target: int) -> None:
        chunk = fold_bits(target >> 2, 32, self.bits_per_target)
        self.value = ((self.value << self.bits_per_target) | chunk) & self._mask

    def index(self, pc: int, out_bits: int) -> int:
        return (
            fold_bits(self.value, self.depth * self.bits_per_target, out_bits)
            ^ pc_hash(pc, out_bits, salt=0xD1)
        )

    def snapshot(self) -> int:
        return self.value

    def restore(self, snap: int) -> None:
        self.value = snap & self._mask

    def state_dict(self) -> dict[str, object]:
        return {"value": self.value}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.restore(int(state["value"]))
