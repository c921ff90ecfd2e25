"""Branch Target Buffer hierarchy: mBTB, vBTB and L2BTB (Section IV).

The main BTB (mBTB) is organised as lines holding the first eight
*discovered* branches per 128-byte cacheline ("based on the gross average
of 5 instructions per branch", Figure 2).  Dense branch lines exceeding
eight spill to a virtual-indexed vBTB at an extra access-latency cost.
Learned lines displaced from the mBTB are retained in a larger, slower
Level-2 BTB (L2BTB); M4 doubled its capacity again, reduced its fill
latency and doubled its fill bandwidth (Section IV-D), and the L2BTB "uses
a slower denser macro as part of a latency/area tradeoff" (Table II).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..traces.types import Kind

#: BTB line granule (bytes) and branch slots per line (Figure 2).
LINE_BYTES = 128
SLOTS_PER_LINE = 8
#: A PC's line base: ``pc & _LINE_MASK``.
_LINE_MASK = ~(LINE_BYTES - 1)


@dataclass
class BTBEntry:
    """One discovered branch.

    Besides the target, the entry carries the per-branch state the paper
    locates in the BTB: the SHP "local BIAS" weight lives here conceptually
    (owned by the SHP object), plus always/often-taken markers used by the
    1AT/ZAT/ZOT accelerators.
    """

    pc: int
    target: int
    kind: Kind
    #: Dynamic taken/not-taken counts — classify AT (always-taken) and
    #: OT (often-taken, >=87.5%) branches for the redirect accelerators.
    taken_count: int = 0
    not_taken_count: int = 0
    #: ZAT/ZOT replication: target of the next branch at this entry's
    #: target location, when that next branch is AT/OT (Figure 5).
    replicated_next_pc: Optional[int] = None
    replicated_next_target: Optional[int] = None

    @property
    def is_always_taken(self) -> bool:
        if self.kind != Kind.BR_COND:
            return True
        return self.not_taken_count == 0 and self.taken_count > 0

    @property
    def is_often_taken(self) -> bool:
        total = self.taken_count + self.not_taken_count
        return total >= 8 and self.taken_count * 8 >= total * 7

    def record_outcome(self, taken: bool) -> None:
        if taken:
            self.taken_count += 1
        else:
            self.not_taken_count += 1


class _LineStore:
    """LRU-managed store of BTB lines (line_base -> {pc -> entry})."""

    def __init__(self, capacity_lines: int) -> None:
        self.capacity_lines = capacity_lines
        self.lines: "OrderedDict[int, Dict[int, BTBEntry]]" = OrderedDict()

    def get_line(self, line_base: int, touch: bool = True
                 ) -> Optional[Dict[int, BTBEntry]]:
        line = self.lines.get(line_base)
        if line is not None and touch:
            self.lines.move_to_end(line_base)
        return line

    def install_line(self, line_base: int, entries: Dict[int, BTBEntry]
                     ) -> Optional[Tuple[int, Dict[int, BTBEntry]]]:
        """Install/merge a line; returns an evicted (base, line) or None.

        A new line stores ``entries`` itself, not a copy: every caller
        hands over a dict nothing else holds."""
        if line_base in self.lines:
            self.lines[line_base].update(entries)
            self.lines.move_to_end(line_base)
            return None
        self.lines[line_base] = entries
        self.lines.move_to_end(line_base)
        if len(self.lines) > self.capacity_lines:
            return self.lines.popitem(last=False)
        return None

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def entry_count(self) -> int:
        return sum(len(line) for line in self.lines.values())


class BTBHierarchy:
    """mBTB + vBTB + L2BTB with discovery, spill, eviction and refill.

    The L2BTB acts as a victim/capacity level: lines evicted from the mBTB
    are retained there and refilled on demand, costing ``fill_latency``
    bubbles plus a bandwidth-limited transfer (Section IV-D improved both
    on M4).
    """

    def __init__(
        self,
        mbtb_entries: int,
        vbtb_entries: int,
        l2btb_entries: int,
        l2btb_fill_latency: int = 6,
        l2btb_fill_bandwidth: int = 1,
        has_empty_line_opt: bool = False,
    ) -> None:
        self.mbtb = _LineStore(max(1, mbtb_entries // SLOTS_PER_LINE))
        self.l2btb = _LineStore(max(1, l2btb_entries // SLOTS_PER_LINE))
        self.vbtb: "OrderedDict[int, BTBEntry]" = OrderedDict()
        self.vbtb_capacity = vbtb_entries
        self.l2btb_fill_latency = l2btb_fill_latency
        self.l2btb_fill_bandwidth = l2btb_fill_bandwidth
        self.has_empty_line_opt = has_empty_line_opt
        #: Lines known to contain no branches (Empty Line Optimization,
        #: Section IV-E): lookups of these skip mBTB/SHP access entirely.
        self._empty_lines: "OrderedDict[int, bool]" = OrderedDict()
        self._empty_capacity = 256

        # Statistics.
        self.hits_mbtb = 0
        self.hits_vbtb = 0
        self.hits_l2btb = 0
        self.misses = 0
        self.spills_to_vbtb = 0
        self.l2btb_fills = 0
        self.empty_line_skips = 0

    @staticmethod
    def line_base(pc: int) -> int:
        return pc & _LINE_MASK

    # -- lookup ---------------------------------------------------------------

    def lookup(self, pc: int) -> Tuple[Optional[BTBEntry], str, int]:
        """Probe for the branch at ``pc``; refills from L2BTB on line miss.

        Returns ``(entry, source, extra_bubbles)``: the entry (None on a
        miss), the structure that supplied it (``"mbtb"``, ``"vbtb"``,
        ``"l2btb"`` or ``"miss"``) and the redirect bubbles the lookup
        path adds (vBTB access latency, L2BTB fill latency).
        """
        base = pc & _LINE_MASK
        line = self.mbtb.lines.get(base)
        if line is not None:
            self.mbtb.lines.move_to_end(base)
            entry = line.get(pc)
            if entry is not None:
                self.hits_mbtb += 1
                return entry, "mbtb", 0
            # Line present but branch absent: check the vBTB spill area.
            ventry = self.vbtb.get(pc)
            if ventry is not None:
                self.vbtb.move_to_end(pc)
                self.hits_vbtb += 1
                return ventry, "vbtb", 1
            self.misses += 1
            return None, "miss", 0
        # mBTB line miss: try the L2BTB.
        l2line = self.l2btb.get_line(base, touch=False)
        if l2line is not None and pc in l2line:
            self.hits_l2btb += 1
            self.l2btb_fills += 1
            fill_cycles = self.l2btb_fill_latency + max(
                0,
                (len(l2line) - 1) // max(1, self.l2btb_fill_bandwidth),
            )
            self._install_mbtb_line(base, dict(l2line))
            return l2line[pc], "l2btb", fill_cycles
        ventry = self.vbtb.get(pc)
        if ventry is not None:
            self.vbtb.move_to_end(pc)
            self.hits_vbtb += 1
            return ventry, "vbtb", 1
        self.misses += 1
        return None, "miss", 0

    def peek(self, pc: int) -> Optional[BTBEntry]:
        """The mBTB or vBTB entry for ``pc``, without touching LRU order
        or statistics."""
        line = self.mbtb.lines.get(pc & _LINE_MASK)
        if line is not None and pc in line:
            return line[pc]
        return self.vbtb.get(pc)

    # -- empty-line optimization ------------------------------------------------

    def note_line_scanned(self, line_base: int, had_branch: bool) -> None:
        """Track branch-free lines for the Empty Line Optimization."""
        if not self.has_empty_line_opt:
            return
        if had_branch:
            self._empty_lines.pop(line_base, None)
            return
        self._empty_lines[line_base] = True
        self._empty_lines.move_to_end(line_base)
        if len(self._empty_lines) > self._empty_capacity:
            self._empty_lines.popitem(last=False)

    def is_known_empty(self, line_base: int) -> bool:
        if not self.has_empty_line_opt:
            return False
        if line_base in self._empty_lines:
            self.empty_line_skips += 1
            return True
        return False

    # -- allocation / eviction ----------------------------------------------------

    def discover(self, pc: int, target: int, kind: Kind) -> BTBEntry:
        """Allocate an entry for a newly discovered branch.

        The first eight branches of a 128B line live in the mBTB line;
        further branches spill to the vBTB (Figure 2).
        """
        base = self.line_base(pc)
        line = self.mbtb.get_line(base)
        entry = BTBEntry(pc=pc, target=target, kind=kind)
        if line is None:
            self._install_mbtb_line(base, {pc: entry})
            return entry
        if len(line) < SLOTS_PER_LINE:
            line[pc] = entry
            return entry
        # Dense line: spill to the virtual-indexed BTB.
        self.spills_to_vbtb += 1
        self.vbtb[pc] = entry
        self.vbtb.move_to_end(pc)
        while len(self.vbtb) > self.vbtb_capacity:
            self.vbtb.popitem(last=False)
        return entry

    def _install_mbtb_line(self, base: int,
                           entries: Dict[int, BTBEntry]) -> None:
        evicted = self.mbtb.install_line(base, entries)
        if evicted is not None:
            ebase, eline = evicted
            # Retain learned information in the L2BTB (Section IV).
            self.l2btb.install_line(ebase, eline)

    # -- accounting -----------------------------------------------------------

    @property
    def mbtb_entry_count(self) -> int:
        return self.mbtb.entry_count

    # -- checkpointing (state_dict protocol) --------------------------------

    def find_entry(self, pc: int) -> Optional[BTBEntry]:
        """Locate the entry a lookup for ``pc`` would serve, without
        touching LRU order or statistics (checkpoint restore helper)."""
        entry = self.peek(pc)
        if entry is not None:
            return entry
        l2line = self.l2btb.lines.get(pc & _LINE_MASK)
        if l2line is not None:
            return l2line.get(pc)
        return None

    @staticmethod
    def _entry_to_dict(entry: BTBEntry) -> dict[str, object]:
        return {
            "pc": entry.pc,
            "target": entry.target,
            "kind": int(entry.kind),
            "taken_count": entry.taken_count,
            "not_taken_count": entry.not_taken_count,
            "replicated_next_pc": entry.replicated_next_pc,
            "replicated_next_target": entry.replicated_next_target,
        }

    @staticmethod
    def _entry_from_dict(data: dict[str, object]) -> BTBEntry:
        return BTBEntry(
            pc=int(data["pc"]),
            target=int(data["target"]),
            kind=Kind(int(data["kind"])),
            taken_count=int(data["taken_count"]),
            not_taken_count=int(data["not_taken_count"]),
            replicated_next_pc=(
                int(data["replicated_next_pc"])
                if data["replicated_next_pc"] is not None else None),
            replicated_next_target=(
                int(data["replicated_next_target"])
                if data["replicated_next_target"] is not None else None),
        )

    def state_dict(self) -> dict[str, object]:
        # Entry objects are SHARED between mBTB and L2BTB lines (an
        # L2BTB refill copies the line dict shallowly, the one copy that
        # keeps the two lines distinct dicts), and that aliasing is
        # architectural: training through one location is visible at
        # the other.  Serialize a deduplicated entry pool
        # plus per-structure references into it, so restore rebuilds
        # the exact sharing graph.
        pool: List[BTBEntry] = []
        index: Dict[int, int] = {}

        def ref(entry: BTBEntry) -> int:
            key = id(entry)
            if key not in index:
                index[key] = len(pool)
                pool.append(entry)
            return index[key]

        def store_lines(store: _LineStore) -> List[list[object]]:
            return [[base, [[pc, ref(e)] for pc, e in line.items()]]
                    for base, line in store.lines.items()]

        mbtb = store_lines(self.mbtb)
        l2btb = store_lines(self.l2btb)
        vbtb = [[pc, ref(e)] for pc, e in self.vbtb.items()]
        return {
            "entries": [self._entry_to_dict(e) for e in pool],
            "mbtb": mbtb,
            "l2btb": l2btb,
            "vbtb": vbtb,
            "empty_lines": [base for base in self._empty_lines],
            "hits_mbtb": self.hits_mbtb,
            "hits_vbtb": self.hits_vbtb,
            "hits_l2btb": self.hits_l2btb,
            "misses": self.misses,
            "spills_to_vbtb": self.spills_to_vbtb,
            "l2btb_fills": self.l2btb_fills,
            "empty_line_skips": self.empty_line_skips,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        pool = [self._entry_from_dict(d) for d in state["entries"]]

        def load_store(store: _LineStore, lines: List[list[object]]) -> None:
            store.lines = OrderedDict(
                (int(base), {int(pc): pool[int(i)] for pc, i in refs})
                for base, refs in lines)

        load_store(self.mbtb, state["mbtb"])
        load_store(self.l2btb, state["l2btb"])
        self.vbtb = OrderedDict(
            (int(pc), pool[int(i)]) for pc, i in state["vbtb"])
        self._empty_lines = OrderedDict(
            (int(base), True) for base in state["empty_lines"])
        self.hits_mbtb = int(state["hits_mbtb"])
        self.hits_vbtb = int(state["hits_vbtb"])
        self.hits_l2btb = int(state["hits_l2btb"])
        self.misses = int(state["misses"])
        self.spills_to_vbtb = int(state["spills_to_vbtb"])
        self.l2btb_fills = int(state["l2btb_fills"])
        self.empty_line_skips = int(state["empty_line_skips"])
