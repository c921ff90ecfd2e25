"""Indirect branch prediction: VPC and the M6 VPC+hash hybrid.

The indirect predictor is based on the Virtual Program Counter (VPC)
approach: an indirect prediction becomes a sequence of conditional
predictions of "virtual PCs" that each consult the SHP, with each unique
target (up to a design-specified maximum chain length) stored at the
program order of the indirect branch; overflow targets live in the shared
vBTB (Section IV, Figure 3).

VPC takes O(n) cycles to train and predict an n-target branch.  M6
responds to JavaScript-style call sites with hundreds of targets by adding
dedicated storage — an indirect target hash table indexed by *recent
indirect-target history* (the standard GHIST/PHIST/PC hash "did not
perform well") — run in parallel with a VPC limited to 5 targets
(Section IV-F, Figure 8).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .history import IndirectTargetHistory, pc_hash
from .shp import ScaledHashedPerceptron

#: Cycles to access the dedicated indirect hash table (a few cycles,
#: Section IV-F: "large dedicated storage takes a few cycles to access").
HASH_TABLE_LATENCY = 3


def virtual_pc(pc: int, position: int) -> int:
    """The VPC algorithm's synthetic PC for chain position ``position``."""
    return (pc ^ ((position + 1) * 0x1F_31)) & 0xFFFF_FFFF_FFFF


@dataclass
class IndirectPrediction:
    target: Optional[int]
    #: Prediction latency in cycles (chain position cost, or the hybrid's
    #: capped latency).
    latency: int
    #: Which mechanism produced it: "vpc", "hash", or "miss".
    source: str
    #: Chain position that predicted taken (for training), -1 otherwise.
    vpc_position: int = -1


class _IndirectHashTable:
    """Tagged, target-history-indexed table with 2-bit useful counters."""

    def __init__(self, entries: int, history: IndirectTargetHistory) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.history = history
        self.table: Dict[int, Tuple[int, int, int]] = {}  # idx -> (tag, target, conf)

    def _index_tag(self, pc: int) -> Tuple[int, int]:
        idx = self.history.index(pc, self.index_bits)
        tag = pc_hash(pc, 10, salt=0xA5) ^ (self.history.value & 0x3FF)
        return idx, tag

    def predict(self, pc: int) -> Optional[Tuple[int, int]]:
        """Returns (target, confidence) on a tag match, else None."""
        idx, tag = self._index_tag(pc)
        hit = self.table.get(idx)
        if hit is not None and hit[0] == tag:
            return hit[1], hit[2]
        return None

    def update(self, pc: int, actual_target: int) -> None:
        idx, tag = self._index_tag(pc)
        hit = self.table.get(idx)
        if hit is None or hit[0] != tag:
            # Allocate on miss, or steal on low confidence.
            if hit is None or hit[2] == 0:
                self.table[idx] = (tag, actual_target, 1)
            else:
                self.table[idx] = (hit[0], hit[1], hit[2] - 1)
            return
        _, target, conf = hit
        if target == actual_target:
            self.table[idx] = (tag, target, min(3, conf + 1))
        elif conf > 0:
            self.table[idx] = (tag, target, conf - 1)
        else:
            self.table[idx] = (tag, actual_target, 1)


class VPCPredictor:
    """VPC chains consulting the SHP, with the optional M6 hash hybrid.

    ``shp`` is the main SHP instance — the VPC algorithm deliberately
    reuses the conditional prediction hardware for its virtual branches.
    Virtual lookups train the SHP weights but do not advance the real
    GHIST (the pipeline inserts virtual history transiently; the retired
    history stream this model maintains matches the architectural one).
    """

    #: Chain positions resident in the branch's own mBTB entry; positions
    #: beyond this spill to the shared vBTB (Figure 3: "several of which
    #: are stored in the shared vBTB").
    RESIDENT_TARGETS = 4

    def __init__(
        self,
        shp: ScaledHashedPerceptron,
        max_targets: int = 16,
        hybrid_hash_entries: int = 0,
        hybrid_vpc_targets: int = 5,
        target_history: Optional[IndirectTargetHistory] = None,
        vbtb_chain_slots: int = 0,
    ) -> None:
        self.shp = shp
        self.max_targets = max_targets
        self.hybrid_vpc_targets = hybrid_vpc_targets
        self.target_history = (
            target_history if target_history is not None
            else IndirectTargetHistory()
        )
        self.hash_table: Optional[_IndirectHashTable] = None
        if hybrid_hash_entries:
            self.hash_table = _IndirectHashTable(hybrid_hash_entries,
                                                 self.target_history)
        #: Per-branch target chains, in discovery order (Figure 3).
        self.chains: Dict[int, List[int]] = {}
        #: Shared vBTB budget for chain positions beyond RESIDENT_TARGETS
        #: (0 = unlimited).  Many-target branches "consume much of the
        #: vBTB" (Section IV-F) — this is that contention.
        self.vbtb_chain_slots = vbtb_chain_slots
        self._spilled_slots = 0
        #: LRU order of branches holding spilled slots.
        self._spill_lru: List[int] = []

        # Statistics.
        self.vpc_hits = 0
        self.hash_hits = 0
        self.chain_overflows = 0
        self.vbtb_chain_evictions = 0

    @property
    def is_hybrid(self) -> bool:
        return self.hash_table is not None

    # -- prediction ------------------------------------------------------------

    def predict(self, pc: int) -> IndirectPrediction:
        """Walk the VPC chain (and the hash table when hybrid)."""
        chain = self.chains.get(pc, ())
        vpc_limit = (
            min(len(chain), self.hybrid_vpc_targets)
            if self.is_hybrid else len(chain)
        )
        # Megamorphic arbitration (Section IV-F): for branches whose target
        # count exceeds the retained VPC prefix, a confident hash-table
        # entry wins — "the accuracy of SHP+VPC+hash-table lookups still
        # proves superior ... for small numbers of targets", i.e. VPC keeps
        # priority only on small-target branches.
        if self.is_hybrid and len(chain) > self.hybrid_vpc_targets:
            hashed = self.hash_table.predict(pc)
            if hashed is not None and hashed[1] >= 2:
                self.hash_hits += 1
                latency = max(vpc_limit, HASH_TABLE_LATENCY)
                return IndirectPrediction(hashed[0], latency=latency,
                                          source="hash")
        vpc_target: Optional[int] = None
        vpc_pos = -1
        for i in range(vpc_limit):
            if self.shp.predict(virtual_pc(pc, i))[0]:
                vpc_target = chain[i]
                vpc_pos = i
                break
        if vpc_target is not None:
            self.vpc_hits += 1
            return IndirectPrediction(vpc_target, latency=vpc_pos + 1,
                                      source="vpc", vpc_position=vpc_pos)
        if self.is_hybrid:
            # Limited-length VPC ran in parallel with the hash-table launch
            # (Figure 8): total latency is the max of the two paths.
            hashed = self.hash_table.predict(pc)
            latency = max(vpc_limit, HASH_TABLE_LATENCY)
            if hashed is not None:
                self.hash_hits += 1
                return IndirectPrediction(hashed[0], latency=latency,
                                          source="hash")
            return IndirectPrediction(None, latency=latency, source="miss")
        # Full VPC exhausted without a taken virtual branch: fall back to
        # the most recently used target if any (costing the full chain).
        if chain:
            return IndirectPrediction(chain[0], latency=len(chain),
                                      source="vpc", vpc_position=0)
        return IndirectPrediction(None, latency=1, source="miss")

    # -- training --------------------------------------------------------------

    def update(self, pc: int, actual_target: int,
               prediction: Optional[IndirectPrediction] = None) -> None:
        """Train chains, virtual branches and (when hybrid) the hash table.

        Per the VPC algorithm: the virtual branch whose stored target
        matches the actual target trains TAKEN; earlier chain positions
        train NOT-TAKEN.
        """
        chain = self.chains.setdefault(pc, [])
        try:
            match_pos = chain.index(actual_target)
        except ValueError:
            match_pos = -1
            if len(chain) < self.max_targets:
                if len(chain) >= self.RESIDENT_TARGETS:
                    self._claim_spill_slot(pc)
                chain.append(actual_target)
                match_pos = len(chain) - 1
            else:
                # Chain full: recycle the tail slot (vBTB contention).
                self.chain_overflows += 1
                chain[-1] = actual_target
                match_pos = len(chain) - 1
        if len(chain) > self.RESIDENT_TARGETS and pc in self._spill_lru:
            self._spill_lru.remove(pc)
            self._spill_lru.append(pc)
        # Train virtual conditional branches up to the matching position.
        train_limit = (
            min(len(chain), self.hybrid_vpc_targets)
            if self.is_hybrid else len(chain)
        )
        for i in range(min(match_pos + 1, train_limit)):
            self.shp.update(virtual_pc(pc, i), i == match_pos)
        if self.is_hybrid:
            self.hash_table.update(pc, actual_target)
        self.target_history.push(actual_target)

    def _claim_spill_slot(self, pc: int) -> None:
        """Allocate one shared-vBTB chain slot; under pressure, the least
        recently trained many-target branch loses its spilled tail."""
        if not self.vbtb_chain_slots:
            return
        if pc not in self._spill_lru:
            self._spill_lru.append(pc)
        while self._spilled_slots >= self.vbtb_chain_slots:
            victim = None
            for cand in self._spill_lru:
                if cand != pc and len(self.chains.get(cand, ())) \
                        > self.RESIDENT_TARGETS:
                    victim = cand
                    break
            if victim is None:
                # Only this branch holds spills: recycle its own tail.
                chain = self.chains[pc]
                if len(chain) > self.RESIDENT_TARGETS:
                    chain.pop()
                    self._spilled_slots -= 1
                    self.vbtb_chain_evictions += 1
                else:
                    return
                continue
            vchain = self.chains[victim]
            vchain.pop()
            self._spilled_slots -= 1
            self.vbtb_chain_evictions += 1
            if len(vchain) <= self.RESIDENT_TARGETS:
                self._spill_lru.remove(victim)
        self._spilled_slots += 1

    def chain_length(self, pc: int) -> int:
        return len(self.chains.get(pc, ()))

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        # The SHP is shared with (and checkpointed by) the branch unit;
        # only VPC-owned state is captured here.  The hash table's
        # ``history`` reference is the shared ``target_history`` object,
        # which is restored in place so the alias survives.
        from ..state import to_pairs

        return {
            "chains": [[pc, list(chain)]
                       for pc, chain in self.chains.items()],
            "spilled_slots": self._spilled_slots,
            "spill_lru": list(self._spill_lru),
            "target_history": self.target_history.state_dict(),
            "hash_table": (to_pairs(self.hash_table.table)
                           if self.hash_table is not None else None),
            "vpc_hits": self.vpc_hits,
            "hash_hits": self.hash_hits,
            "chain_overflows": self.chain_overflows,
            "vbtb_chain_evictions": self.vbtb_chain_evictions,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.chains = {int(pc): [int(t) for t in chain]
                       for pc, chain in state["chains"]}
        self._spilled_slots = int(state["spilled_slots"])
        self._spill_lru = [int(pc) for pc in state["spill_lru"]]
        self.target_history.load_state_dict(state["target_history"])
        table_state = state["hash_table"]
        if (table_state is None) != (self.hash_table is None):
            raise ValueError("hybrid hash-table presence mismatch vs "
                             "checkpoint")
        if self.hash_table is not None:
            self.hash_table.table = {
                int(idx): (int(tag), int(target), int(conf))
                for idx, (tag, target, conf) in table_state}
        self.vpc_hits = int(state["vpc_hits"])
        self.hash_hits = int(state["hash_hits"])
        self.chain_overflows = int(state["chain_overflows"])
        self.vbtb_chain_evictions = int(state["vbtb_chain_evictions"])
