"""Graph-based zero-bubble micro-BTB (Section IV-B, Figure 4).

The uBTB filters and identifies common branches with common roots
("seeds"), then learns both TAKEN and NOT-TAKEN edges into a small graph
over several iterations.  Hard-to-predict conditional nodes are augmented
with a local-history hashed perceptron (LHP).  When a small kernel is
confirmed as fully fitting and predictable, the uBTB "locks" and drives
the pipe at zero-bubble throughput until a misprediction, with its
predictions checked by the mBTB and SHP; extremely confident stretches
clock-gate the mBTB and disable the SHP for power (Section IV-B).

M3 doubled the graph but restricted the added entries to unconditional
branches; M5 shrank the structure once ZAT/ZOT could shoulder part of the
zero-bubble load (Section IV-E).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..traces.types import INDIRECT_KINDS, Kind
from .lhp import LocalHashedPerceptron


@dataclass
class UBTBNode:
    """One branch node in the learned graph."""

    pc: int
    kind: Kind
    taken_edge: Optional[int] = None      # next branch PC when taken
    not_taken_edge: Optional[int] = None  # next branch PC on fallthrough
    taken_target: int = 0                 # instruction target when taken
    visits: int = 0
    #: Saturating confidence in this node's direction predictability.
    confidence: int = 0
    #: Lifetime LHP direction misses (gating eligibility).
    lhp_misses: int = 0

    @property
    def is_conditional(self) -> bool:
        return self.kind == Kind.BR_COND


class MicroBTB:
    """The uBTB graph plus lock state machine.

    The trace-driven model sees only retired branches, so "prediction" here
    means: while locked, the uBTB claims each branch and predicts direction
    (via LHP for conditionals) and target (via learned edges); a wrong
    claim is a misprediction that unlocks the graph.  After any pipeline
    mispredict the uBTB is disabled until the next seed branch is
    re-confirmed (the Figure 6 note: "after a mispredict, the uBTB is
    disabled until the next seed").
    """

    #: Consecutive in-graph, confidently-predicted branches required to
    #: lock.  Small: after a mispredict the uBTB re-confirms at the next
    #: seed branch, which for a tight loop is the loop entry itself.
    LOCK_THRESHOLD = 8
    #: Confidence ceiling; >= GATE_CONFIDENCE also clock-gates mBTB/SHP.
    CONF_MAX = 7
    GATE_CONFIDENCE = 6
    #: Two-cycle startup penalty when the uBTB takes over (Section IV-E).
    STARTUP_BUBBLES = 2

    def __init__(self, entries: int, uncond_only_entries: int = 0,
                 lhp: Optional[LocalHashedPerceptron] = None) -> None:
        self.capacity = entries
        self.uncond_capacity = uncond_only_entries
        self.nodes: "OrderedDict[int, UBTBNode]" = OrderedDict()
        self.uncond_nodes: "OrderedDict[int, UBTBNode]" = OrderedDict()
        self.lhp = lhp if lhp is not None else LocalHashedPerceptron()
        self.locked = False
        self._streak = 0
        self._prev: Optional[Tuple[int, bool]] = None  # (pc, taken)

        # Statistics.
        self.lock_events = 0
        self.unlock_events = 0
        self.locked_predictions = 0
        self.locked_mispredicts = 0
        self.gated_lookups = 0  # mBTB/SHP lookups saved while locked
        #: Lengths (in branches observed while locked) of recent lock
        #: episodes — the M5 zero-bubble arbiter's signal (Section IV-E).
        #: Measured from observation, not served predictions, so an
        #: arbiter suppressing the uBTB cannot poison its own input.
        self.episode_lengths: list[int] = []
        self._lock_branches = 0

    # -- node management --------------------------------------------------------

    def _get_node(self, pc: int) -> Optional[UBTBNode]:
        node = self.nodes.get(pc)
        if node is not None:
            self.nodes.move_to_end(pc)
            return node
        node = self.uncond_nodes.get(pc)
        if node is not None:
            self.uncond_nodes.move_to_end(pc)
        return node

    def _alloc_node(self, pc: int, kind: Kind) -> UBTBNode:
        node = UBTBNode(pc=pc, kind=kind)
        if kind != Kind.BR_COND and self.uncond_capacity > 0:
            # M3+: extra entries usable exclusively by unconditional
            # branches (Section IV-C), cheaper because they need no LHP.
            store, cap = self.uncond_nodes, self.uncond_capacity
        else:
            store, cap = self.nodes, self.capacity
        store[pc] = node
        store.move_to_end(pc)
        while len(store) > cap:
            store.popitem(last=False)
        return node

    # -- learning -----------------------------------------------------------------

    def observe(self, pc: int, kind: Kind, taken: bool, target: int) -> None:
        """Learn from one retired branch: update the node, its incoming
        edge from the previous branch, and the LHP."""
        node = self._get_node(pc)
        if node is None:
            node = self._alloc_node(pc, kind)
        node.visits += 1
        if taken:
            node.taken_target = target
        if node.is_conditional:
            predicted, _ = self.lhp.predict(pc)
            if predicted == taken:
                node.confidence = min(self.CONF_MAX, node.confidence + 1)
            else:
                # A miss resets confidence: branches the LHP cannot carry
                # must never gate the SHP ("extremely highly confident"
                # is the bar for gating, Section IV-B).
                node.confidence = 0
                node.lhp_misses += 1
            self.lhp.update(pc, taken)
        else:
            node.confidence = min(self.CONF_MAX, node.confidence + 1)

        if self._prev is not None:
            prev_pc, prev_taken = self._prev
            prev_node = self._get_node(prev_pc)
            if prev_node is not None:
                if prev_taken:
                    prev_node.taken_edge = pc
                else:
                    prev_node.not_taken_edge = pc
        self._prev = (pc, taken)

    # -- lock state machine ----------------------------------------------------------

    def step_lock_state(self, pc: int) -> bool:
        """Advance the filter/lock heuristic for the branch at ``pc``.

        Returns True when this branch transitions the uBTB into the locked
        state (which costs :data:`STARTUP_BUBBLES`).
        """
        node = self._get_node(pc)
        # Multi-target indirect branches (other than RAS-predicted returns)
        # cannot be carried by a single learned edge: kernels containing
        # them stay on the main mBTB+SHP+VPC path.
        is_plain_indirect = (
            node is not None
            and node.kind in INDIRECT_KINDS
            and node.kind != Kind.BR_RET
        )
        in_graph = (
            node is not None
            and not is_plain_indirect
            and node.visits >= 2
            and (node.confidence >= 1 or not node.is_conditional)
        )
        if self.locked:
            self._lock_branches += 1
        if in_graph:
            self._streak += 1
        else:
            self._streak = 0
            if self.locked:
                self._unlock()
            return False
        if not self.locked and self._streak >= self.LOCK_THRESHOLD:
            self.locked = True
            self.lock_events += 1
            self._lock_branches = 0
            return True
        return False

    def _unlock(self) -> None:
        if self.locked:
            self.locked = False
            self.unlock_events += 1
            self.episode_lengths.append(self._lock_branches)
            if len(self.episode_lengths) > 16:
                del self.episode_lengths[0]
        self._streak = 0

    def mean_episode_length(self) -> float:
        """Average predictions per lock episode (arbiter input)."""
        if not self.episode_lengths:
            return float("inf")
        return sum(self.episode_lengths) / len(self.episode_lengths)

    def notify_mispredict(self) -> None:
        """Any pipeline mispredict disables the uBTB until re-confirmed."""
        self._unlock()

    # -- prediction (only meaningful while locked) ----------------------------------

    def predict(self, pc: int) -> Optional[Tuple[bool, int, bool]]:
        """Predict the branch at ``pc`` while locked.

        Returns ``(taken, target, gate_main)`` or None when the branch is
        unknown (which unlocks).  ``gate_main`` is True when confidence is
        high enough to clock-gate the mBTB and disable the SHP.
        """
        if not self.locked:
            return None
        node = self._get_node(pc)
        if node is None:
            self._unlock()
            return None
        self.locked_predictions += 1
        # Gate the mBTB/SHP only for branches the LHP has proven it can
        # carry alone: high instantaneous confidence AND a lifetime miss
        # rate under ~1.5% (a trip-N loop exit the LHP cannot learn misses
        # 1/N of the time and must keep its SHP check).
        gate = (
            node.confidence >= self.GATE_CONFIDENCE
            and node.lhp_misses * 64 <= node.visits
        )
        if gate:
            self.gated_lookups += 1
        if node.is_conditional:
            taken, _ = self.lhp.predict(pc)
        else:
            taken = True
        return taken, node.taken_target, gate

    @property
    def node_count(self) -> int:
        return len(self.nodes) + len(self.uncond_nodes)

    # -- checkpointing (state_dict protocol) --------------------------------

    @staticmethod
    def _node_to_dict(node: UBTBNode) -> dict[str, object]:
        return {
            "pc": node.pc,
            "kind": int(node.kind),
            "taken_edge": node.taken_edge,
            "not_taken_edge": node.not_taken_edge,
            "taken_target": node.taken_target,
            "visits": node.visits,
            "confidence": node.confidence,
            "lhp_misses": node.lhp_misses,
        }

    @staticmethod
    def _node_from_dict(data: dict[str, object]) -> UBTBNode:
        return UBTBNode(
            pc=int(data["pc"]),
            kind=Kind(int(data["kind"])),
            taken_edge=(int(data["taken_edge"])
                        if data["taken_edge"] is not None else None),
            not_taken_edge=(int(data["not_taken_edge"])
                            if data["not_taken_edge"] is not None else None),
            taken_target=int(data["taken_target"]),
            visits=int(data["visits"]),
            confidence=int(data["confidence"]),
            lhp_misses=int(data["lhp_misses"]),
        )

    def state_dict(self) -> dict[str, object]:
        return {
            "nodes": [self._node_to_dict(n) for n in self.nodes.values()],
            "uncond_nodes": [self._node_to_dict(n)
                             for n in self.uncond_nodes.values()],
            "lhp": self.lhp.state_dict(),
            "locked": self.locked,
            "streak": self._streak,
            "prev": list(self._prev) if self._prev is not None else None,
            "lock_events": self.lock_events,
            "unlock_events": self.unlock_events,
            "locked_predictions": self.locked_predictions,
            "locked_mispredicts": self.locked_mispredicts,
            "gated_lookups": self.gated_lookups,
            "episode_lengths": list(self.episode_lengths),
            "lock_branches": self._lock_branches,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        nodes: "OrderedDict[int, UBTBNode]" = OrderedDict()
        for data in state["nodes"]:
            node = self._node_from_dict(data)
            nodes[node.pc] = node
        uncond: "OrderedDict[int, UBTBNode]" = OrderedDict()
        for data in state["uncond_nodes"]:
            node = self._node_from_dict(data)
            uncond[node.pc] = node
        self.nodes = nodes
        self.uncond_nodes = uncond
        self.lhp.load_state_dict(state["lhp"])
        self.locked = bool(state["locked"])
        self._streak = int(state["streak"])
        prev = state["prev"]
        self._prev = ((int(prev[0]), bool(prev[1]))
                      if prev is not None else None)
        self.lock_events = int(state["lock_events"])
        self.unlock_events = int(state["unlock_events"])
        self.locked_predictions = int(state["locked_predictions"])
        self.locked_mispredicts = int(state["locked_mispredicts"])
        self.gated_lookups = int(state["gated_lookups"])
        self.episode_lengths = [int(v) for v in state["episode_lengths"]]
        self._lock_branches = int(state["lock_branches"])
