"""The composed per-generation branch prediction unit (Section IV).

:class:`BranchUnit` wires together everything the paper describes — SHP,
mBTB/vBTB/L2BTB, uBTB (with LHP), RAS, VPC (plus M6's indirect hash),
1AT/ZAT/ZOT accelerators, the confidence estimator and the MRB — according
to a :class:`~repro.config.GenerationConfig`, and processes a trace's
retired branch stream.  For each branch it reports whether the front end
mispredicted and how many fetch bubbles the (correct) prediction cost,
which is exactly the interface the core timing model consumes.

Trace-driven semantics: only the retired path is visible, so wrong-path
pollution of predictor state is not modelled (the same methodological
simplification the paper's own trace-driven model makes for speed).
Nor does the unit read simulated time, so :meth:`BranchUnit.resolve`
drives it as a pass of its own, per metrics window or whole trace.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional, Tuple, Union

from ..config import GenerationConfig
from ..metrics import formulas
from ..metrics.registry import MetricRegistry, StatsView
from ..observe.events import BranchEvent
from ..observe.sink import TraceSink
from ..power import EnergyLedger
from ..traces.compiled import CompiledTrace, compile_trace
from ..traces.types import Kind, Trace, TraceRecord
from .accel import RedirectAccelerator
from .btb import BTBEntry, BTBHierarchy
from .confidence import ConfidenceEstimator
from .history import BranchStream
from .mrb import MispredictRecoveryBuffer
from .ras import ReturnAddressStack
from .shp import ScaledHashedPerceptron
from .ubtb import MicroBTB, UBTBNode
from .vpc import VPCPredictor

#: Instruction size for fallthrough/return-address arithmetic.
_INSTR = 4

#: Redirect cost when a *direct* taken branch misses the BTB: the decoder
#: computes the target and resteers fetch — several bubbles, but not an
#: execute-time misprediction (MPKI counts only direction/indirect/return
#: failures, as silicon counters do).
DECODE_REDIRECT_BUBBLES = 6

_COND = Kind.BR_COND
_CALL = Kind.BR_CALL
_RET = Kind.BR_RET
_INDIRECT = Kind.BR_INDIRECT
_INDIRECT_CALL = Kind.BR_INDIRECT_CALL


class BranchStats(StatsView):
    """Registry-backed view of the ``frontend.*`` stats hierarchy.

    ``btb_miss_redirects`` counts decode-time resteers for direct taken
    branches missing the BTB (cost bubbles, not mispredicts);
    ``ras_repairs`` counts RAS checkpoint repairs on mispredict
    recovery.  The derived MPKI / bubbles-per-branch properties route
    through the shared formula definitions.
    """

    _FIELDS = {
        "instructions": "frontend.instructions",
        "branches": "frontend.branches",
        "conditional_branches": "frontend.conditional_branches",
        "taken_branches": "frontend.taken_branches",
        "mispredicts": "frontend.mispredicts",
        "conditional_mispredicts": "frontend.conditional_mispredicts",
        "indirect_mispredicts": "frontend.indirect_mispredicts",
        "return_mispredicts": "frontend.return_mispredicts",
        "btb_miss_redirects": "frontend.btb.miss_redirects",
        "ras_repairs": "frontend.ras.repairs",
        "total_bubbles": "frontend.bubbles.total",
        "mrb_saved_bubbles": "frontend.bubbles.mrb_saved",
        "zero_bubble_redirects": "frontend.bubbles.zero_redirects",
    }
    _DERIVED = {
        "mpki": "frontend.mpki",
        "conditional_mpki": "frontend.conditional_mpki",
        "bubbles_per_branch": "frontend.bubbles_per_branch",
    }
    _FORMULAS = (
        ("frontend.mpki", ("frontend.mispredicts", "frontend.instructions"),
         formulas.mpki),
        ("frontend.conditional_mpki",
         ("frontend.conditional_mispredicts", "frontend.instructions"),
         formulas.mpki),
        ("frontend.bubbles_per_branch",
         ("frontend.bubbles.total", "frontend.branches"), formulas.ratio),
    )


class BranchUnit:
    """Per-generation front-end branch prediction model."""

    def __init__(self, config: GenerationConfig,
                 ledger: Optional[EnergyLedger] = None,
                 encrypt: Optional[Callable[[int], int]] = None,
                 decrypt: Optional[Callable[[int], int]] = None,
                 registry: Optional[MetricRegistry] = None,
                 sink: Optional[TraceSink] = None) -> None:
        self.config = config
        self.stats = BranchStats(registry)
        #: Optional event sink for branch-resolution events.
        self.sink = sink
        #: (predicted_taken, predicted_target) of the branch in flight,
        #: captured by the predict paths only while tracing.
        self._pred_snapshot: "tuple[Optional[bool], Optional[int]]" = \
            (None, None)
        self.ledger = (ledger if ledger is not None
                       else EnergyLedger(registry=self.stats.registry))
        # Hot-path cell aliases: the per-branch stat bumps and energy
        # events go straight to the registry cells.
        cell = self.stats.cell
        self._c_branches = cell("branches")
        self._c_conditional = cell("conditional_branches")
        self._c_taken = cell("taken_branches")
        self._c_mispredicts = cell("mispredicts")
        self._c_cond_mispredicts = cell("conditional_mispredicts")
        self._c_ind_mispredicts = cell("indirect_mispredicts")
        self._c_ret_mispredicts = cell("return_mispredicts")
        self._c_miss_redirects = cell("btb_miss_redirects")
        self._c_ras_repairs = cell("ras_repairs")
        self._c_bubbles = cell("total_bubbles")
        self._c_mrb_saved = cell("mrb_saved_bubbles")
        self._c_zero_redirects = cell("zero_bubble_redirects")
        event = self.ledger.cell
        self._c_ubtb_lookup = event("ubtb_lookup")
        self._c_mbtb_lookup = event("mbtb_lookup")
        self._c_shp_lookup = event("shp_lookup")
        self._c_shp_update = event("shp_update")
        self._c_vbtb_lookup = event("vbtb_lookup")
        self._c_l2btb_fill = event("l2btb_fill")
        self._build_structures(encrypt, decrypt)
        #: Whether the previous retired branch was taken (ZAT/ZOT learning).
        self._prev_taken = False
        #: Zero-bubble arbiter decisions (Section IV-E): times the uBTB
        #: was suppressed in favour of the ZAT/ZOT path.
        self.arbiter_suppressions = 0

    def _build_structures(self, encrypt: Optional[Callable[[int], int]] = None,
                          decrypt: Optional[Callable[[int], int]] = None
                          ) -> None:
        """Build every predictor structure, empty, from the config, and
        bind its gauges: at construction and on a
        ``context_switch("flush")``, so a flushed unit has exactly a
        fresh unit's geometry."""
        bp = self.config.branch
        self.shp = ScaledHashedPerceptron(
            n_tables=bp.shp_tables,
            rows=bp.shp_rows,
            ghist_bits=bp.ghist_bits,
            phist_bits=bp.phist_bits,
        )
        self.btb = BTBHierarchy(
            mbtb_entries=bp.mbtb_entries,
            vbtb_entries=bp.vbtb_entries,
            l2btb_entries=bp.l2btb_entries,
            l2btb_fill_latency=bp.l2btb_fill_latency,
            l2btb_fill_bandwidth=bp.l2btb_fill_bandwidth,
            has_empty_line_opt=bp.has_empty_line_opt,
        )
        self.ubtb = MicroBTB(
            entries=bp.ubtb_entries,
            uncond_only_entries=bp.ubtb_uncond_only_entries,
        )
        self.ras = ReturnAddressStack(bp.ras_entries, encrypt=encrypt,
                                      decrypt=decrypt)
        self.vpc = VPCPredictor(
            self.shp,
            max_targets=bp.vpc_max_targets,
            hybrid_hash_entries=bp.indirect_hash_entries,
            hybrid_vpc_targets=bp.vpc_hybrid_targets,
            vbtb_chain_slots=bp.vbtb_entries // 2,
        )
        self.accel = RedirectAccelerator(bp.has_1at, bp.has_zat_zot, self.btb)
        self.confidence = ConfidenceEstimator()
        self.mrb = MispredictRecoveryBuffer(bp.mrb_entries)
        self._has_mrb = self.mrb.enabled
        self._taken_bubbles = bp.mbtb_taken_bubbles
        self._bind_structure_gauges()

    def _bind_structure_gauges(self) -> None:
        """Expose sub-structure counters as pull metrics.

        Each gauge reads the structure it reports, never ``self``: the
        unit reaches the registry, so a reader holding the unit would
        close a reference cycle.  :meth:`_build_structures` re-binds
        them whenever it rebuilds the structures (a flush), and the
        registry replaces a re-bound reader.
        """
        reg = self.stats.registry
        btb, ubtb, ras = self.btb, self.ubtb, self.ras
        reg.gauge("frontend.btb.mbtb.hits", lambda: btb.hits_mbtb)
        reg.gauge("frontend.btb.vbtb.hits", lambda: btb.hits_vbtb)
        reg.gauge("frontend.btb.l2btb.hits", lambda: btb.hits_l2btb)
        reg.gauge("frontend.btb.misses", lambda: btb.misses)
        reg.gauge("frontend.btb.vbtb.spills", lambda: btb.spills_to_vbtb)
        reg.gauge("frontend.btb.l2btb.fills", lambda: btb.l2btb_fills)
        reg.gauge("frontend.btb.empty_line_skips",
                  lambda: btb.empty_line_skips)
        reg.gauge("frontend.ubtb.lock_events", lambda: ubtb.lock_events)
        reg.gauge("frontend.ubtb.unlock_events",
                  lambda: ubtb.unlock_events)
        reg.gauge("frontend.ubtb.locked_predictions",
                  lambda: ubtb.locked_predictions)
        reg.gauge("frontend.ubtb.locked_mispredicts",
                  lambda: ubtb.locked_mispredicts)
        reg.gauge("frontend.ubtb.gated_lookups",
                  lambda: ubtb.gated_lookups)
        reg.gauge("frontend.ras.overflows", lambda: ras.overflows)
        reg.gauge("frontend.ras.underflows", lambda: ras.underflows)

    #: Arbiter heuristic: if recent uBTB lock episodes average fewer
    #: branches than this, the graph is thrashing (locking and immediately
    #: losing the kernel) and the two-cycle startup is never amortised —
    #: the ZAT/ZOT path (no startup) serves such code better.  Set at the
    #: lock threshold itself: shorter episodes are pure churn.
    ARBITER_MIN_EPISODE = 8.0

    def _arbiter_prefers_ubtb(self) -> bool:
        """The M5+ heuristic arbiter between the two zero-bubble engines.

        Generations without ZAT/ZOT have no alternative zero-bubble path,
        so the uBTB always drives when locked.
        """
        if not self.config.branch.has_zat_zot:
            return True
        if len(self.ubtb.episode_lengths) < 4:
            return True  # not enough history: let the uBTB try
        return self.ubtb.mean_episode_length() >= self.ARBITER_MIN_EPISODE

    def set_target_cipher(self, encrypt: Callable[[int], int],
                          decrypt: Callable[[int], int]) -> None:
        """Install CONTEXT_HASH target encryption on RAS (and, in hardware,
        BTB indirect targets; the BTB direct path is unaffected because a
        wrong-context direct target mispredicts identically)."""
        self.ras.set_cipher(encrypt, decrypt)

    def context_switch(self, mode: str = "encrypt",
                       encrypt: Optional[Callable[[int], int]] = None,
                       decrypt: Optional[Callable[[int], int]] = None) -> None:
        """Model one OS context switch under a chosen protection policy.

        Section V weighs three options: erasing all branch prediction state
        ("at the cost of having to retrain when going back"), per-context
        tagging/partitioning ("a significant area cost" — not modelled),
        and the shipped compromise — CONTEXT_HASH target encryption with
        "minimal performance, timing, and area impact".

        - ``"none"``: nothing happens (the vulnerable baseline).
        - ``"encrypt"``: the incoming context's cipher is installed; state
          learned by other contexts decrypts to junk targets for secrets
          (RAS/indirect) while direct-branch learning survives.
        - ``"flush"``: every predictor structure is erased.
        """
        if mode == "none":
            return
        if mode == "encrypt":
            if encrypt is None or decrypt is None:
                raise ValueError("encrypt mode needs the context's cipher")
            self.set_target_cipher(encrypt, decrypt)
            return
        if mode != "flush":
            raise ValueError(f"unknown context-switch mode {mode!r}")
        self._build_structures()
        self._prev_taken = False

    # -- main per-branch flow -----------------------------------------------------

    def process_branch(self, rec: TraceRecord) -> Tuple[bool, int]:
        """Predict + update for one retired branch record; returns
        ``(mispredicted, bubbles)``: whether the front end mispredicted
        it, and the fetch bubbles a correct taken prediction cost (0 for
        a correct not-taken one; irrelevant when mispredicted, since the
        penalty dominates).

        A traced branch's event leaves with ``cycle`` 0.0; the timing
        loop stamps the cycle the core resolved the branch at.
        """
        pc = rec.pc
        kind = rec.kind
        taken = rec.taken
        target = rec.target
        conditional = kind == _COND
        is_ret = kind == _RET
        # Non-return indirect branches: the VPC predicts their targets.
        via_vpc = kind == _INDIRECT or kind == _INDIRECT_CALL
        self._c_branches.value += 1
        if conditional:
            self._c_conditional.value += 1
        if taken:
            self._c_taken.value += 1

        # Each path returns (mispredicted, bubbles, the branch's BTB
        # entry, for ZAT/ZOT learning); the uBTB's is None when it does
        # not claim the branch.
        outcome = None
        if self.ubtb.locked:
            if self._arbiter_prefers_ubtb():
                outcome = self._predict_ubtb(pc, conditional, is_ret,
                                             taken, target)
            else:
                self.arbiter_suppressions += 1
        via_ubtb = outcome is not None
        if not via_ubtb:
            outcome = self._predict_main(pc, kind, taken, target,
                                         conditional, is_ret, via_vpc)
        mispredicted, bubbles, entry = outcome

        # --- shared updates -----------------------------------------------
        self.shp.push_history(pc, conditional, taken)
        if self.ubtb.observe(pc, kind, taken, target):
            # Two-cycle startup when the uBTB takes over the pipe.
            bubbles += MicroBTB.STARTUP_BUBBLES
        if kind == _CALL or kind == _INDIRECT_CALL:
            self.ras.push(pc + _INSTR)
        self.confidence.record(pc, not mispredicted)

        if mispredicted:
            self.ubtb.notify_mispredict()
            # Wrong-path speculation between the prediction and the
            # redirect may have pushed/popped the RAS; the checkpoint
            # repair restores it ("standard mechanisms to repair multiple
            # speculative pushes and pops", Section IV).  The retired
            # stream carries no wrong-path records, so we model the repair
            # itself: snapshot, perturb, restore.
            snap = self.ras.checkpoint()
            self.ras.push(pc ^ 0x5A5A)  # wrong-path junk
            self.ras.pop()
            self.ras.pop()
            self.ras.restore(snap)
            self._c_ras_repairs.value += 1
            self._c_mispredicts.value += 1
            if conditional:
                self._c_cond_mispredicts.value += 1
            elif is_ret:
                self._c_ret_mispredicts.value += 1
            elif via_vpc:
                self._c_ind_mispredicts.value += 1
            # MRB: arm replay / start recording for low-confidence branches.
            if self._has_mrb:
                armed = self.mrb.begin_replay(pc)
                if not armed and self.confidence.is_low_confidence(pc):
                    self.mrb.start_recording(pc)
        elif taken and self._has_mrb:
            # Feed post-redirect fetch addresses to recording/replay.
            self.mrb.observe_fetch_address(target)

        # ZAT/ZOT replication learning follows the *actual* control flow.
        if self._prev_taken and entry is not None:
            self.accel.learn_replication(entry)
        if taken:
            self.accel.observe_taken(entry)
        self._prev_taken = taken

        self._c_bubbles.value += bubbles
        if bubbles == 0 and taken and not mispredicted:
            self._c_zero_redirects.value += 1
        if self.sink is not None:
            taken_pred, target_pred = self._pred_snapshot
            if via_ubtb:
                unit = "ubtb"
            elif is_ret:
                unit = "ras"
            elif via_vpc:
                unit = "vpc"
            elif conditional:
                unit = "shp"
            else:
                unit = "mbtb"
            self.sink.emit(BranchEvent(
                seq=-1, cycle=0.0, pc=pc, kind=kind.name,
                unit=unit, predicted_taken=taken_pred,
                actual_taken=taken, predicted_target=target_pred,
                actual_target=target if taken else 0,
                mispredicted=mispredicted, bubbles=int(bubbles)))
        return mispredicted, bubbles

    # -- uBTB (locked) path ---------------------------------------------------------

    def _predict_ubtb(self, pc: int, conditional: bool, is_ret: bool,
                      taken: bool, target: int
                      ) -> Optional[Tuple[bool, int, Optional[BTBEntry]]]:
        pred = self.ubtb.predict(pc)
        if pred is None:
            return None  # unlocked on unknown branch; fall to main path
        taken_pred, target_pred, gated = pred
        self._c_ubtb_lookup.value += 1
        bubbles = 0
        if is_ret:
            ras_target = self.ras.pop()
            target_pred = ras_target if ras_target is not None else 0
            taken_pred = True
        if not gated:
            # mBTB/SHP check the uBTB's predictions in the shadow
            # (Section IV-B); a stage-3 disagreement resteers to the SHP's
            # direction at the usual redirect cost.
            self._c_mbtb_lookup.value += 1
            if conditional:
                self._c_shp_lookup.value += 1
                shadow = self.shp.predict(pc)
                if shadow[0] != taken_pred:
                    taken_pred = shadow[0]
                    bubbles += self._taken_bubbles
                self.shp.update(pc, taken, shadow)
                self._c_shp_update.value += 1
        if self.sink is not None:
            self._pred_snapshot = (bool(taken_pred), target_pred)
        mispredicted = (taken_pred != taken) or (
            taken and taken_pred and target_pred != target
        )
        if mispredicted:
            self.ubtb.locked_mispredicts += 1
        return mispredicted, bubbles, self.btb.peek(pc)

    # -- main (mBTB + SHP) path --------------------------------------------------------

    def _predict_main(self, pc: int, kind: Kind, taken: bool, target: int,
                      conditional: bool, is_ret: bool, via_vpc: bool
                      ) -> Tuple[bool, int, Optional[BTBEntry]]:
        entry, source, bubbles = self.btb.lookup(pc)
        self._c_mbtb_lookup.value += 1
        if source == "vbtb":
            self._c_vbtb_lookup.value += 1
        elif source == "l2btb":
            self._c_l2btb_fill.value += 1
        mispredicted = False

        # Direction.
        if conditional:
            self._c_shp_lookup.value += 1
            pred = self.shp.predict(pc)
            taken_pred = pred[0]
        else:
            taken_pred = True

        # Target.
        indirect_latency = 0
        if is_ret:
            target_pred = self.ras.pop()
        elif via_vpc:
            ipred = self.vpc.predict(pc)
            target_pred = ipred.target
            indirect_latency = max(0, ipred.latency - 1)
        elif entry is not None:
            target_pred = entry.target
        else:
            target_pred = None

        # An undiscovered direct branch: no BTB entry means no prediction.
        undiscovered = entry is None and not is_ret and not via_vpc
        if undiscovered:
            # Fetch falls through (implicit not-taken).  A taken
            # outcome costs a decode-time resteer, not a misprediction.
            if taken:
                bubbles += DECODE_REDIRECT_BUBBLES
                self._c_miss_redirects.value += 1
        elif taken_pred:
            if taken:
                if target_pred != target or target_pred is None:
                    mispredicted = True
                else:
                    base = self._taken_bubbles
                    if entry is not None:
                        bubbles += self.accel.taken_bubbles(entry, base)
                    else:
                        bubbles += base
                    bubbles += indirect_latency
                    # MRB replay can hide this block's redirect bubbles.
                    if self._has_mrb and bubbles > 0:
                        verdict = self.mrb.verify_next(target)
                        if verdict:
                            self._c_mrb_saved.value += bubbles
                            bubbles = 0
            else:
                mispredicted = True  # predicted taken, was not taken
        else:
            mispredicted = taken  # predicted not-taken

        if self.sink is not None:
            self._pred_snapshot = (
                None if undiscovered else bool(taken_pred), target_pred)

        # --- updates ---------------------------------------------------------
        if entry is None:
            entry = self.btb.discover(pc, target, kind)
            # A zero-entry vBTB drops a spilled entry at once, so learn
            # replication only on an entry the BTB still holds.
            current = self.btb.peek(pc)
        else:
            if taken and not is_ret and not via_vpc:
                entry.target = target
            current = entry
        if taken:
            entry.taken_count += 1
        else:
            entry.not_taken_count += 1
        if conditional:
            self.shp.update(pc, taken, pred)
            self._c_shp_update.value += 1
        if via_vpc:
            self.vpc.update(pc, target)
        return mispredicted, bubbles, current

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        """Aggregate front-end state: every predictor structure plus the
        unit's own learning couplers.  The ``frontend.*`` counters live
        in the metric registry and are checkpointed there."""
        return {
            "shp": self.shp.state_dict(),
            "btb": self.btb.state_dict(),
            "ubtb": self.ubtb.state_dict(),
            "ras": self.ras.state_dict(),
            "vpc": self.vpc.state_dict(),
            "accel": self.accel.state_dict(),
            "confidence": self.confidence.state_dict(),
            "mrb": self.mrb.state_dict(),
            "prev_taken": self._prev_taken,
            "arbiter_suppressions": self.arbiter_suppressions,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore in place.  The structures are loaded rather than
        replaced, so bound gauges and the VPC's shared-SHP alias stay
        wired; the BTB loads before the accelerator so the latter can
        re-resolve its live entry reference."""
        self.shp.load_state_dict(state["shp"])
        self.btb.load_state_dict(state["btb"])
        self.ubtb.load_state_dict(state["ubtb"])
        self.ras.load_state_dict(state["ras"])
        self.vpc.load_state_dict(state["vpc"])
        self.accel.load_state_dict(state["accel"])
        self.confidence.load_state_dict(state["confidence"])
        self.mrb.load_state_dict(state["mrb"])
        self._prev_taken = bool(state["prev_taken"])
        self.arbiter_suppressions = int(state["arbiter_suppressions"])

    # -- trace-level driver ------------------------------------------------------------

    def resolve(self, trace: CompiledTrace, start: int, stop: int,
                on_branch: Optional[Callable[
                    [TraceRecord, int, Optional[UBTBNode]], None]] = None,
                offset: int = 0) -> List[Tuple[bool, int]]:
        """Process the branches of ``trace[start:stop]`` in order; returns
        each one's :meth:`process_branch` pair ``(mispredicted,
        bubbles)``.

        ``on_branch(rec, offset + position, node)`` runs after each
        branch, with the uBTB node the branch left (None when the uBTB
        does not hold it).  A pass from ``start == 0`` binds the SHP and
        the LHP to the trace's rows (the one bind site); instructions
        are not counted."""
        ubtb = self.ubtb
        if start == 0:
            self.shp.bind(trace)
            ubtb.lhp.bind(trace)
        process = self.process_branch  # per pass: a patched-on wrapper sees it
        records = trace.branch_records()
        positions = BranchStream.of(trace).positions
        chunk = positions[bisect_left(positions, start):
                          bisect_left(positions, stop)]
        outcomes = []
        for pos in chunk:
            rec = records[pos]
            outcomes.append(process(rec))
            if on_branch is not None:
                on_branch(rec, pos + offset, ubtb.last_node)
        return outcomes

    def run_trace(self, trace: Union[Trace, CompiledTrace]) -> BranchStats:
        """Process every branch in a trace; returns the aggregate stats.

        A plain :class:`Trace` is compiled first; one :meth:`resolve`
        pass plus the trace's instruction count."""
        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace)
        self.stats.instructions += len(trace)
        self.resolve(trace, 0, len(trace))
        return self.stats
