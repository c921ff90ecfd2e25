"""Trace generation: walking a :class:`~repro.traces.program.Program`.

The walker executes the synthetic CFG, resolving every branch behaviour,
indirect-target selector and memory behaviour, and emits a
:class:`~repro.traces.types.Trace` of retired micro-ops.  It is the moral
equivalent of the trace-capture step in the paper's methodology
(Section II), with SimPoint slicing replaced by bounded-length walks.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .program import (
    CallTerminator,
    CondTerminator,
    FallthroughTerminator,
    IndirectCallTerminator,
    IndirectTerminator,
    Program,
    RetTerminator,
    UncondTerminator,
    INSTRUCTION_BYTES,
)
from .types import Kind, Trace, TraceRecord

#: Global-outcome history retained for correlated branch behaviours.  Must
#: comfortably exceed the longest GHIST any generation hashes (206 bits on
#: M5/M6) plus the longest correlation distance used by workloads.
_GHIST_WINDOW = 512

#: Call-stack depth bound; deeper recursion drops the oldest frame, the
#: same overflow behaviour as a hardware RAS.
_MAX_CALL_DEPTH = 128


class ProgramWalker:
    """Stateful executor of a synthetic program.

    One walker instance can be reused to emit several consecutive slices of
    the same program execution (the dynamic state carries over), or
    :meth:`restart` can rewind everything to the program entry.
    """

    def __init__(self, program: Program, seed: int = 0) -> None:
        self.program = program
        self.seed = seed
        self.restart()

    def restart(self) -> None:
        """Rewind to the program entry with fresh behaviour state."""
        self.program.reset()
        self.rng = random.Random(self.seed)
        self._block_index = 0
        self._body_resume = 0  # op index to resume at within the block
        self._call_stack: List[int] = []
        self._ghist: List[int] = []
        self._target_history: List[int] = []  # global indirect-target PCs
        self._last_load_distance: Optional[int] = None

    # -- internal helpers ---------------------------------------------------

    def _push_ghist(self, taken: bool) -> None:
        self._ghist.append(1 if taken else 0)
        if len(self._ghist) > _GHIST_WINDOW:
            del self._ghist[: len(self._ghist) - _GHIST_WINDOW]

    def _push_call(self, return_block: int) -> None:
        self._call_stack.append(return_block)
        if len(self._call_stack) > _MAX_CALL_DEPTH:
            del self._call_stack[0]

    def _push_target(self, target_pc: int) -> None:
        self._target_history.append(target_pc)
        if len(self._target_history) > 8:
            del self._target_history[0]

    # -- walking ------------------------------------------------------------

    def walk(self, n_instructions: int, name: str = "slice",
             family: str = "custom") -> Trace:
        """Emit the next ``n_instructions`` retired micro-ops."""
        if n_instructions < 1:
            raise ValueError("n_instructions must be >= 1")
        program = self.program
        blocks = program.blocks
        records: List[TraceRecord] = []
        rng = self.rng
        last_load_index = -10**9  # index into `records` of most recent load

        while len(records) < n_instructions:
            bi = self._block_index
            block = blocks[bi]
            pc = block.pc

            # Body ops (resuming mid-block if a prior slice ended there).
            start_op = self._body_resume
            self._body_resume = 0
            pc += start_op * INSTRUCTION_BYTES
            for op_index in range(start_op, len(block.body)):
                op = block.body[op_index]
                addr = 0
                if op.mem_behavior is not None:
                    addr = op.mem_behavior.next_address(rng)
                rec = TraceRecord(
                    pc=pc,
                    kind=op.kind,
                    addr=addr,
                    src1_dist=op.src1_dist,
                    src2_dist=op.src2_dist,
                )
                if op.kind == Kind.LOAD:
                    last_load_index = len(records)
                records.append(rec)
                pc += INSTRUCTION_BYTES
                if len(records) >= n_instructions:
                    self._body_resume = op_index + 1
                    return self._finish(records, name, family)

            # Terminator.
            term = block.terminator
            if isinstance(term, FallthroughTerminator):
                self._block_index = program.fallthrough_index(bi)
                continue

            branch_pc = block.branch_pc
            fall_index = program.fallthrough_index(bi)

            if isinstance(term, CondTerminator):
                taken = term.behavior.outcome(self._ghist, rng)
                self._push_ghist(taken)
                target_block = blocks[term.taken_block]
                src1 = 0
                if term.depends_on_load and last_load_index >= 0:
                    dist = len(records) - last_load_index
                    if 0 < dist < 64:
                        src1 = dist
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_COND,
                        taken=taken,
                        target=target_block.pc,
                        src1_dist=src1,
                    )
                )
                self._block_index = term.taken_block if taken else fall_index
            elif isinstance(term, UncondTerminator):
                target_block = blocks[term.target_block]
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_UNCOND,
                        taken=True,
                        target=target_block.pc,
                    )
                )
                self._block_index = term.target_block
            elif isinstance(term, CallTerminator):
                target_block = blocks[term.callee_block]
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_CALL,
                        taken=True,
                        target=target_block.pc,
                    )
                )
                self._push_call(fall_index)
                self._block_index = term.callee_block
            elif isinstance(term, RetTerminator):
                if self._call_stack:
                    ret_index = self._call_stack.pop()
                else:
                    ret_index = 0  # underflow: restart at program entry
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_RET,
                        taken=True,
                        target=blocks[ret_index].pc,
                    )
                )
                self._block_index = ret_index
            elif isinstance(term, IndirectTerminator):
                choice = term.selector.select(rng, self._target_history)
                tgt_index = term.target_blocks[choice]
                target_pc = blocks[tgt_index].pc
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_INDIRECT,
                        taken=True,
                        target=target_pc,
                    )
                )
                self._push_target(target_pc)
                self._block_index = tgt_index
            elif isinstance(term, IndirectCallTerminator):
                choice = term.selector.select(rng, self._target_history)
                callee_index = term.callee_blocks[choice]
                target_pc = blocks[callee_index].pc
                records.append(
                    TraceRecord(
                        pc=branch_pc,
                        kind=Kind.BR_INDIRECT_CALL,
                        taken=True,
                        target=target_pc,
                    )
                )
                self._push_target(target_pc)
                self._push_call(fall_index)
                self._block_index = callee_index
            else:  # pragma: no cover - exhaustive over Terminator subclasses
                raise TypeError(f"unknown terminator {term!r}")

            if len(records) >= n_instructions:
                break

        return self._finish(records, name, family)

    def _finish(self, records: List[TraceRecord], name: str,
                family: str) -> Trace:
        return Trace(name=name, family=family, records=records, seed=self.seed)


def generate_trace(program: Program, n_instructions: int, seed: int = 0,
                   name: Optional[str] = None,
                   family: str = "custom") -> Trace:
    """Convenience wrapper: fresh walker, one slice."""
    walker = ProgramWalker(program, seed=seed)
    return walker.walk(
        n_instructions,
        name=name if name is not None else program.name,
        family=family,
    )
