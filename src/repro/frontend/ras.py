"""Return Address Stack with speculative repair and target encryption.

"Function returns are predicted with a Return-Address Stack (RAS) with
standard mechanisms to repair multiple speculative pushes and pops"
(Section IV).  Stored return targets can be XOR-encrypted with the
process's CONTEXT_HASH (Section V, Figure 11) — wrong-context reads then
decrypt to junk targets, defeating cross-training.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple


class ReturnAddressStack:
    """Bounded stack; overflow drops the oldest frame (hardware-style)."""

    def __init__(self, entries: int = 16,
                 encrypt: Optional[Callable[[int], int]] = None,
                 decrypt: Optional[Callable[[int], int]] = None) -> None:
        if entries < 1:
            raise ValueError("RAS needs at least one entry")
        self.entries = entries
        self._stack: List[int] = []
        self._encrypt = encrypt if encrypt is not None else (lambda t: t)
        self._decrypt = decrypt if decrypt is not None else (lambda t: t)
        self.underflows = 0
        self.overflows = 0

    def push(self, return_address: int) -> None:
        self._stack.append(self._encrypt(return_address))
        if len(self._stack) > self.entries:
            self._stack.pop(0)
            self.overflows += 1

    def pop(self) -> Optional[int]:
        """Predicted return target, or None on underflow."""
        if not self._stack:
            self.underflows += 1
            return None
        return self._decrypt(self._stack.pop())

    def peek(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._decrypt(self._stack[-1])

    # -- speculative repair -------------------------------------------------

    def checkpoint(self) -> Tuple[int, ...]:
        """Snapshot for recovery from wrong-path pushes/pops."""
        return tuple(self._stack)

    def restore(self, snap: Tuple[int, ...]) -> None:
        self._stack = list(snap)

    def set_cipher(self, encrypt: Callable[[int], int],
                   decrypt: Callable[[int], int]) -> None:
        """Install the CONTEXT_HASH stream cipher (Section V)."""
        self._encrypt = encrypt
        self._decrypt = decrypt

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        # The stack is stored in its (possibly encrypted) at-rest form;
        # ciphers are configuration, not state — a restore target must be
        # built with the same CONTEXT_HASH for targets to decrypt.
        return {
            "stack": list(self._stack),
            "underflows": self.underflows,
            "overflows": self.overflows,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        stack = [int(v) for v in state["stack"]]
        if len(stack) > self.entries:
            raise ValueError("RAS checkpoint deeper than this stack")
        self._stack = stack
        self.underflows = int(state["underflows"])
        self.overflows = int(state["overflows"])

    @property
    def depth(self) -> int:
        return len(self._stack)
