"""Return address stack.

The RAS is the one prediction structure the paper keeps from the host BOOM
core rather than moving into COBRA (§IV-C).  We mirror that: the RAS lives
in the frontend model, pushed by calls and popped by returns at pre-decode
time, and is snapshot-repaired on flushes (pointer + top-of-stack restore,
the classic low-cost repair of [Skadron et al. 1998]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class RasSnapshot:
    """State needed to restore the RAS after a misspeculated push/pop."""

    pointer: int
    top: int


class ReturnAddressStack:
    """Circular return-address stack with snapshot repair."""

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._stack: List[int] = [0] * depth
        self._pointer = 0  # index of the current top

    def snapshot(self) -> RasSnapshot:
        return RasSnapshot(self._pointer, self._stack[self._pointer])

    def restore(self, snap: RasSnapshot) -> None:
        self._pointer = snap.pointer
        self._stack[snap.pointer] = snap.top

    def push(self, return_pc: int) -> None:
        self._pointer = (self._pointer + 1) % self.depth
        self._stack[self._pointer] = return_pc

    def pop(self) -> Optional[int]:
        value = self._stack[self._pointer]
        self._pointer = (self._pointer - 1) % self.depth
        return value

    def peek(self) -> int:
        return self._stack[self._pointer]

    @property
    def storage_bits(self) -> int:
        from repro.components.btb import TARGET_BITS

        return self.depth * TARGET_BITS
