"""The history file: a circular buffer of in-flight predictions (§IV-B1).

Every predicted fetch packet allocates one entry holding everything the
predictor sub-components need back at mispredict, repair, and update time:
the fetch PC, the global/local histories provided at predict time, and the
per-component metadata (§III-D).  Entries are updated when the backend
resolves branches and dequeued in program order as the core commits, at
which point commit-time ``update`` events are generated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.interface import StorageReport


class HistoryFileError(Exception):
    """Raised on protocol violations (overflow, unknown entry ids)."""


@dataclass(slots=True)
class HistoryFileEntry:
    """One in-flight predicted fetch packet.

    Slotted: the composer allocates one per fetch packet and reads it back
    at every event, so attribute access and construction stay cheap.
    """

    ftq_id: int
    fetch_pc: int
    width: int
    #: History *provided to components* at predict time (may be stale when
    #: the no-replay repair mode is modelled, §VI-B).
    req_ghist: int
    #: True speculative-chain snapshot (before this packet's contribution),
    #: used to restore the global history provider on mispredicts.
    chain_ghist: int
    lhist_index: int
    lhist_snapshot: int
    #: Per-component metadata produced at predict time.
    metas: Dict[str, object]
    #: True conditional-branch locations (from pre-decode), up to the cut.
    br_mask: Tuple[bool, ...]
    #: Directions as predicted (later corrected on mispredict resolution).
    taken_mask: Tuple[bool, ...]
    cfi_idx: Optional[int]
    cfi_taken: bool
    cfi_target: Optional[int]
    #: Path history provided at predict time (0 when no component uses
    #: path history).
    phist_snapshot: int = 0
    cfi_is_br: bool = False
    cfi_is_jal: bool = False
    cfi_is_jalr: bool = False
    mispredicted: bool = False
    #: Slot that mispredicted (set at resolve time).
    mispredict_idx: Optional[int] = None
    #: Telemetry attribution: per-slot name of the component that supplied
    #: the final prediction (None per slot for the fall-through default;
    #: None overall when telemetry is off, costing nothing).
    slot_providers: Optional[Tuple[Optional[str], ...]] = None


class HistoryFile:
    """Circular buffer with FIFO allocate/commit and tail squashing."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("history file capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque()
        self._by_id: Dict[int, HistoryFileEntry] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(
        self,
        fetch_pc: int,
        width: int,
        req_ghist: int,
        chain_ghist: int,
        lhist_index: int,
        lhist_snapshot: int,
        metas: Dict[str, object],
        br_mask: Tuple[bool, ...],
        taken_mask: Tuple[bool, ...],
        cfi_idx: Optional[int],
        cfi_taken: bool,
        cfi_target: Optional[int],
        phist_snapshot: int = 0,
        cfi_is_br: bool = False,
        cfi_is_jal: bool = False,
        cfi_is_jalr: bool = False,
        slot_providers: Optional[Tuple[Optional[str], ...]] = None,
    ) -> HistoryFileEntry:
        """Enqueue a new entry for a just-predicted packet."""
        if len(self._entries) >= self.capacity:
            raise HistoryFileError("history file overflow")
        # One entry per fetch packet: positional, in HistoryFileEntry's
        # field order (a test checks every argument lands in its field),
        # skips the generated __init__'s keyword matching.
        entry = HistoryFileEntry(
            self._next_id,
            fetch_pc,
            width,
            req_ghist,
            chain_ghist,
            lhist_index,
            lhist_snapshot,
            metas,
            br_mask,
            taken_mask,
            cfi_idx,
            cfi_taken,
            cfi_target,
            phist_snapshot,
            cfi_is_br,
            cfi_is_jal,
            cfi_is_jalr,
            False,
            None,
            slot_providers,
        )
        self._next_id += 1
        self._entries.append(entry)
        self._by_id[entry.ftq_id] = entry
        return entry

    def get(self, ftq_id: int) -> HistoryFileEntry:
        entry = self.find(ftq_id)
        if entry is None:
            raise HistoryFileError(f"unknown or retired history-file id {ftq_id}")
        return entry

    def find(self, ftq_id: int) -> Optional[HistoryFileEntry]:
        return self._by_id.get(ftq_id)

    def squash_after(self, ftq_id: int) -> List[HistoryFileEntry]:
        """Remove and return every entry younger than ``ftq_id``.

        Returned in age order (oldest squashed first) for the repair walk.
        """
        squashed: List[HistoryFileEntry] = []
        while self._entries and self._entries[-1].ftq_id > ftq_id:
            victim = self._entries.pop()
            del self._by_id[victim.ftq_id]
            squashed.append(victim)
        squashed.reverse()
        return squashed

    def squash_all(self) -> List[HistoryFileEntry]:
        squashed = list(self._entries)
        self._entries.clear()
        self._by_id.clear()
        return squashed

    def head(self) -> Optional[HistoryFileEntry]:
        return self._entries[0] if self._entries else None

    def dequeue(self) -> HistoryFileEntry:
        if not self._entries:
            raise HistoryFileError("dequeue from empty history file")
        entry = self._entries.popleft()
        del self._by_id[entry.ftq_id]
        return entry

    def __iter__(self):
        return iter(self._entries)

    # ------------------------------------------------------------------
    def storage(
        self, total_meta_bits: int, ghist_bits: int, lhist_bits: int
    ) -> StorageReport:
        """Area accounting for the history file (Fig. 8 "Meta")."""
        from repro.components.btb import TARGET_BITS

        per_entry = (
            TARGET_BITS  # fetch pc
            + total_meta_bits
            + ghist_bits  # ghist snapshot
            + lhist_bits  # lhist snapshot
            + 16  # masks, cfi bookkeeping, state bits
            + TARGET_BITS  # resolved target (modelled by correcting cfi_target)
        )
        bits = self.capacity * per_entry
        return StorageReport(
            "history_file",
            sram_bits=bits,
            breakdown={"history_file": bits},
        )
