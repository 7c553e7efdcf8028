"""The predict/update/repair state machine (§IV-B2).

Sits alongside the history file.  In steady state it generates commit-time
``update`` events as entries dequeue.  After a mispredict it walks the
squashed tail of the history file generating ``repair`` events that restore
the state of local-history and loop predictors.

The paper performs a *forwards* walk in hardware (oldest squashed entry
first, as in [Soundararajan et al. 2019]); restoring from per-entry
snapshots, the correct final state for any structure index is the snapshot
of the *oldest* squashed entry that touched it.  We therefore walk youngest
first so the oldest snapshot lands last — the cycle cost accounted is
identical, and the resulting state matches what the hardware walk
reconstructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.events import dispatch_event
from repro.core.history import LocalHistoryProvider
from repro.core.history_file import HistoryFileEntry
from repro.core.interface import PredictorComponent


@dataclass
class RepairStats:
    """Bookkeeping for repair-walk activity."""

    walks: int = 0
    entries_repaired: int = 0
    walk_cycles: int = 0


class RepairStateMachine:
    """Generates repair events and accounts for walk latency."""

    def __init__(
        self,
        components: Sequence[PredictorComponent],
        local_history: LocalHistoryProvider,
        walk_width: int = 2,
    ):
        if walk_width < 1:
            raise ValueError("repair walk width must be >= 1")
        self._components = components
        # Only components overriding ``on_repair`` receive repair events;
        # the base-class hook is a no-op, so skipping it per squashed entry
        # is free and saves a bundle clone per component per walk step.
        self._repair_components = tuple(
            c
            for c in components
            if type(c).on_repair is not PredictorComponent.on_repair
        )
        self._local_history = local_history
        self.walk_width = walk_width
        self.stats = RepairStats()

    def repair(self, squashed: List[HistoryFileEntry]) -> int:
        """Repair state for squashed entries; return the walk's cycle cost.

        ``squashed`` arrives oldest-first (as produced by
        ``HistoryFile.squash_after``); the walk processes youngest-first so
        the oldest snapshots win (see module docstring).
        """
        if not squashed:
            return 0
        repair_components = self._repair_components
        for entry in reversed(squashed):
            self._local_history.restore(entry.lhist_index, entry.lhist_snapshot)
            if repair_components:
                dispatch_event(
                    "on_repair", repair_components, bundle_fields(entry), entry.metas
                )
        cycles = math.ceil(len(squashed) / self.walk_width)
        self.stats.walks += 1
        self.stats.entries_repaired += len(squashed)
        self.stats.walk_cycles += cycles
        return cycles


def bundle_fields(
    entry: HistoryFileEntry, mispredicted: bool = False
) -> Tuple[object, ...]:
    """The common event payload of a history-file entry (§III-E).

    Every :class:`~repro.core.events.UpdateBundle` field in declaration
    order, with ``meta`` left 0, built once per event;
    :func:`~repro.core.events.dispatch_event` gives each component its own
    bundle of these fields and its own metadata.
    """
    return (
        entry.fetch_pc,
        entry.width,
        entry.req_ghist,
        entry.lhist_snapshot,
        entry.phist_snapshot,
        0,
        entry.br_mask,
        entry.taken_mask,
        entry.cfi_idx,
        entry.cfi_taken,
        entry.cfi_target,
        entry.cfi_is_br,
        entry.cfi_is_jal,
        entry.cfi_is_jalr,
        mispredicted or entry.mispredicted,
        entry.mispredict_idx,
    )
