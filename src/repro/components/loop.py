"""Loop predictor (§III-G5).

Corrects periodic mispredictions made by a base predictor: for a branch
that goes one direction exactly ``trip_count`` times and then the other way
once, the loop predictor predicts the exit on the right iteration.

Unlike the history-correlated components, the loop predictor is *updated at
query time* (the ``fire`` event advances the speculative iteration counter)
and *repaired immediately on mispredicts*, because misspeculated fires
corrupt its counters.  The metadata field tracks the pre-fire counter
contents so entries can be restored during the repair phase (§III-D/E).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._util import hash_pc, id_bits, log2_exact, mask
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec


class LoopPredictor(SpecComponent):
    """Direct-mapped, partially tagged loop predictor.

    A loop predictor can track only one branch per fetch packet (§III-C
    allows single-prediction components); the candidate is the first slot
    that ``predict_in`` identifies as a conditional branch and that matches
    an entry.
    """

    CONF_MAX = 7
    CONF_THRESHOLD = 4

    def __init__(
        self,
        name: str,
        latency: int = 3,
        n_entries: int = 256,
        fetch_width: int = 4,
        tag_bits: int = 10,
        iter_bits: int = 10,
    ):
        self.n_entries = n_entries
        self.fetch_width = fetch_width
        self.tag_bits = tag_bits
        self.iter_bits = iter_bits
        self._index_bits = log2_exact(n_entries)
        super().__init__(name, latency, self._build_spec())
        self._valid = np.zeros(n_entries, dtype=bool)
        self._tags = np.zeros(n_entries, dtype=np.int64)
        self._direction = np.zeros(n_entries, dtype=bool)  # loop-body direction
        self._trip = np.zeros(n_entries, dtype=np.int64)
        self._spec_iter = np.zeros(n_entries, dtype=np.int64)
        self._commit_iter = np.zeros(n_entries, dtype=np.int64)
        self._conf = np.zeros(n_entries, dtype=np.int64)
        # Consecutive zero-length "loop bodies": a streak means the entry's
        # direction bit is inverted (allocated on a cold-start mispredict of
        # a taken iteration rather than on the loop exit).
        self._zero_streak = np.zeros(n_entries, dtype=np.int64)

    # ------------------------------------------------------------------
    def _index_tag(self, branch_pc: int) -> Tuple[int, int]:
        index = hash_pc(branch_pc, self._index_bits)
        tag = (branch_pc >> self._index_bits) & mask(self.tag_bits)
        return index, tag

    def _entry_for(self, branch_pc: int) -> Optional[int]:
        index, tag = self._index_tag(branch_pc)
        if self._valid[index] and int(self._tags[index]) == tag:
            return index
        return None

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0].copy()
        for lane, slot in enumerate(predict_in[0].slots):
            if not (slot.hit and slot.is_branch):
                continue
            entry = self._entry_for(req.fetch_pc + lane)
            if entry is None:
                continue
            spec_iter = int(self._spec_iter[entry])
            meta = self._codec.pack(cand_valid=1, lane=lane, spec_iter=spec_iter)
            if int(self._conf[entry]) >= self.CONF_THRESHOLD and self._trip[entry] > 0:
                body = bool(self._direction[entry])
                # Predict the exit only when the speculative count matches
                # the trip exactly: if the counter has drifted past it (a
                # missed speculative update), predicting exit on *every*
                # remaining iteration would turn one mispredict into many.
                predicted = not body if spec_iter == int(self._trip[entry]) else body
                out_slot = out.slots[lane]
                out_slot.hit = True
                out_slot.taken = predicted
            return out, meta
        return out, self._codec.pack(cand_valid=0, lane=0, spec_iter=0)

    # ------------------------------------------------------------------
    def _meta_entry(self, bundle: UpdateBundle):
        """Resolve (entry, lane, pre-fire spec_iter) from metadata."""
        fields = self._codec.unpack(bundle.meta)
        if not fields["cand_valid"]:
            return None, None, None
        lane = int(fields["lane"])
        entry = self._entry_for(bundle.fetch_pc + lane)
        return entry, lane, int(fields["spec_iter"])

    def fire(self, bundle: UpdateBundle) -> None:
        """Speculatively advance the iteration counter at predict time."""
        entry, lane, _ = self._meta_entry(bundle)
        if entry is None or lane >= len(bundle.taken_mask):
            return
        if not bundle.br_mask[lane]:
            return
        if bundle.taken_mask[lane] == bool(self._direction[entry]):
            self._spec_iter[entry] = min(
                int(self._spec_iter[entry]) + 1, mask(self.iter_bits)
            )
        else:
            self._spec_iter[entry] = 0

    def on_repair(self, bundle: UpdateBundle) -> None:
        """Restore the speculative counter from the metadata snapshot."""
        entry, _, spec_iter = self._meta_entry(bundle)
        if entry is not None:
            self._spec_iter[entry] = spec_iter

    def on_mispredict(self, bundle: UpdateBundle) -> None:
        """Fast repair + resteer using the resolved direction."""
        entry, lane, spec_iter = self._meta_entry(bundle)
        if entry is None:
            return
        self._spec_iter[entry] = spec_iter
        if lane < len(bundle.taken_mask) and bundle.br_mask[lane]:
            if bundle.taken_mask[lane] == bool(self._direction[entry]):
                self._spec_iter[entry] = min(
                    spec_iter + 1, mask(self.iter_bits)
                )
            else:
                self._spec_iter[entry] = 0

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        """Commit-time trip-count training and allocation."""
        for lane, is_branch in enumerate(bundle.br_mask):
            if not is_branch:
                continue
            branch_pc = bundle.fetch_pc + lane
            entry = self._entry_for(branch_pc)
            taken = bundle.taken_mask[lane]
            if entry is not None:
                self._train(entry, taken)
            elif bundle.mispredicted and bundle.mispredict_idx == lane:
                self._allocate(branch_pc, taken)

    def _train(self, entry: int, taken: bool) -> None:
        body = bool(self._direction[entry])
        if taken == body:
            count = int(self._commit_iter[entry]) + 1
            if count > mask(self.iter_bits):
                # Iteration counter overflow: not a loop we can track.
                self._valid[entry] = False
                return
            self._commit_iter[entry] = count
            self._zero_streak[entry] = 0
        else:
            observed_trip = int(self._commit_iter[entry])
            if observed_trip == int(self._trip[entry]) and observed_trip > 0:
                self._conf[entry] = min(int(self._conf[entry]) + 1, self.CONF_MAX)
            else:
                self._trip[entry] = observed_trip
                self._conf[entry] = 1 if observed_trip > 0 else 0
            self._commit_iter[entry] = 0
            if observed_trip == 0:
                # Consecutive exits with empty bodies: the direction bit is
                # backwards (cold-start allocation polarity).  Flip and
                # retrain.
                streak = int(self._zero_streak[entry]) + 1
                if streak >= 3:
                    self._direction[entry] = not body
                    self._trip[entry] = 0
                    self._conf[entry] = 0
                    self._spec_iter[entry] = 0
                    self._zero_streak[entry] = 0
                else:
                    self._zero_streak[entry] = streak
            else:
                self._zero_streak[entry] = 0

    def _allocate(self, branch_pc: int, taken: bool) -> None:
        index, tag = self._index_tag(branch_pc)
        self._valid[index] = True
        self._tags[index] = tag
        # Take the mispredicted outcome as the loop *body* direction: for a
        # cold base predictor the first mispredict of a back-edge is its
        # first taken (body) iteration.  If the allocation instead came from
        # a missed exit, the direction is inverted and the zero-trip-streak
        # flip below corrects it.
        self._direction[index] = taken
        self._trip[index] = 0
        self._spec_iter[index] = 0
        self._commit_iter[index] = 0
        self._conf[index] = 0

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        from repro.kernels.components import LoopKernel

        return LoopKernel(self)

    def _build_spec(self) -> ComponentSpec:
        spec_iter = FieldSpec("spec_iter", self.iter_bits)
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "entries",
                    entries=self.n_entries,
                    fields=(
                        FieldSpec("valid", 1),
                        FieldSpec("tag", self.tag_bits),
                        FieldSpec("direction", 1),
                        FieldSpec("trip", self.iter_bits),
                        spec_iter,
                        FieldSpec("commit_iter", self.iter_bits),
                        FieldSpec("conf", 3),
                    ),
                    # Speculative fire/repair protocol: state advances at
                    # predict time and is restored from metadata snapshots.
                    update="exact-event",
                    index=IndexFn("pc", self._index_bits, key="branch_pc"),
                    probe=lambda c, pc, g, l, p: c._index_tag(pc)[0],
                ),
            ),
            meta_fields=(
                FieldSpec("cand_valid", 1),
                FieldSpec("lane", id_bits(self.fetch_width)),
                spec_iter,
            ),
        )
