"""Tournament selector (§III-G3).

An arbitration scheme taking two ``predict_in`` vectors (§III-F) and
choosing per slot with a 2-bit chooser table indexed by global history, as
in the Alpha 21264.  The metadata field tracks the predictions made by both
sub-predictors so the chooser can be trained at update time without
re-querying them (§III-D).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro._util import fold_history, hash_pc, log2_exact, saturating_update
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import InterfaceError
from repro.core.prediction import PredictionVector, SlotPrediction
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec

_new_tuple = tuple.__new__


class Tourney(SpecComponent):
    """Global-history-indexed tournament chooser between two predictors.

    Chooser counter semantics: high counters select the *second* input
    (``predict_in[1]``), low counters the first.
    """

    def __init__(
        self,
        name: str,
        latency: int = 3,
        n_sets: int = 256,
        fetch_width: int = 4,
        history_bits: int = 16,
        counter_bits: int = 2,
        index: str = "ghist",
    ):
        if index not in ("ghist", "gshare"):
            raise InterfaceError(
                f"{name}: tournament chooser index must be history-based"
            )
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.index = index
        self._index_bits = log2_exact(n_sets)
        super().__init__(name, latency, self._build_spec())
        mid = 1 << (counter_bits - 1)
        self._table = np.full((n_sets, fetch_width), mid, dtype=np.uint8)

    # ------------------------------------------------------------------
    def _index(self, fetch_pc: int, ghist: int) -> int:
        folded = fold_history(ghist, self.history_bits, self._index_bits)
        if self.index == "ghist":
            return folded
        packet = (fetch_pc - (fetch_pc % self.fetch_width)) // self.fetch_width
        return folded ^ hash_pc(packet, self._index_bits)

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        if len(predict_in) != 2:
            raise InterfaceError(
                f"{self.name}: expected 2 predict_in vectors, got {len(predict_in)}"
            )
        first, second = predict_in
        row = self._table[self._index(req.fetch_pc, req.ghist)].tolist()
        offset = req.fetch_pc % self.fetch_width
        half = 1 << (self.counter_bits - 1)
        # Each side's predicted directions, padded to full fetch-width
        # lanes for the metadata.
        a_taken = [0] * self.fetch_width
        b_taken = [0] * self.fetch_width
        slots = []
        for lane, (slot, second_slot) in enumerate(
            zip(first.slots, second.slots), offset
        ):
            a_taken[lane] = int(slot.hit and slot.taken)
            b_taken[lane] = int(second_slot.hit and second_slot.taken)
            if row[lane] >= half:
                chosen, other = second_slot, slot
            else:
                chosen, other = slot, second_slot
            if chosen.hit and not slot.is_jump:
                # Targets flow from whichever side knows them; prefer the
                # chosen side's target, falling back to the other.
                target = chosen.target if chosen.target is not None else other.target
                is_branch = chosen.is_branch or other.is_branch
                fields = (True, is_branch, False, chosen.taken, target)
                slot = _new_tuple(SlotPrediction, fields)
            slots.append(slot)
        out = _new_tuple(PredictionVector, (first.fetch_pc, tuple(slots)))
        meta = self._codec.pack(choice=row, a_taken=a_taken, b_taken=b_taken)
        return out, meta

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        """Train the chooser toward whichever sub-predictor was right."""
        if not any(bundle.br_mask):
            return
        fields = self._codec.unpack(bundle.meta)
        index = self._index(bundle.fetch_pc, bundle.ghist)
        offset = bundle.fetch_pc % self.fetch_width
        row = self._table[index]
        for slot_idx, is_branch in enumerate(bundle.br_mask):
            if not is_branch:
                continue
            lane = offset + slot_idx
            taken = bundle.taken_mask[slot_idx]
            a_right = bool(fields["a_taken"][lane]) == taken
            b_right = bool(fields["b_taken"][lane]) == taken
            if a_right == b_right:
                continue  # chooser learns only when the predictors disagree
            row[lane] = saturating_update(
                int(fields["choice"][lane]), b_right, self.counter_bits
            )

    # ------------------------------------------------------------------
    def _build_spec(self) -> ComponentSpec:
        choice = FieldSpec("choice", self.counter_bits, self.fetch_width)
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "choosers",
                    entries=self.n_sets,
                    fields=(choice,),
                    update="saturating-counter",
                    index=IndexFn(
                        self.index,
                        self._index_bits,
                        self.history_bits,
                        key="packet",
                        fetch_width=self.fetch_width,
                    ),
                    probe=lambda c, pc, g, l, p: c._index(pc, g),
                ),
            ),
            meta_fields=(
                choice,
                FieldSpec("a_taken", 1, self.fetch_width),
                FieldSpec("b_taken", 1, self.fetch_width),
            ),
            ghist_bits=self.history_bits,
            n_inputs=2,
        )

