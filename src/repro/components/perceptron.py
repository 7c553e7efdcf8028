"""Perceptron predictor [Jiménez & Lin, HPCA'01] — library extension.

The paper lists the perceptron as a sub-component type that "may be
implemented similarly" with the COBRA interface (§III-G); we include it to
demonstrate that claim.  The perceptron provides a single prediction per
packet (§III-C): it predicts the first slot ``predict_in`` identifies as a
conditional branch, or — lacking branch-location information — overrides
no slot at all.

The metadata stores the dot-product magnitude bucket and the predicted
direction so the update rule (train on mispredict or weak confidence) needs
no recomputation.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro._util import hash_pc, id_bits, log2_exact, mask
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec


class Perceptron(SpecComponent):
    """Global-history perceptron with one weight vector per branch hash."""

    def __init__(
        self,
        name: str,
        latency: int = 3,
        n_entries: int = 256,
        fetch_width: int = 4,
        history_bits: int = 24,
        weight_bits: int = 8,
    ):
        self.n_entries = n_entries
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.weight_bits = weight_bits
        self._index_bits = log2_exact(n_entries)
        super().__init__(name, latency, self._build_spec())
        # weights[:, 0] is the bias weight.
        self._weights = np.zeros((n_entries, history_bits + 1), dtype=np.int32)
        self.threshold = int(1.93 * history_bits + 14)
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))

    # ------------------------------------------------------------------
    def _inputs(self, ghist: int) -> np.ndarray:
        bits = np.fromiter(
            ((ghist >> i) & 1 for i in range(self.history_bits)),
            dtype=np.int32,
            count=self.history_bits,
        )
        signed = bits * 2 - 1
        return np.concatenate(([1], signed))

    def _dot(self, branch_pc: int, ghist: int) -> Tuple[int, int]:
        index = hash_pc(branch_pc, self._index_bits)
        total = int(self._weights[index] @ self._inputs(ghist))
        return index, total

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0].copy()
        for lane, slot in enumerate(predict_in[0].slots):
            if not (slot.hit and slot.is_branch):
                continue
            _, total = self._dot(req.fetch_pc + lane, req.ghist)
            taken = total >= 0
            out_slot = out.slots[lane]
            out_slot.hit = True
            out_slot.taken = taken
            meta = self._codec.pack(
                cand_valid=1,
                lane=lane,
                taken=int(taken),
                magnitude=min(abs(total), mask(12)),
            )
            return out, meta
        return out, self._codec.pack(cand_valid=0, lane=0, taken=0, magnitude=0)

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        fields = self._codec.unpack(bundle.meta)
        if not fields["cand_valid"]:
            return
        lane = int(fields["lane"])
        if lane >= len(bundle.br_mask) or not bundle.br_mask[lane]:
            return
        taken = bundle.taken_mask[lane]
        predicted = bool(fields["taken"])
        magnitude = int(fields["magnitude"])
        if predicted == taken and magnitude > self.threshold:
            return  # confident and correct: no training needed
        index = hash_pc(bundle.fetch_pc + lane, self._index_bits)
        direction = 1 if taken else -1
        updated = self._weights[index] + direction * self._inputs(bundle.ghist)
        np.clip(updated, self._weight_min, self._weight_max, out=self._weights[index])

    # ------------------------------------------------------------------
    def _build_spec(self) -> ComponentSpec:
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "weights",
                    entries=self.n_entries,
                    fields=(
                        FieldSpec("w", self.weight_bits, self.history_bits + 1),
                    ),
                    update="saturating-counter",
                    index=IndexFn("pc", self._index_bits, key="branch_pc"),
                    probe=lambda c, pc, g, l, p: c._dot(pc, g)[0],
                ),
            ),
            meta_fields=(
                FieldSpec("cand_valid", 1),
                FieldSpec("lane", id_bits(self.fetch_width)),
                FieldSpec("taken", 1),
                # |sum| clamped into a 12-bit magnitude.
                FieldSpec("magnitude", 12),
            ),
            # The index is PC-only but prediction consumes the history as
            # dot-product inputs, so the demand is declared explicitly.
            ghist_bits=self.history_bits,
        )
