"""Statistical corrector — library extension (GEHL-style, [Seznec 2016]).

The TAGE-SC-L design the paper's TAGE-L topology approximates includes a
statistical corrector; the paper omits it ("only with no statistical
corrector") but names it as implementable with the COBRA interface
(§III-G).  This component demonstrates that: it sits *above* a TAGE chain,
consumes the incoming prediction, and reverts it when several short-history
weighted tables strongly disagree with it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro._util import fold_history, hash_pc, id_bits, log2_exact, sign_extend
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec


class StatisticalCorrector(SpecComponent):
    """Small GEHL-like corrector over the incoming prediction.

    Each table holds centered signed counters indexed by PC XOR a folded
    short history XOR *the incoming predicted direction* — conditioning on
    the incoming prediction is what separates a statistical corrector from
    a plain GEHL predictor: the counters learn "given this context, when
    the primary predictor says taken, what actually happens", so the
    corrector only reverts predictions the primary gets *systematically*
    wrong.  When the weighted sum contradicts the incoming direction with
    enough magnitude, the direction is flipped.
    """

    def __init__(
        self,
        name: str,
        latency: int = 3,
        n_sets: int = 256,
        fetch_width: int = 4,
        history_lengths: Sequence[int] = (4, 10, 16),
        counter_bits: int = 6,
    ):
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.history_lengths = list(history_lengths)
        self.counter_bits = counter_bits
        self._index_bits = log2_exact(n_sets)
        super().__init__(name, latency, self._build_spec())
        self._ctr_max = (1 << (counter_bits - 1)) - 1
        self._ctr_min = -(1 << (counter_bits - 1))
        self._tables = [
            np.zeros(n_sets, dtype=np.int32) for _ in self.history_lengths
        ]
        self.flip_threshold = 24

    # ------------------------------------------------------------------
    def _indices(self, branch_pc: int, ghist: int, incoming: bool) -> List[int]:
        inc_bit = int(incoming)
        base_mask = (1 << self._index_bits) - 1
        return [
            (
                (
                    (
                        hash_pc(branch_pc, self._index_bits)
                        ^ fold_history(ghist, length, self._index_bits)
                    )
                    << 1
                )
                | inc_bit
            )
            & base_mask
            for length in self.history_lengths
        ]

    def _sum(self, counters: List[int], incoming_taken: bool) -> int:
        # The incoming prediction enters the sum with a strong weight, so
        # weakly trained counters never flip it.
        bias = 40 if incoming_taken else -40
        return bias + sum(2 * c + 1 for c in counters)

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0]
        for lane, slot in enumerate(out.slots):
            if not (slot.hit and slot.is_branch):
                continue
            incoming = bool(slot.taken)
            indices = self._indices(req.fetch_pc + lane, req.ghist, incoming)
            counters = [int(t[i]) for t, i in zip(self._tables, indices)]
            total = self._sum(counters, incoming)
            corrected = total >= 0
            flipped = corrected != incoming and abs(total) >= self.flip_threshold
            if flipped:
                out = out.with_slot(lane, slot.with_direction(corrected))
            meta = self._codec.pack(
                cand_valid=1,
                lane=lane,
                incoming=int(incoming),
                ctr=[c & ((1 << self.counter_bits) - 1) for c in counters],
                flipped=int(flipped),
            )
            return out, meta
        return out, self._codec.pack(
            cand_valid=0, lane=0, incoming=0, ctr=[0] * len(self._tables), flipped=0
        )

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        fields = self._codec.unpack(bundle.meta)
        if not fields["cand_valid"]:
            return
        lane = int(fields["lane"])
        if lane >= len(bundle.br_mask) or not bundle.br_mask[lane]:
            return
        taken = bundle.taken_mask[lane]
        incoming = bool(fields["incoming"])
        indices = self._indices(bundle.fetch_pc + lane, bundle.ghist, incoming)
        for table, index, raw in zip(self._tables, indices, fields["ctr"]):
            counter = sign_extend(int(raw), self.counter_bits)
            if taken:
                table[index] = min(counter + 1, self._ctr_max)
            else:
                table[index] = max(counter - 1, self._ctr_min)

    # ------------------------------------------------------------------
    def _build_spec(self) -> ComponentSpec:
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "tables",
                    entries=self.n_sets,
                    ways=len(self.history_lengths),
                    fields=(FieldSpec("ctr", self.counter_bits),),
                    update="saturating-counter",
                    # PC XOR folded history, shifted left one and OR'd with
                    # the *incoming predicted direction* — conditioning on a
                    # dataflow input has no closed form over the stimulus.
                    index=IndexFn(
                        "custom", self._index_bits, max(self.history_lengths)
                    ),
                ),
            ),
            meta_fields=(
                FieldSpec("cand_valid", 1),
                FieldSpec("lane", id_bits(self.fetch_width)),
                FieldSpec("incoming", 1),
                FieldSpec("ctr", self.counter_bits, len(self.history_lengths)),
                FieldSpec("flipped", 1),
            ),
            ghist_bits=max(self.history_lengths),
        )
