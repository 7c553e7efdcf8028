"""GTag: a single partially tagged history-indexed counter table.

This is the backing direction predictor of the original BOOM design (the
"B2" topology in §V-A pairs a partially tagged table of history-indexed
counters, GTAG, with a PC-indexed bimodal).  On a tag hit it overrides the
incoming direction; on a miss it passes ``predict_in`` through (§III-F).

Storage, the gshare row hash, the counter training, storage accounting,
and the columnar kernel are spec-derived (:mod:`repro.derive`).  The tag
hash and the allocate-on-miss walk have no declared closed form and stay
hand-written hooks — ``tag_columns`` is the vectorized tag hook the
generated kernel consumes.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro._util import counter_taken, fold_history, log2_exact, mask
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.derive.tables import DerivedTable
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec


class GTag(SpecComponent):
    """Partially tagged, global-history-indexed superscalar counter table."""

    def __init__(
        self,
        name: str,
        latency: int = 3,
        n_sets: int = 512,
        fetch_width: int = 4,
        history_bits: int = 16,
        tag_bits: int = 10,
        counter_bits: int = 2,
    ):
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        self._index_bits = log2_exact(n_sets)
        super().__init__(name, latency, self._build_spec())
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        self._counters = DerivedTable(
            self._spec.tables[0], init={"ctr": self._weak_nt}
        )
        self._tagstore = DerivedTable(self._spec.tables[1])
        self.derived_tables = {
            "counters": self._counters,
            "tags": self._tagstore,
        }
        self._valid = self._tagstore.data("valid")
        self._tags = self._tagstore.data("tag")
        self._ctrs = self._counters.lanes("ctr")

    # ------------------------------------------------------------------
    def _tag(self, fetch_pc: int, ghist: int) -> int:
        """Custom tag hash (no declared closed form)."""
        packet = (fetch_pc - (fetch_pc % self.fetch_width)) // self.fetch_width
        return (
            (packet >> 2)
            ^ fold_history(ghist, self.history_bits, self.tag_bits)
        ) & mask(self.tag_bits)

    def _index_tag(self, fetch_pc: int, ghist: int) -> Tuple[int, int]:
        return (
            self._counters.row(fetch_pc, ghist),
            self._tag(fetch_pc, ghist),
        )

    def tag_columns(self, ctx) -> np.ndarray:
        """Vectorized :meth:`_tag` — the generated kernel's gate hook."""
        from repro.kernels.vector_ops import fold_history_vec

        packet = ctx.aligned // self.fetch_width
        return (
            (packet >> 2)
            ^ fold_history_vec(ctx.req_ghist, self.history_bits, self.tag_bits)
        ) & mask(self.tag_bits)

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        index, tag = self._index_tag(req.fetch_pc, req.ghist)
        out = predict_in[0].copy()
        hit = bool(self._valid[index]) and int(self._tags[index]) == tag
        row = self._ctrs[index]
        if hit:
            offset = req.fetch_pc % self.fetch_width
            for slot_idx, slot in enumerate(out.slots):
                if slot.is_jump:
                    continue
                slot.hit = True
                slot.taken = counter_taken(
                    int(row[offset + slot_idx]), self.counter_bits
                )
        meta = self._codec.pack(hit=int(hit), ctr=row.tolist())
        return out, meta

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        if not any(bundle.br_mask):
            return
        fields = self._codec.unpack(bundle.meta)
        index, tag = self._index_tag(bundle.fetch_pc, bundle.ghist)
        offset = bundle.fetch_pc % self.fetch_width
        was_hit = bool(fields["hit"])
        if was_hit:
            counters = fields["ctr"]
            for slot_idx, is_branch in enumerate(bundle.br_mask):
                if is_branch:
                    lane = offset + slot_idx
                    # Closed-form train from the predict-time counter in
                    # the metadata (§III-D).
                    self._counters.train(
                        index,
                        bundle.taken_mask[slot_idx],
                        lane=lane if self.fetch_width > 1 else None,
                        counter=int(counters[lane]),
                    )
        elif bundle.mispredicted:
            # Allocate on a misprediction the backing predictor got wrong:
            # claim the set, seeding counters weakly toward the outcomes.
            # The allocate-on-miss walk is not closed-form; it writes the
            # derived arrays directly.
            self._valid[index] = True
            self._tags[index] = tag
            self._ctrs[index, :] = self._weak_nt
            for slot_idx, is_branch in enumerate(bundle.br_mask):
                if is_branch:
                    lane = offset + slot_idx
                    taken = bundle.taken_mask[slot_idx]
                    self._ctrs[index, lane] = (
                        self._weak_nt + 1 if taken else self._weak_nt
                    )

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        from repro.derive.kernels import derived_kernel

        return derived_kernel(self)

    def _build_spec(self) -> ComponentSpec:
        ctr = FieldSpec("ctr", self.counter_bits, self.fetch_width)
        index = IndexFn(
            "gshare",
            self._index_bits,
            self.history_bits,
            key="packet",
            fetch_width=self.fetch_width,
        )

        def probe(c, pc, g, l, p):
            return c._index_tag(pc, g)[0]

        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "counters",
                    entries=self.n_sets,
                    fields=(ctr,),
                    update="saturating-counter",
                    index=index,
                    probe=probe,
                ),
                TableSpec(
                    "tags",
                    entries=self.n_sets,
                    fields=(FieldSpec("valid", 1), FieldSpec("tag", self.tag_bits)),
                    update="allocate-on-miss",
                    index=index,
                    probe=probe,
                ),
            ),
            meta_fields=(FieldSpec("hit", 1), ctr),
            ghist_bits=self.history_bits,
        )
