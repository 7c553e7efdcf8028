"""ITTAGE-style indirect-target predictor — library extension.

The starter library predicts indirect-jump targets only through the BTB
(one remembered target per site), so dispatch-heavy code (perlbench-style
interpreters) pays a target mispredict whenever the jump changes target.
ITTAGE [Seznec & Michaud, via the TAGE family] applies the tagged
geometric-history idea to *targets*: tables indexed by PC and folded global
history store full targets, so the history disambiguates which case of a
switch is coming.

Interface-wise this is the complement of the direction components: it
overrides the ``target`` field of indirect-jump slots and passes directions
through untouched (§III-F), and uses the metadata field to carry the
provider table and the predicted target's confidence to update time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro._util import id_bits, log2_exact, saturating_update
from repro.components.base import SpecComponent
from repro.components.btb import TARGET_BITS
from repro.components.tage import geometric_history_lengths, tagged_hasher
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector, SlotPrediction
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec


class ITTAGE(SpecComponent):
    """Tagged geometric-history indirect-target tables."""

    def __init__(
        self,
        name: str,
        latency: int = 3,
        fetch_width: int = 4,
        n_tables: int = 4,
        n_sets: int = 256,
        min_history: int = 2,
        max_history: int = 32,
        tag_bits: int = 9,
        conf_bits: int = 2,
    ):
        self.fetch_width = fetch_width
        self.n_sets = n_sets
        self.tag_bits = tag_bits
        self.conf_bits = conf_bits
        self.history_lengths = geometric_history_lengths(
            n_tables, min_history, max_history
        )
        self._index_bits = log2_exact(n_sets)
        #: ``(fetch_pc, ghist) -> ((index, tag), ...)`` over every table,
        #: shared by lookup, update and allocation.
        self._index_tags = tagged_hasher(
            fetch_width,
            tuple(
                (length, self._index_bits, tag_bits)
                for length in self.history_lengths
            ),
            split_tag=False,
        )
        super().__init__(name, latency, self._build_spec())
        self.provides_targets = True
        n = len(self.history_lengths)
        self._valid = [np.zeros(n_sets, dtype=bool) for _ in range(n)]
        self._tags = [np.zeros(n_sets, dtype=np.int64) for _ in range(n)]
        self._lanes = [np.zeros(n_sets, dtype=np.int64) for _ in range(n)]
        self._targets = [np.zeros(n_sets, dtype=np.int64) for _ in range(n)]
        self._conf = [np.zeros(n_sets, dtype=np.int64) for _ in range(n)]

    # ------------------------------------------------------------------
    def _matches(self, fetch_pc: int, ghist: int) -> List[Tuple[int, int]]:
        hits = []
        for table, (index, tag) in enumerate(self._index_tags(fetch_pc, ghist)):
            if self._valid[table][index] and int(self._tags[table][index]) == tag:
                hits.append((table, index))
        return hits

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0]
        hits = self._matches(req.fetch_pc, req.ghist)
        if not hits:
            return out, self._codec.pack(provider_valid=0, provider=0, lane=0, conf=0)
        provider, index = hits[-1]
        lane = int(self._lanes[provider][index])
        conf = int(self._conf[provider][index])
        offset = req.fetch_pc % self.fetch_width
        slot_idx = lane - offset
        if 0 <= slot_idx < len(out.slots) and conf >= (1 << (self.conf_bits - 1)):
            target = int(self._targets[provider][index])
            slot = SlotPrediction(hit=True, is_jump=True, taken=True, target=target)
            out = out.with_slot(slot_idx, slot)
        return out, self._codec.pack(
            provider_valid=1, provider=provider, lane=slot_idx if slot_idx >= 0 else 0,
            conf=conf,
        )

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        if not bundle.cfi_is_jalr or bundle.cfi_idx is None:
            return
        actual_target = bundle.cfi_target
        if actual_target is None:
            return
        fields = self._codec.unpack(bundle.meta)
        lane = (bundle.fetch_pc % self.fetch_width) + bundle.cfi_idx

        # The predict-time hash pass, memoised: nothing is re-hashed here.
        rows = self._index_tags(bundle.fetch_pc, bundle.ghist)
        if fields["provider_valid"]:
            provider = int(fields["provider"])
            index, tag = rows[provider]
            if self._valid[provider][index] and int(self._tags[provider][index]) == tag:
                if int(self._targets[provider][index]) == actual_target:
                    self._conf[provider][index] = saturating_update(
                        int(fields["conf"]), True, self.conf_bits
                    )
                else:
                    conf = saturating_update(int(fields["conf"]), False, self.conf_bits)
                    self._conf[provider][index] = conf
                    if conf == 0:
                        self._targets[provider][index] = actual_target
                        self._lanes[provider][index] = lane

        # Allocate a longer-history entry on a target mispredict.
        if bundle.mispredicted:
            start = int(fields["provider"]) + 1 if fields["provider_valid"] else 0
            for table in range(start, len(self.history_lengths)):
                index, tag = rows[table]
                if not self._valid[table][index] or int(self._conf[table][index]) == 0:
                    self._valid[table][index] = True
                    self._tags[table][index] = tag
                    self._lanes[table][index] = lane
                    self._targets[table][index] = actual_target
                    self._conf[table][index] = 1 << (self.conf_bits - 1)
                    break

    # ------------------------------------------------------------------
    def _build_spec(self) -> ComponentSpec:
        lane = FieldSpec("lane", id_bits(self.fetch_width))
        conf = FieldSpec("conf", self.conf_bits)
        tables = []
        for table_id, length in enumerate(self.history_lengths):
            tables.append(
                TableSpec(
                    f"table{table_id}(h={length})",
                    entries=self.n_sets,
                    fields=(
                        FieldSpec("valid", 1),
                        FieldSpec("tag", self.tag_bits),
                        lane,
                        FieldSpec("target", TARGET_BITS),
                        conf,
                    ),
                    update="allocate-on-miss",
                    index=IndexFn(
                        "gshare",
                        self._index_bits,
                        length,
                        key="packet",
                        fetch_width=self.fetch_width,
                    ),
                    probe=lambda c, pc, g, l, p, t=table_id: c._index_tags(pc, g)[t][
                        0
                    ],
                )
            )
        return ComponentSpec(
            component=type(self).__name__,
            tables=tuple(tables),
            meta_fields=(
                FieldSpec("provider_valid", 1),
                FieldSpec("provider", id_bits(len(self.history_lengths))),
                lane,
                conf,
            ),
            ghist_bits=max(self.history_lengths),
        )
