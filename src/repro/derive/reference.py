"""Frozen pre-refactor scalar implementations (the SPEC009 oracle side).

The PR that introduced :mod:`repro.derive` migrated the indexed-counter
families — HBIM and its index-scheme variants, the two-level GAg/GAp/
PAg/PAp organizations, and GTag — onto the spec-derived runtime.  This
module keeps verbatim copies of the superseded hand implementations so
the migration stays *differentially* gated forever, the same way the
backend (PR 4), kernel (PR 6), and spec (PR 8) migrations were:

- analyzer rule SPEC009 drives a fresh derived component and its frozen
  reference twin through the seeded contract stimulus and requires
  bit-identical prediction/metadata/event logs;
- the fuzzer's ``derive`` oracle does the same on fuzz-drawn sizings.

These classes are deliberately *not* exported from the component
library: they declare no spec, carry no kernel, and exist only as
behavioral oracles.  Do not "fix" or modernize them — their value is
that they do not change.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._util import (
    counter_taken,
    fold_history,
    hash_pc,
    log2_exact,
    mask,
    saturating_update,
    shift_in,
)
from repro.components.base import IndexScheme, MetaCodec
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import (
    InterfaceError,
    PredictorComponent,
    StorageReport,
)
from repro.core.prediction import PredictionVector


class ReferenceHBIM(PredictorComponent):
    """Verbatim pre-derive :class:`~repro.components.bimodal.HBIM`."""

    def __init__(
        self,
        name: str,
        latency: int = 2,
        n_sets: int = 2048,
        fetch_width: int = 4,
        index: str = "pc",
        history_bits: int = 0,
        counter_bits: int = 2,
    ):
        self._scheme = IndexScheme(index, log2_exact(n_sets), history_bits)
        self._codec = MetaCodec([("ctr", counter_bits, fetch_width)])
        super().__init__(
            name,
            latency,
            meta_bits=self._codec.width,
            uses_global_history=self._scheme.uses_global_history,
            uses_local_history=self._scheme.uses_local_history,
        )
        self.uses_path_history = self._scheme.uses_path_history
        if self._scheme.uses_global_history:
            self.required_ghist_bits = history_bits
        elif self._scheme.uses_local_history:
            self.required_lhist_bits = history_bits
        elif self.uses_path_history:
            self.required_phist_bits = history_bits
        if latency < 2 and self.uses_path_history:
            raise InterfaceError(
                f"{name}: path history arrives at the end of cycle 1"
            )
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.counter_bits = counter_bits
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        self._table = np.full(
            (n_sets, fetch_width), self._weak_nt, dtype=np.uint8
        )

    def _index(
        self, req_pc: int, ghist: int, lhist: int, phist: int = 0
    ) -> int:
        packet_pc = req_pc - (req_pc % self.fetch_width)
        return self._scheme.index(
            packet_pc // self.fetch_width, ghist, lhist, phist
        )

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        row = self._table[
            self._index(req.fetch_pc, req.ghist, req.lhist, req.phist)
        ].tolist()
        offset = req.fetch_pc % self.fetch_width
        slots = []
        for slot_idx, slot in enumerate(predict_in[0].slots):
            counter = row[offset + slot_idx]
            taken = slot.taken
            if not slot.is_jump:
                taken = counter_taken(counter, self.counter_bits)
            slots.append(slot.with_direction(taken))
        out = PredictionVector(predict_in[0].fetch_pc, tuple(slots))
        meta = self._codec.pack(
            ctr=row if self.fetch_width > 1 else row[0]
        )
        return out, meta

    def on_update(self, bundle: UpdateBundle) -> None:
        if not any(bundle.br_mask):
            return
        counters = self._codec.unpack(bundle.meta)["ctr"]
        if self.fetch_width == 1:
            counters = [counters]
        index = self._index(
            bundle.fetch_pc, bundle.ghist, bundle.lhist, bundle.phist
        )
        offset = bundle.fetch_pc % self.fetch_width
        row = self._table[index]
        for slot_idx, is_branch in enumerate(bundle.br_mask):
            if not is_branch:
                continue
            lane = offset + slot_idx
            taken = bundle.taken_mask[slot_idx]
            row[lane] = saturating_update(
                int(counters[lane]), taken, self.counter_bits
            )

    def storage(self) -> StorageReport:
        bits = self.n_sets * self.fetch_width * self.counter_bits
        return StorageReport(
            self.name,
            sram_bits=bits,
            breakdown={"counters": bits},
            access_bits=self.fetch_width * self.counter_bits,
        )


class ReferenceTwoLevel(PredictorComponent):
    """Verbatim pre-derive :class:`~repro.components.twolevel.TwoLevel`."""

    VARIANTS = ("GAg", "GAp", "PAg", "PAp")

    def __init__(
        self,
        name: str,
        latency: int = 3,
        variant: str = "PAg",
        fetch_width: int = 4,
        history_bits: int = 10,
        l1_entries: int = 256,
        l2_sets_per_table: int = 1024,
        l2_tables: int = 16,
        counter_bits: int = 2,
    ):
        if variant not in self.VARIANTS:
            raise InterfaceError(
                f"{name}: unknown two-level variant {variant!r}; "
                f"choose from {self.VARIANTS}"
            )
        if (1 << history_bits) > l2_sets_per_table:
            raise InterfaceError(
                f"{name}: pattern table ({l2_sets_per_table} sets) cannot "
                f"index {history_bits} history bits"
            )
        lane_bits = max(1, (fetch_width - 1).bit_length())
        self._codec = MetaCodec(
            [
                ("cand_valid", 1),
                ("lane", lane_bits),
                ("hist", history_bits),
                ("ctr", counter_bits),
            ]
        )
        super().__init__(
            name,
            latency,
            meta_bits=self._codec.width,
            uses_global_history=variant.startswith("G"),
        )
        if variant.startswith("G"):
            self.required_ghist_bits = history_bits
        self.variant = variant
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.l1_entries = l1_entries
        self._l1_index_bits = log2_exact(l1_entries)
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        self._l1 = np.zeros(l1_entries, dtype=np.int64)
        self.l2_tables = l2_tables if variant.endswith("p") else 1
        self.l2_sets = l2_sets_per_table
        self._l2_index_bits = log2_exact(l2_sets_per_table)
        self._l2 = np.full(
            (self.l2_tables, l2_sets_per_table), self._weak_nt, dtype=np.uint8
        )

    def _l1_index(self, branch_pc: int) -> int:
        return hash_pc(branch_pc, self._l1_index_bits)

    def _level1_history(self, branch_pc: int, ghist: int) -> int:
        if self.variant.startswith("G"):
            return ghist & mask(self.history_bits)
        return int(self._l1[self._l1_index(branch_pc)]) & mask(
            self.history_bits
        )

    def _l2_slot(self, branch_pc: int, history: int) -> Tuple[int, int]:
        table = (
            hash_pc(branch_pc, max(1, (self.l2_tables - 1).bit_length()))
            % self.l2_tables
        )
        index = history & mask(self._l2_index_bits)
        return table, index

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0]
        for lane, slot in enumerate(out.slots):
            if not (slot.hit and slot.is_branch):
                continue
            branch_pc = req.fetch_pc + lane
            history = self._level1_history(branch_pc, req.ghist)
            table, index = self._l2_slot(branch_pc, history)
            counter = int(self._l2[table, index])
            taken = counter_taken(counter, self.counter_bits)
            out = out.with_slot(lane, slot.with_direction(taken))
            meta = self._codec.pack(
                cand_valid=1, lane=lane, hist=history, ctr=counter
            )
            return out, meta
        return out, self._codec.pack(cand_valid=0, lane=0, hist=0, ctr=0)

    def _meta(self, bundle: UpdateBundle):
        fields = self._codec.unpack(bundle.meta)
        if not fields["cand_valid"]:
            return None
        lane = int(fields["lane"])
        if lane >= len(bundle.br_mask) or not bundle.br_mask[lane]:
            return None
        return lane, int(fields["hist"]), int(fields["ctr"])

    def fire(self, bundle: UpdateBundle) -> None:
        if self.variant.startswith("G"):
            return
        info = self._meta(bundle)
        if info is None:
            return
        lane, _, _ = info
        index = self._l1_index(bundle.fetch_pc + lane)
        self._l1[index] = shift_in(
            int(self._l1[index]), bundle.taken_mask[lane], self.history_bits
        )

    def on_repair(self, bundle: UpdateBundle) -> None:
        if self.variant.startswith("G"):
            return
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, _ = info
        self._l1[self._l1_index(bundle.fetch_pc + lane)] = history

    def on_mispredict(self, bundle: UpdateBundle) -> None:
        if self.variant.startswith("G"):
            return
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, _ = info
        corrected = shift_in(
            history, bundle.taken_mask[lane], self.history_bits
        )
        self._l1[self._l1_index(bundle.fetch_pc + lane)] = corrected

    def on_update(self, bundle: UpdateBundle) -> None:
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, counter = info
        taken = bundle.taken_mask[lane]
        table, index = self._l2_slot(bundle.fetch_pc + lane, history)
        self._l2[table, index] = saturating_update(
            counter, taken, self.counter_bits
        )

    def storage(self) -> StorageReport:
        l1_bits = (
            0
            if self.variant.startswith("G")
            else self.l1_entries * self.history_bits
        )
        l2_bits = self.l2_tables * self.l2_sets * self.counter_bits
        return StorageReport(
            self.name,
            sram_bits=l1_bits + l2_bits,
            breakdown={"l1_histories": l1_bits, "l2_patterns": l2_bits},
            access_bits=self.history_bits + self.counter_bits,
        )


class ReferenceGTag(PredictorComponent):
    """Verbatim pre-derive :class:`~repro.components.gtag.GTag`."""

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
        self._codec = MetaCodec(
            [("hit", 1), ("ctr", counter_bits, fetch_width)]
        )
        super().__init__(
            name,
            latency,
            meta_bits=self._codec.width,
            uses_global_history=True,
        )
        self.required_ghist_bits = history_bits
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        self._index_bits = log2_exact(n_sets)
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        self._valid = np.zeros(n_sets, dtype=bool)
        self._tags = np.zeros(n_sets, dtype=np.int64)
        self._ctrs = np.full(
            (n_sets, fetch_width), self._weak_nt, dtype=np.uint8
        )

    def _index_tag(self, fetch_pc: int, ghist: int) -> Tuple[int, int]:
        packet = (fetch_pc - (fetch_pc % self.fetch_width)) // self.fetch_width
        folded = fold_history(ghist, self.history_bits, self._index_bits)
        index = hash_pc(packet, self._index_bits) ^ folded
        tag = (
            (packet >> 2)
            ^ fold_history(ghist, self.history_bits, self.tag_bits)
        ) & mask(self.tag_bits)
        return index, tag

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        index, tag = self._index_tag(req.fetch_pc, req.ghist)
        out = predict_in[0]
        hit = bool(self._valid[index]) and int(self._tags[index]) == tag
        row = self._ctrs[index]
        if hit:
            offset = req.fetch_pc % self.fetch_width
            slots = []
            for slot_idx, slot in enumerate(out.slots):
                if not slot.is_jump:
                    slot = slot.with_direction(
                        counter_taken(int(row[offset + slot_idx]), self.counter_bits)
                    )
                slots.append(slot)
            out = PredictionVector(out.fetch_pc, tuple(slots))
        meta = self._codec.pack(hit=int(hit), ctr=row.tolist())
        return out, meta

    def on_update(self, bundle: UpdateBundle) -> None:
        if not any(bundle.br_mask):
            return
        fields = self._codec.unpack(bundle.meta)
        index, tag = self._index_tag(bundle.fetch_pc, bundle.ghist)
        offset = bundle.fetch_pc % self.fetch_width
        was_hit = bool(fields["hit"])
        if was_hit:
            counters = fields["ctr"]
            row = self._ctrs[index]
            for slot_idx, is_branch in enumerate(bundle.br_mask):
                if is_branch:
                    lane = offset + slot_idx
                    row[lane] = saturating_update(
                        int(counters[lane]),
                        bundle.taken_mask[slot_idx],
                        self.counter_bits,
                    )
        elif bundle.mispredicted:
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

    def storage(self) -> StorageReport:
        counter_bits = self.n_sets * self.fetch_width * self.counter_bits
        tag_bits = self.n_sets * (self.tag_bits + 1)
        return StorageReport(
            self.name,
            sram_bits=counter_bits + tag_bits,
            breakdown={"counters": counter_bits, "tags": tag_bits},
            access_bits=self.fetch_width * self.counter_bits
            + self.tag_bits
            + 1,
        )


# ----------------------------------------------------------------------
# Twin registry
# ----------------------------------------------------------------------
def twin_dims(component: PredictorComponent):
    """Stimulus dimensions for a twin drive.

    :func:`repro.analysis.contracts.dims_for` widens dimensions from the
    spec but never narrows the fetch width below the harness default, so
    a narrow sizing (``fetch_width`` 1 or 2) would see packets wider
    than its counter rows.  The differential drive clamps the width to
    the component's own.
    """
    import dataclasses

    from repro.analysis.contracts import dims_for

    dims = dims_for(component)
    width = getattr(component, "fetch_width", None)
    if width is not None and width != dims.fetch_width:
        dims = dataclasses.replace(dims, fetch_width=width)
    return dims


def twin_pair(
    component: PredictorComponent,
) -> Optional[Tuple[PredictorComponent, PredictorComponent]]:
    """``(fresh_derived, fresh_reference)`` twins of a migrated component.

    Both twins are built from scratch with the live component's sizing
    parameters, so driving them never mutates the caller's instance.
    Returns None for components outside the migrated families (including
    subclasses, whose overrides the frozen references know nothing
    about).
    """
    from repro.components.bimodal import HBIM
    from repro.components.gtag import GTag
    from repro.components.twolevel import TwoLevel

    if type(component) is HBIM:
        kwargs = dict(
            name=component.name,
            latency=component.latency,
            n_sets=component.n_sets,
            fetch_width=component.fetch_width,
            index=component._scheme.scheme,
            history_bits=component._scheme.history_bits,
            counter_bits=component.counter_bits,
        )
        return HBIM(**kwargs), ReferenceHBIM(**kwargs)
    if type(component) is TwoLevel:
        kwargs = dict(
            name=component.name,
            latency=component.latency,
            variant=component.variant,
            fetch_width=component.fetch_width,
            history_bits=component.history_bits,
            l1_entries=component.l1_entries,
            l2_sets_per_table=component.l2_sets,
            l2_tables=component.l2_tables,
            counter_bits=component.counter_bits,
        )
        return TwoLevel(**kwargs), ReferenceTwoLevel(**kwargs)
    if type(component) is GTag:
        kwargs = dict(
            name=component.name,
            latency=component.latency,
            n_sets=component.n_sets,
            fetch_width=component.fetch_width,
            history_bits=component.history_bits,
            tag_bits=component.tag_bits,
            counter_bits=component.counter_bits,
        )
        return GTag(**kwargs), ReferenceGTag(**kwargs)
    return None
