"""Branch target buffers (§III-G2).

Two variants mirror the sub-component library: a large set-associative
2-cycle ``BTB`` and a small fully-associative 1-cycle ``MicroBTB`` (uBTB).
Set associativity leans on the metadata field: the hit way recorded at
predict time is recovered at update time so the ways need not be re-read
(§III-D).

A BTB learns branch *locations* and *targets*; the predicted direction of a
conditional branch passes through from ``predict_in`` (Fig. 3), so a BTB
composes with any direction predictor below it in the topology.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro._util import (
    counter_taken,
    hash_pc,
    id_bits,
    log2_exact,
    mask,
    saturating_update,
)
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec

#: Width of stored target addresses (word-addressed PCs).
TARGET_BITS = 30


class BTB(SpecComponent):
    """Set-associative branch target buffer indexed by fetch-packet PC.

    Each way stores one packet entry: a partial tag plus per-slot
    {valid, is_jump, target} records, so multiple branches within one fetch
    packet can be predicted in the same cycle (§III-C).
    """

    def __init__(
        self,
        name: str,
        latency: int = 2,
        n_sets: int = 512,
        n_ways: int = 4,
        fetch_width: int = 4,
        tag_bits: int = 12,
    ):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.fetch_width = fetch_width
        self.tag_bits = tag_bits
        self._index_bits = log2_exact(n_sets)
        super().__init__(name, latency, self._build_spec())
        self.provides_targets = True
        shape = (n_sets, n_ways)
        self._valid = np.zeros(shape, dtype=bool)
        self._tags = np.zeros(shape, dtype=np.int64)
        self._slot_valid = np.zeros(shape + (fetch_width,), dtype=bool)
        self._slot_jump = np.zeros(shape + (fetch_width,), dtype=bool)
        self._targets = np.zeros(shape + (fetch_width,), dtype=np.int64)
        self._replace_ptr = np.zeros(n_sets, dtype=np.int64)

    # ------------------------------------------------------------------
    def _index_tag(self, fetch_pc: int) -> Tuple[int, int]:
        packet = (fetch_pc - (fetch_pc % self.fetch_width)) // self.fetch_width
        index = hash_pc(packet, self._index_bits)
        tag = (packet >> self._index_bits) & mask(self.tag_bits)
        return index, tag

    def _find_way(self, index: int, tag: int) -> Optional[int]:
        for way in range(self.n_ways):
            if self._valid[index, way] and self._tags[index, way] == tag:
                return way
        return None

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        index, tag = self._index_tag(req.fetch_pc)
        way = self._find_way(index, tag)
        out = predict_in[0].copy()
        if way is None:
            # Tag miss: pass the incoming prediction through unmodified
            # (§III-F), recording the miss in metadata.
            return out, self._codec.pack(hit=0, way=0)
        offset = req.fetch_pc % self.fetch_width
        for slot_idx, slot in enumerate(out.slots):
            lane = offset + slot_idx
            if not self._slot_valid[index, way, lane]:
                continue
            slot.hit = True
            slot.target = int(self._targets[index, way, lane])
            if self._slot_jump[index, way, lane]:
                slot.is_jump = True
                slot.is_branch = False
                slot.taken = True
            else:
                slot.is_branch = True
                # Direction comes from predict_in where a direction
                # predictor below already spoke; a bare BTB hit defaults to
                # not-taken until some component predicts the direction.
        return out, self._codec.pack(hit=1, way=way)

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        """Allocate/refresh the entry for a committed taken CFI."""
        if bundle.cfi_idx is None or not bundle.cfi_taken:
            return
        if bundle.cfi_target is None:
            return
        index, tag = self._index_tag(bundle.fetch_pc)
        fields = self._codec.unpack(bundle.meta)
        if fields["hit"]:
            way = int(fields["way"])
            # The tag may have been evicted since predict time; only reuse
            # the metadata way when it still matches.
            if not (self._valid[index, way] and self._tags[index, way] == tag):
                way = self._find_way(index, tag)
        else:
            way = self._find_way(index, tag)
        if way is None:
            way = int(self._replace_ptr[index])
            self._replace_ptr[index] = (way + 1) % self.n_ways
            self._valid[index, way] = True
            self._tags[index, way] = tag
            self._slot_valid[index, way, :] = False
        lane = (bundle.fetch_pc % self.fetch_width) + bundle.cfi_idx
        self._slot_valid[index, way, lane] = True
        self._slot_jump[index, way, lane] = bundle.cfi_is_jal or bundle.cfi_is_jalr
        self._targets[index, way, lane] = bundle.cfi_target & mask(TARGET_BITS)

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        from repro.kernels.components import BTBKernel

        return BTBKernel(self)

    def _build_spec(self) -> ComponentSpec:
        way_bits = id_bits(self.n_ways)
        index = IndexFn(
            "pc", self._index_bits, key="packet", fetch_width=self.fetch_width
        )

        def probe(c, pc, g, l, p):
            return c._index_tag(pc)[0]

        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "tags",
                    entries=self.n_sets,
                    ways=self.n_ways,
                    fields=(
                        FieldSpec("valid", 1),
                        FieldSpec("tag", self.tag_bits),
                    ),
                    update="allocate-on-miss",
                    index=index,
                    probe=probe,
                ),
                TableSpec(
                    "targets",
                    entries=self.n_sets,
                    ways=self.n_ways,
                    fields=(
                        FieldSpec("slot_valid", 1, self.fetch_width),
                        FieldSpec("slot_jump", 1, self.fetch_width),
                        FieldSpec("target", TARGET_BITS, self.fetch_width),
                    ),
                    update="allocate-on-miss",
                    index=index,
                    probe=probe,
                ),
                TableSpec(
                    "replacement",
                    entries=self.n_sets,
                    fields=(FieldSpec("ptr", way_bits),),
                    # Round-robin pointers: register state, not read at
                    # predict time.
                    kind="flop",
                    update="exact-event",
                    index=index,
                    probe=probe,
                ),
            ),
            meta_fields=(FieldSpec("hit", 1), FieldSpec("way", way_bits)),
        )


class MicroBTB(SpecComponent):
    """Small fully-associative single-cycle BTB (uBTB).

    Provides a next-cycle redirect for taken branches and jumps before the
    large BTB and backing predictors respond.  Each entry tracks one CFI per
    packet with a 2-bit direction counter.  Latency 1 means it may use only
    the fetch PC (§III-B).
    """

    def __init__(
        self,
        name: str,
        latency: int = 1,
        n_entries: int = 32,
        fetch_width: int = 4,
        tag_bits: int = 20,
        counter_bits: int = 2,
    ):
        self.n_entries = n_entries
        self.fetch_width = fetch_width
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        super().__init__(name, latency, self._build_spec())
        self.provides_targets = True
        self._valid = np.zeros(n_entries, dtype=bool)
        self._tags = np.zeros(n_entries, dtype=np.int64)
        self._cfi_idx = np.zeros(n_entries, dtype=np.int64)
        self._is_jump = np.zeros(n_entries, dtype=bool)
        self._targets = np.zeros(n_entries, dtype=np.int64)
        self._ctrs = np.zeros(n_entries, dtype=np.int64)
        self._alloc_ptr = 0

    # ------------------------------------------------------------------
    def _tag(self, fetch_pc: int) -> int:
        packet = (fetch_pc - (fetch_pc % self.fetch_width)) // self.fetch_width
        return packet & mask(self.tag_bits)

    def _find(self, tag: int) -> Optional[int]:
        for entry in range(self.n_entries):
            if self._valid[entry] and self._tags[entry] == tag:
                return entry
        return None

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        tag = self._tag(req.fetch_pc)
        entry = self._find(tag)
        out = predict_in[0].copy()
        if entry is None:
            return out, self._codec.pack(hit=0, entry=0, ctr=0)
        offset = req.fetch_pc % self.fetch_width
        slot_idx = int(self._cfi_idx[entry]) - offset
        counter = int(self._ctrs[entry])
        if 0 <= slot_idx < len(out.slots):
            slot = out.slots[slot_idx]
            slot.hit = True
            slot.target = int(self._targets[entry])
            if self._is_jump[entry]:
                slot.is_jump = True
                slot.taken = True
            else:
                slot.is_branch = True
                slot.taken = counter_taken(counter, self.counter_bits)
        return out, self._codec.pack(hit=1, entry=entry, ctr=counter)

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        fields = self._codec.unpack(bundle.meta)
        tag = self._tag(bundle.fetch_pc)
        lane = None
        if bundle.cfi_idx is not None:
            lane = (bundle.fetch_pc % self.fetch_width) + bundle.cfi_idx

        if fields["hit"]:
            entry = int(fields["entry"])
            if self._valid[entry] and self._tags[entry] == tag:
                stored_lane = int(self._cfi_idx[entry])
                if lane == stored_lane and not self._is_jump[entry]:
                    taken = bundle.cfi_taken
                    self._ctrs[entry] = saturating_update(
                        int(fields["ctr"]), taken, self.counter_bits
                    )
                elif lane is None and not self._is_jump[entry]:
                    # The tracked branch fell through this time.
                    span_start = bundle.fetch_pc % self.fetch_width
                    if span_start <= stored_lane < span_start + bundle.width:
                        self._ctrs[entry] = saturating_update(
                            int(fields["ctr"]), False, self.counter_bits
                        )
                return

        # Allocate only for taken CFIs with a known target: the uBTB exists
        # to provide next-cycle redirects.
        if bundle.cfi_idx is None or not bundle.cfi_taken or bundle.cfi_target is None:
            return
        entry = self._alloc_ptr
        self._alloc_ptr = (self._alloc_ptr + 1) % self.n_entries
        self._valid[entry] = True
        self._tags[entry] = tag
        self._cfi_idx[entry] = lane
        self._is_jump[entry] = bundle.cfi_is_jal or bundle.cfi_is_jalr
        self._targets[entry] = bundle.cfi_target
        top = mask(self.counter_bits)
        self._ctrs[entry] = top  # start strongly taken; it was just taken

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        from repro.kernels.components import MicroBTBKernel

        return MicroBTBKernel(self)

    def _build_spec(self) -> ComponentSpec:
        ctr = FieldSpec("ctr", self.counter_bits)
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "entries",
                    entries=self.n_entries,
                    fields=(
                        FieldSpec("valid", 1),
                        FieldSpec("tag", self.tag_bits),
                        FieldSpec("cfi_idx", id_bits(self.fetch_width)),
                        FieldSpec("jump", 1),
                        FieldSpec("target", TARGET_BITS),
                        ctr,
                    ),
                    # A 1-cycle structure lives in flops, not SRAM.
                    kind="flop",
                    update="allocate-on-miss",
                    # Fully associative: a CAM match, not an index hash.
                    index=IndexFn("none", 0, fetch_width=self.fetch_width),
                ),
            ),
            meta_fields=(
                FieldSpec("hit", 1),
                FieldSpec("entry", id_bits(self.n_entries)),
                ctr,
            ),
        )
