"""A hand-kept, spec-less bimodal table: a migrated family before the
spec-derived runtime.

:class:`HandKeptBimodal` holds its counters in a plain numpy array,
declares no :class:`~repro.spec.ComponentSpec` and advertises no kernel.
Registered as ``BIM`` it is the regression the derivation-coverage gate
(:mod:`repro.derive.coverage`) must flag; it is never part of the
shipped library.
"""

import numpy as np

from repro._util import counter_taken, hash_pc, saturating_update
from repro.core.interface import PredictorComponent, StorageReport
from repro.core.prediction import PredictionVector

INDEX_BITS = 10


class HandKeptBimodal(PredictorComponent):
    """One 2-bit counter per hashed fetch PC, shared by every slot.

    Its metadata is the predict-time counter as a bare int, which is its
    own bit image (the default ``meta_image``).
    """

    def __init__(self, name, latency):
        super().__init__(name, latency, meta_bits=2)
        self._counters = np.ones(1 << INDEX_BITS, dtype=np.uint8)

    def lookup(self, req, predict_in):
        counter = int(self._counters[hash_pc(req.fetch_pc, INDEX_BITS)])
        taken = counter_taken(counter, 2)
        slots = tuple(
            slot if slot.is_jump else slot.with_direction(taken)
            for slot in predict_in[0].slots
        )
        return PredictionVector(predict_in[0].fetch_pc, slots), counter

    def on_update(self, bundle):
        if bundle.cfi_is_br:
            row = hash_pc(bundle.fetch_pc, INDEX_BITS)
            self._counters[row] = saturating_update(
                bundle.meta, bundle.cfi_taken, 2
            )

    def storage(self):
        bits = 2 << INDEX_BITS
        return StorageReport(self.name, sram_bits=bits, breakdown={"counters": bits})
