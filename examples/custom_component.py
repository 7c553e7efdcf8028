"""Implementing a new sub-component against the COBRA interface (§III).

The framework's point is that a predictor sub-component written once against
the interface composes with everything else.  This example implements a
component that is *not* in the starter library — a YAGS-style "agree"
filter [Eden & Mudge 1998]: a small tagged table that records only branches
that DISAGREE with the backing predictor's bias — registers it under the
base name ``AGREE``, and drops it into a topology.

Run:  python examples/custom_component.py
"""

from typing import Sequence, Tuple

import numpy as np

from repro._util import (
    counter_taken,
    fold_history,
    hash_pc,
    log2_exact,
    mask,
    saturating_update,
)
from repro.components.base import MetaCodec
from repro.components.library import standard_library
from repro.core import ComposerConfig, compose
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import PredictorComponent, StorageReport
from repro.core.prediction import PredictionVector
from repro.eval import run_workload
from repro.workloads import build_specint


class AgreeFilter(PredictorComponent):
    """A tagged exception cache over the incoming prediction.

    On a tag hit, the stored counter *replaces* the incoming direction; the
    table only allocates when the incoming prediction mispredicts, so it
    holds exactly the "exceptions" the backing predictor gets wrong.  The
    metadata stores the hit flag, the predict-time counter, the lane and
    the incoming direction (to train allocation), exactly in the spirit of
    §III-D.  It is a plain ``(hit, ctr, lane, inc)`` tuple: the framework
    hands it back untouched in every event, and the codec renders its bits
    only for ``meta_image`` (what ``repro check`` holds to ``meta_bits``).
    """

    def __init__(self, name: str, latency: int = 3, n_sets: int = 256,
                 fetch_width: int = 4, history_bits: int = 12, tag_bits: int = 8):
        self._codec = MetaCodec([("hit", 1), ("ctr", 2), ("lane", 2), ("inc", 1)])
        super().__init__(
            name, latency, meta_bits=self._codec.width, uses_global_history=True
        )
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.tag_bits = tag_bits
        self._index_bits = log2_exact(n_sets)
        self._valid = np.zeros(n_sets, dtype=bool)
        self._tags = np.zeros(n_sets, dtype=np.int64)
        self._ctrs = np.ones(n_sets, dtype=np.int64)

    def _index_tag(self, branch_pc: int, ghist: int) -> Tuple[int, int]:
        folded = fold_history(ghist, self.history_bits, self._index_bits)
        index = hash_pc(branch_pc, self._index_bits) ^ folded
        tag = (branch_pc >> 2) & mask(self.tag_bits)
        return index, tag

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, tuple]:
        out = predict_in[0]
        for lane, slot in enumerate(out.slots):
            if not (slot.hit and slot.is_branch):
                continue
            index, tag = self._index_tag(req.fetch_pc + lane, req.ghist)
            if self._valid[index] and int(self._tags[index]) == tag:
                ctr = int(self._ctrs[index])
                taken = counter_taken(ctr, 2)
                out = out.with_slot(lane, slot.with_direction(taken))
                return out, (1, ctr, lane, slot.taken)
            return out, (0, 0, lane, slot.taken)
        return out, (0, 0, 0, 0)

    def meta_image(self, meta) -> int:
        return self._codec.image(meta)

    def on_update(self, bundle: UpdateBundle) -> None:
        hit, ctr, lane, _ = bundle.meta
        if lane >= len(bundle.br_mask) or not bundle.br_mask[lane]:
            return
        taken = bundle.taken_mask[lane]
        index, tag = self._index_tag(bundle.fetch_pc + lane, bundle.ghist)
        if hit and self._valid[index] and int(self._tags[index]) == tag:
            self._ctrs[index] = saturating_update(ctr, taken, 2)
        elif bundle.mispredicted and bundle.mispredict_idx == lane:
            # Allocate an exception entry for a branch the rest of the
            # pipeline just got wrong.
            self._valid[index] = True
            self._tags[index] = tag
            self._ctrs[index] = 2 if taken else 1

    def storage(self) -> StorageReport:
        bits = self.n_sets * (1 + self.tag_bits + 2)
        return StorageReport(self.name, sram_bits=bits, breakdown={"entries": bits})


def main() -> None:
    program = build_specint("gcc", scale=0.5)
    library = standard_library(global_history_bits=32).with_params(
        "AGREE", lambda name, latency: AgreeFilter(name, latency)
    )
    # Classic YAGS framing: the exception cache sits over a *bias* predictor
    # (the PC-indexed bimodal) and holds only the history-dependent
    # branches that bias gets wrong.
    baseline = compose("BTB2 > BIM2", standard_library(global_history_bits=32),
                       ComposerConfig(global_history_bits=32))
    filtered = compose("AGREE3 > BTB2 > BIM2", library,
                       ComposerConfig(global_history_bits=32))

    base = run_workload(baseline, program, system_name="bimodal")
    agree = run_workload(filtered, program, system_name="agree>bimodal")
    print(base.row())
    print(agree.row())
    improvement = base.mpki - agree.mpki
    print(f"\nexception filter removed {improvement:.1f} MPKI "
          f"({base.branch_mispredicts - agree.branch_mispredicts} mispredicts)")


if __name__ == "__main__":
    main()
