"""Tests for the ITTAGE indirect-target predictor."""

import pytest

from repro.components.ittage import ITTAGE
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector


def lookup(it, pc=0, ghist=0, width=4):
    base = PredictionVector.fallthrough(pc, width)
    return it.lookup(PredictRequest(pc, width, ghist), [base])


def jalr_commit(it, pc, slot, target, meta, ghist=0, mispredicted=False, width=4):
    it.on_update(
        UpdateBundle(
            fetch_pc=pc, width=width, ghist=ghist, meta=meta,
            br_mask=(False,) * width, taken_mask=(False,) * width,
            cfi_idx=slot, cfi_taken=True, cfi_target=target,
            cfi_is_jalr=True, mispredicted=mispredicted,
            mispredict_idx=slot if mispredicted else None,
        )
    )


@pytest.fixture()
def it():
    return ITTAGE("ittage", n_tables=3, n_sets=64)


class TestITTAGE:
    def test_cold_passes_through(self, it):
        out, meta = lookup(it)
        assert not any(s.hit for s in out.slots)
        assert it._codec.unpack(meta)["provider_valid"] == 0

    def test_allocates_on_target_mispredict(self, it):
        _, meta = lookup(it, ghist=0b1010)
        jalr_commit(it, 0, 1, 40, meta, ghist=0b1010, mispredicted=True)
        out, meta2 = lookup(it, ghist=0b1010)
        assert it._codec.unpack(meta2)["provider_valid"] == 1
        assert out.slots[1].is_jump
        assert out.slots[1].target == 40

    def test_history_selects_target(self, it):
        """The switch use case: same jump site, different histories map to
        different targets."""
        for ghist, target in ((0b1111, 40), (0b0001, 80)):
            _, meta = lookup(it, ghist=ghist)
            jalr_commit(it, 0, 0, target, meta, ghist=ghist, mispredicted=True)
            for _ in range(2):
                _, meta = lookup(it, ghist=ghist)
                jalr_commit(it, 0, 0, target, meta, ghist=ghist)
        out_a, _ = lookup(it, ghist=0b1111)
        out_b, _ = lookup(it, ghist=0b0001)
        assert out_a.slots[0].target == 40
        assert out_b.slots[0].target == 80

    def test_confidence_replacement(self, it):
        ghist = 0b0110
        _, meta = lookup(it, ghist=ghist)
        jalr_commit(it, 0, 0, 40, meta, ghist=ghist, mispredicted=True)
        # Wrong target twice: confidence decays to 0 then the entry
        # retargets.
        for _ in range(2):
            _, meta = lookup(it, ghist=ghist)
            jalr_commit(it, 0, 0, 99, meta, ghist=ghist)
        # After retarget the entry needs to rebuild confidence (two
        # confirmations for the 2-bit counter) before predicting again.
        for _ in range(2):
            _, meta = lookup(it, ghist=ghist)
            jalr_commit(it, 0, 0, 99, meta, ghist=ghist)
        out, _ = lookup(it, ghist=ghist)
        assert out.slots[0].target == 99

    def test_non_jalr_updates_ignored(self, it):
        _, meta = lookup(it)
        it.on_update(
            UpdateBundle(
                fetch_pc=0, width=4, meta=meta,
                br_mask=(True, False, False, False),
                taken_mask=(True, False, False, False),
                cfi_idx=0, cfi_taken=True, cfi_target=40, cfi_is_br=True,
                mispredicted=True, mispredict_idx=0,
            )
        )
        _, meta2 = lookup(it)
        assert it._codec.unpack(meta2)["provider_valid"] == 0

    def test_provides_targets_flag(self, it):
        assert it.provides_targets

    def test_storage_and_reset(self, it):
        assert it.storage().sram_bits > 0
        assert it.storage().access_bits > 0


class TestITTAGEComposed:
    def test_reduces_indirect_mispredicts_end_to_end(self):
        from repro.components.library import standard_library
        from repro.core import ComposerConfig, compose
        from repro.eval import run_workload
        from repro.workloads import build_specint

        program = build_specint("perlbench", scale=0.25)
        base = compose(
            "TAGE3 > BTB2 > BIM2",
            standard_library(global_history_bits=64),
            ComposerConfig(global_history_bits=64),
        )
        with_it = compose(
            "ITTAGE3 > TAGE3 > BTB2 > BIM2",
            standard_library(global_history_bits=64),
            ComposerConfig(global_history_bits=64),
        )
        r_base = run_workload(base, program, system_name="base")
        r_it = run_workload(with_it, program, system_name="ittage")
        assert r_it.target_mispredicts < r_base.target_mispredicts
        assert r_it.ipc >= r_base.ipc
