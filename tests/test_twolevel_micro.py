"""Tests for the Yeh-Patt two-level predictors and the micro-workloads."""

import pytest

from repro.components.twolevel import TwoLevel, VARIANTS
from repro.core import compose
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import InterfaceError
from repro.core.prediction import PredictionVector, SlotPrediction
from repro.eval import run_workload
from repro.isa import Interpreter, Opcode
from repro.workloads.micro import MICRO_NAMES, build_all_micro, build_micro


def branch_base(pc=0, width=4):
    base = PredictionVector.fallthrough(pc, width)
    return base.with_slot(0, SlotPrediction(hit=True, is_branch=True))


def step(two_level, taken, pc=0, ghist=0, train=True):
    """One predict/fire/commit round for the branch at slot 0."""
    out, meta = two_level.lookup(PredictRequest(pc, 4, ghist), [branch_base(pc)])
    predicted = out.slots[0].taken
    bundle = UpdateBundle(
        fetch_pc=pc, width=4, ghist=ghist, meta=meta,
        br_mask=(True, False, False, False),
        taken_mask=(taken, False, False, False),
        mispredicted=predicted != taken,
        mispredict_idx=0 if predicted != taken else None,
    )
    two_level.fire(bundle)
    if train:
        two_level.on_update(bundle)
    return predicted, meta


class TestTwoLevel:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_learns_periodic_pattern(self, variant):
        two_level = TwoLevel("tl", variant=variant, history_bits=8,
                             l2_sets_per_table=256, l2_tables=4)
        pattern = [True, True, False, False]
        ghist = 0
        wrong_late = 0
        for i in range(600):
            taken = pattern[i % 4]
            predicted, _ = step(two_level, taken, ghist=ghist)
            if i >= 300 and predicted != taken:
                wrong_late += 1
            ghist = ((ghist << 1) | int(taken)) & 0xFF
        assert wrong_late <= 4

    def test_pag_repair_restores_history(self):
        two_level = TwoLevel("tl", variant="PAg", history_bits=8,
                             l2_sets_per_table=256)
        # Fire speculatively, then repair: level-1 history must return to
        # the predict-time value from metadata.
        out, meta = two_level.lookup(PredictRequest(0, 4, 0), [branch_base()])
        index = two_level._l1_index(0)
        before = int(two_level._l1[index])
        bundle = UpdateBundle(
            fetch_pc=0, width=4, meta=meta,
            br_mask=(True, False, False, False),
            taken_mask=(True, False, False, False),
        )
        two_level.fire(bundle)
        assert int(two_level._l1[index]) != before or before == 1  # shifted
        two_level.on_repair(bundle)
        assert int(two_level._l1[index]) == before

    def test_gag_ignores_fire(self):
        two_level = TwoLevel("tl", variant="GAg", history_bits=8,
                             l2_sets_per_table=256)
        out, meta = two_level.lookup(PredictRequest(0, 4, 0b1010), [branch_base()])
        bundle = UpdateBundle(
            fetch_pc=0, width=4, ghist=0b1010, meta=meta,
            br_mask=(True, False, False, False),
            taken_mask=(True, False, False, False),
        )
        two_level.fire(bundle)  # must not touch anything
        assert (two_level._l1 == 0).all()

    def test_invalid_variant_rejected(self):
        with pytest.raises(InterfaceError):
            TwoLevel("tl", variant="XAx")

    def test_history_longer_than_table_rejected(self):
        with pytest.raises(InterfaceError):
            TwoLevel("tl", history_bits=12, l2_sets_per_table=256)

    def test_storage_by_variant(self):
        gag = TwoLevel("a", variant="GAg").storage()
        pap = TwoLevel("b", variant="PAp").storage()
        assert gag.breakdown["l1_histories"] == 0
        assert pap.breakdown["l1_histories"] > 0
        assert pap.total_bits > gag.total_bits

    def test_composes_and_runs(self):
        program = build_micro("pattern_short", scale=0.3)
        result = run_workload(
            compose("PAG3 > BTB2 > BIM2"), program, system_name="pag"
        )
        assert result.branch_accuracy > 0.85


class TestMicroWorkloads:
    @pytest.mark.parametrize("name", MICRO_NAMES)
    def test_every_micro_builds_and_halts(self, name):
        program = build_micro(name, scale=0.2)
        trace = list(Interpreter(program).run(500_000))
        assert trace[-1].instr.op is Opcode.HALT

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_micro("quantum")

    def test_build_all(self):
        programs = build_all_micro(scale=0.1)
        assert set(programs) == set(MICRO_NAMES)

    def test_random_micro_is_actually_hard(self):
        program = build_micro("random", scale=0.4)
        result = run_workload("tage_l", program)
        assert result.branch_accuracy < 0.9  # ~50% branches are coin flips

    def test_pattern_micro_is_learnable(self):
        program = build_micro("pattern_short", scale=0.4)
        result = run_workload("tage_l", program)
        assert result.branch_accuracy > 0.93
