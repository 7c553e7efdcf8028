"""Tests for prediction datatypes (packet spans, next-PC semantics)."""

import pytest

from repro.core.prediction import (
    PredictionVector,
    SlotPrediction,
    StagedPrediction,
    packet_span,
)


class TestPacketSpan:
    def test_aligned_full_width(self):
        assert packet_span(0, 4) == 4
        assert packet_span(8, 4) == 4

    def test_mid_packet_entry(self):
        assert packet_span(9, 4) == 3
        assert packet_span(11, 4) == 1

    def test_width_one(self):
        assert packet_span(5, 1) == 1


class TestSlotPrediction:
    def test_defaults(self):
        slot = SlotPrediction()
        assert not slot.hit and not slot.redirects
        assert slot.target is None

    def test_redirects(self):
        assert SlotPrediction(is_jump=True).redirects
        assert SlotPrediction(is_branch=True, taken=True).redirects
        assert not SlotPrediction(is_branch=True, taken=False).redirects
        assert not SlotPrediction(taken=True).redirects  # not known as CFI

    def test_copy_is_independent(self):
        slot = SlotPrediction(hit=True, is_branch=True, taken=True, target=5)
        clone = slot.copy()
        clone.taken = False
        assert slot.taken
        assert clone == SlotPrediction(hit=True, is_branch=True, taken=False, target=5)

    def test_equality(self):
        a = SlotPrediction(hit=True, taken=True)
        assert a == SlotPrediction(hit=True, taken=True)
        assert a != SlotPrediction(hit=False, taken=True)
        assert a != "not a slot"


class TestPredictionVector:
    def test_fallthrough_next_pc_aligned(self):
        vec = PredictionVector.fallthrough(0, 4)
        assert vec.cfi_index() is None
        assert vec.next_fetch_pc(4) == 4

    def test_fallthrough_mid_packet(self):
        vec = PredictionVector.fallthrough(6, 2)
        assert vec.next_fetch_pc(4) == 8

    def test_taken_with_target_redirects(self):
        vec = PredictionVector.fallthrough(0, 4)
        vec.slots[1].is_branch = True
        vec.slots[1].taken = True
        vec.slots[1].target = 42
        assert vec.cfi_index() == 1
        assert vec.next_fetch_pc(4) == 42

    def test_taken_without_target_falls_through(self):
        vec = PredictionVector.fallthrough(0, 4)
        vec.slots[2].is_jump = True  # e.g. JALR with no BTB hit
        assert vec.cfi_index() == 2
        assert vec.next_fetch_pc(4) == 4

    def test_first_redirecting_slot_wins(self):
        vec = PredictionVector.fallthrough(0, 4)
        vec.slots[0].is_jump = True
        vec.slots[0].target = 10
        vec.slots[3].is_jump = True
        vec.slots[3].target = 20
        assert vec.next_fetch_pc(4) == 10

    def test_taken_mask(self):
        vec = PredictionVector.fallthrough(0, 3)
        vec.slots[0].is_branch = True
        vec.slots[0].taken = True
        vec.slots[1].is_jump = True  # jumps are not in the branch mask
        vec.slots[1].taken = True
        assert vec.taken_mask() == (True, False, False)

    def test_copy_deep(self):
        vec = PredictionVector.fallthrough(0, 2)
        clone = vec.copy()
        clone.slots[0].taken = True
        assert not vec.slots[0].taken

    @pytest.mark.parametrize("copier", ["slot", "vector"])
    def test_copies_carry_every_slot_attribute(self, copier):
        # Both clones set SlotPrediction's attributes one by one; a slot
        # added to the class and missed by a copy must fail here.
        names = SlotPrediction.__slots__
        slot = SlotPrediction()
        for i, name in enumerate(names):
            setattr(slot, name, f"value-{i}")
        if copier == "slot":
            clone = slot.copy()
        else:
            clone = PredictionVector(0, [slot]).copy().slots[0]
        assert clone is not slot
        for name in names:
            assert getattr(clone, name) == getattr(slot, name)


class TestStagedPrediction:
    def test_stage_indexing(self):
        vectors = [PredictionVector.fallthrough(0, 4) for _ in range(3)]
        staged = StagedPrediction(vectors, {})
        assert staged.depth == 3
        assert staged.stage(1) is vectors[0]
        assert staged.final is vectors[2]

    def test_stage_bounds(self):
        staged = StagedPrediction([PredictionVector.fallthrough(0, 4)], {})
        with pytest.raises(IndexError):
            staged.stage(0)
        with pytest.raises(IndexError):
            staged.stage(2)
