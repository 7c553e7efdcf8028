"""Tests for prediction datatypes (packet spans, next-PC semantics,
immutability)."""

import pytest

from repro.core.prediction import (
    EMPTY_SLOT,
    PredictionVector,
    SlotPrediction,
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
        assert slot == EMPTY_SLOT

    def test_redirects(self):
        assert SlotPrediction(is_jump=True).redirects
        assert SlotPrediction(is_branch=True, taken=True).redirects
        assert not SlotPrediction(is_branch=True, taken=False).redirects
        assert not SlotPrediction(taken=True).redirects  # not known as CFI

    def test_copy_is_independent(self):
        # A changed slot is a new value; the original is untouched.
        slot = SlotPrediction(hit=True, is_branch=True, taken=True, target=5)
        clone = slot._replace(taken=False)
        assert slot.taken
        assert clone == SlotPrediction(hit=True, is_branch=True, taken=False, target=5)

    def test_with_direction_passes_kind_and_target_through(self):
        slot = SlotPrediction(is_branch=True, target=7)
        assert slot.with_direction(True) == SlotPrediction(
            hit=True, is_branch=True, taken=True, target=7
        )
        assert slot == SlotPrediction(is_branch=True, target=7)

    def test_equality(self):
        a = SlotPrediction(hit=True, taken=True)
        assert a == SlotPrediction(hit=True, taken=True)
        assert a != SlotPrediction(hit=False, taken=True)
        assert a != "not a slot"


def _slot_writes():
    for name in SlotPrediction._fields:
        yield f"slot.{name} = ...", lambda v, n=name: setattr(v.slots[0], n, True)
        yield f"del slot.{name}", lambda v, n=name: delattr(v.slots[0], n)
    yield "slot.extra = ...", lambda v: setattr(v.slots[0], "extra", 1)
    yield "slot[0] = ...", lambda v: v.slots[0].__setitem__(0, True)


def _vector_writes():
    for name in PredictionVector._fields:
        yield f"vector.{name} = ...", lambda v, n=name: setattr(v, n, None)
    yield "vector[1] = ...", lambda v: v.__setitem__(1, ())
    yield "vector.slots[0] = ...", lambda v: v.slots.__setitem__(0, EMPTY_SLOT)
    yield "del vector.slots[0]", lambda v: v.slots.__delitem__(0)
    yield "vector.slots.append(...)", lambda v: v.slots.append(EMPTY_SLOT)
    yield "vector.slots += ...", lambda v: v.slots.__iadd__((EMPTY_SLOT,))


WRITES = dict([*_slot_writes(), *_vector_writes()])


class TestImmutability:
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_every_in_place_write_raises(self, write):
        vector = PredictionVector(0, (SlotPrediction(hit=True, target=3),) * 2)
        before = PredictionVector(0, (SlotPrediction(hit=True, target=3),) * 2)
        with pytest.raises((AttributeError, TypeError)):
            WRITES[write](vector)
        assert vector == before


class TestPredictionVector:
    def test_fallthrough_next_pc_aligned(self):
        vec = PredictionVector.fallthrough(0, 4)
        assert vec.cfi_index() is None
        assert vec.next_fetch_pc(4) == 4

    def test_fallthrough_mid_packet(self):
        vec = PredictionVector.fallthrough(6, 2)
        assert vec.next_fetch_pc(4) == 8

    def test_taken_with_target_redirects(self):
        vec = PredictionVector.fallthrough(0, 4).with_slot(
            1, SlotPrediction(is_branch=True, taken=True, target=42)
        )
        assert vec.cfi_index() == 1
        assert vec.next_fetch_pc(4) == 42

    def test_taken_without_target_falls_through(self):
        # e.g. JALR with no BTB hit
        vec = PredictionVector.fallthrough(0, 4).with_slot(
            2, SlotPrediction(is_jump=True)
        )
        assert vec.cfi_index() == 2
        assert vec.next_fetch_pc(4) == 4

    def test_first_redirecting_slot_wins(self):
        vec = PredictionVector(
            0,
            (
                SlotPrediction(is_jump=True, target=10),
                EMPTY_SLOT,
                EMPTY_SLOT,
                SlotPrediction(is_jump=True, target=20),
            ),
        )
        assert vec.next_fetch_pc(4) == 10

    def test_taken_mask(self):
        vec = PredictionVector(
            0,
            (
                SlotPrediction(is_branch=True, taken=True),
                # jumps are not in the branch mask
                SlotPrediction(is_jump=True, taken=True),
                EMPTY_SLOT,
            ),
        )
        assert vec.taken_mask() == (True, False, False)

    def test_copy_deep(self):
        # Replacing a slot leaves the original vector as it was and
        # passes the other slots on as the same objects.
        vec = PredictionVector.fallthrough(0, 2)
        clone = vec.with_slot(0, SlotPrediction(taken=True))
        assert not vec.slots[0].taken
        assert clone.slots[0].taken
        assert clone.slots[1] is vec.slots[1]
