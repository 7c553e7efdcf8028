"""Tests for the HBIM bimodal counter table."""

import pytest

from repro.components.bimodal import HBIM
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import InterfaceError
from repro.core.prediction import PredictionVector, SlotPrediction


def lookup(bim, pc=0, ghist=0, lhist=0, width=4):
    req = PredictRequest(pc, width, ghist, lhist)
    base = PredictionVector.fallthrough(pc, width)
    return bim.lookup(req, [base])


def update(bim, pc, br_mask, taken_mask, meta, ghist=0, lhist=0):
    bim.on_update(
        UpdateBundle(
            fetch_pc=pc,
            width=len(br_mask),
            ghist=ghist,
            lhist=lhist,
            meta=meta,
            br_mask=tuple(br_mask),
            taken_mask=tuple(taken_mask),
        )
    )


class TestPrediction:
    def test_initial_weakly_not_taken(self):
        bim = HBIM("bim", n_sets=64)
        out, _ = lookup(bim)
        assert all(slot.hit for slot in out.slots)
        assert not any(slot.taken for slot in out.slots)

    def test_passes_through_targets(self):
        bim = HBIM("bim", n_sets=64)
        base = PredictionVector.fallthrough(0, 4)
        base = base.with_slot(2, SlotPrediction(is_branch=True, target=99))
        out, _ = bim.lookup(PredictRequest(0, 4), [base])
        assert out.slots[2].target == 99
        assert out.slots[2].is_branch

    def test_does_not_touch_jump_direction(self):
        bim = HBIM("bim", n_sets=64)
        base = PredictionVector.fallthrough(0, 4)
        base = base.with_slot(1, SlotPrediction(is_jump=True, taken=True))
        out, _ = bim.lookup(PredictRequest(0, 4), [base])
        assert out.slots[1].taken


class TestLearning:
    def test_learns_taken_after_two_updates(self):
        bim = HBIM("bim", n_sets=64)
        for _ in range(2):
            _, meta = lookup(bim)
            update(bim, 0, [True, False, False, False], [True, False, False, False], meta)
        out, _ = lookup(bim)
        assert out.slots[0].taken
        assert not out.slots[1].taken  # other lanes untouched

    def test_superscalar_lanes_independent(self):
        """Two branches in one packet learn opposite directions (§III-C)."""
        bim = HBIM("bim", n_sets=64)
        for _ in range(3):
            _, meta = lookup(bim)
            update(bim, 0, [True, True, False, False], [True, False, False, False], meta)
        out, _ = lookup(bim)
        assert out.slots[0].taken
        assert not out.slots[1].taken

    def test_mid_packet_lane_alignment(self):
        """A packet entered mid-way updates the correct lanes."""
        bim = HBIM("bim", n_sets=64)
        # pc 2 in a 4-wide packet: slots map to lanes 2,3.
        for _ in range(2):
            _, meta = lookup(bim, pc=2, width=2)
            update(bim, 2, [True, False], [True, False], meta)
        out, _ = lookup(bim, pc=2, width=2)
        assert out.slots[0].taken
        # Aligned lookup sees the learned counter in lane 2.
        out_full, _ = lookup(bim, pc=0)
        assert out_full.slots[2].taken

    def test_update_uses_metadata_not_table(self):
        """Update trains from predict-time counters (§III-D): a stale meta
        writes the stale-based value back."""
        bim = HBIM("bim", n_sets=64)
        _, meta_old = lookup(bim)  # counters all weak-NT (1)
        # Another context trains the counter up to 3 meanwhile.
        for _ in range(2):
            _, m = lookup(bim)
            update(bim, 0, [True] + [False] * 3, [True] + [False] * 3, m)
        # Now apply the stale meta: 1 -> 2, overwriting the 3.
        update(bim, 0, [True] + [False] * 3, [True] + [False] * 3, meta_old)
        assert bim.counter_at(bim._index(0, 0, 0), 0) == 2

    def test_no_branches_no_write(self):
        bim = HBIM("bim", n_sets=64)
        _, meta = lookup(bim)
        before = bim._table.copy()
        update(bim, 0, [False] * 4, [False] * 4, meta)
        assert (bim._table == before).all()


class TestIndexing:
    def test_ghist_indexed_rows_differ(self):
        bim = HBIM("gbim", n_sets=64, index="ghist", history_bits=16)
        assert bim.uses_global_history
        _, meta = lookup(bim, ghist=0b101010)
        update(bim, 0, [True] + [False] * 3, [True] + [False] * 3, meta, ghist=0b101010)
        _, meta = lookup(bim, ghist=0b101010)
        update(bim, 0, [True] + [False] * 3, [True] + [False] * 3, meta, ghist=0b101010)
        taken_same, _ = lookup(bim, ghist=0b101010)
        taken_diff, _ = lookup(bim, ghist=0b010101)
        assert taken_same.slots[0].taken
        assert not taken_diff.slots[0].taken

    def test_latency1_with_history_rejected(self):
        with pytest.raises(InterfaceError):
            HBIM("bad", latency=1, n_sets=64, index="ghist", history_bits=8)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            HBIM("bad", n_sets=100)


class TestStorageAndReset:
    def test_storage_bits(self):
        bim = HBIM("bim", n_sets=1024, fetch_width=4, counter_bits=2)
        assert bim.storage().sram_bits == 1024 * 4 * 2

    def test_meta_bits_cover_row(self):
        bim = HBIM("bim", n_sets=64, fetch_width=4, counter_bits=2)
        assert bim.meta_bits == 8
