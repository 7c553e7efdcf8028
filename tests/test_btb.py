"""Tests for the BTB and micro-BTB."""

from repro.components.btb import BTB, MicroBTB
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector, SlotPrediction


def lookup(btb, pc=0, width=4):
    base = PredictionVector.fallthrough(pc, width)
    return btb.lookup(PredictRequest(pc, width), [base])


def taken_update(btb, pc, cfi_idx, target, meta, is_jump=False, width=4):
    btb.on_update(
        UpdateBundle(
            fetch_pc=pc,
            width=width,
            meta=meta,
            br_mask=tuple(
                i == cfi_idx and not is_jump for i in range(width)
            ),
            taken_mask=tuple(i == cfi_idx and not is_jump for i in range(width)),
            cfi_idx=cfi_idx,
            cfi_taken=True,
            cfi_target=target,
            cfi_is_br=not is_jump,
            cfi_is_jal=is_jump,
        )
    )


class TestBTB:
    def test_miss_passes_through(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        out, meta = lookup(btb)
        assert not any(s.hit for s in out.slots)
        assert btb._codec.unpack(meta)["hit"] == 0

    def test_learns_taken_branch_target(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 1, 77, meta)
        out, meta2 = lookup(btb, 0)
        assert out.slots[1].is_branch
        assert out.slots[1].target == 77
        assert btb._codec.unpack(meta2)["hit"] == 1

    def test_btb_branch_direction_defaults_not_taken(self):
        """A bare BTB hit provides target, not direction (Fig. 3)."""
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 0, 50, meta)
        out, _ = lookup(btb, 0)
        assert out.slots[0].is_branch and not out.slots[0].taken

    def test_direction_from_predict_in_preserved(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 0, 50, meta)
        base = PredictionVector.fallthrough(0, 4)
        base = base.with_slot(0, SlotPrediction(hit=True, taken=True))
        out, _ = btb.lookup(PredictRequest(0, 4), [base])
        assert out.slots[0].taken and out.slots[0].target == 50

    def test_jump_slots_predict_taken(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 2, 99, meta, is_jump=True)
        out, _ = lookup(btb, 0)
        assert out.slots[2].is_jump and out.slots[2].taken
        assert out.slots[2].target == 99

    def test_multiple_cfis_per_packet(self):
        """Superscalar entries hold several slots of the same packet."""
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 0, 40, meta)
        _, meta = lookup(btb, 0)
        taken_update(btb, 0, 3, 80, meta)
        out, _ = lookup(btb, 0)
        assert out.slots[0].target == 40
        assert out.slots[3].target == 80

    def test_way_replacement_round_robin(self):
        btb = BTB("btb", n_sets=1, n_ways=2)
        # Three distinct packet tags into a single set of two ways.
        for base_pc, target in ((0, 10), (64, 20), (128, 30)):
            _, meta = lookup(btb, base_pc)
            taken_update(btb, base_pc, 0, target, meta)
        hits = []
        for base_pc in (0, 64, 128):
            out, _ = lookup(btb, base_pc)
            hits.append(out.slots[0].hit)
        assert hits.count(True) == 2  # oldest got evicted

    def test_not_taken_packet_does_not_allocate(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        _, meta = lookup(btb, 0)
        btb.on_update(
            UpdateBundle(
                fetch_pc=0, width=4, meta=meta,
                br_mask=(True, False, False, False),
                taken_mask=(False, False, False, False),
                cfi_idx=None, cfi_taken=False, cfi_target=None,
            )
        )
        out, _ = lookup(btb, 0)
        assert not any(s.hit for s in out.slots)

    def test_storage_counts_targets(self):
        btb = BTB("btb", n_sets=16, n_ways=2)
        report = btb.storage()
        assert report.breakdown["targets"] > report.breakdown["tags"]
        assert btb.provides_targets


class TestMicroBTB:
    def test_single_cycle_no_history(self):
        ubtb = MicroBTB("ubtb")
        assert ubtb.latency == 1
        assert not ubtb.uses_global_history

    def test_learns_and_redirects(self):
        ubtb = MicroBTB("ubtb", n_entries=4)
        _, meta = lookup(ubtb, 0)
        taken_update(ubtb, 0, 1, 33, meta)
        out, _ = lookup(ubtb, 0)
        assert out.slots[1].is_branch and out.slots[1].taken
        assert out.slots[1].target == 33

    def test_counter_trains_down_on_not_taken(self):
        ubtb = MicroBTB("ubtb", n_entries=4)
        _, meta = lookup(ubtb, 0)
        taken_update(ubtb, 0, 1, 33, meta)
        # Twice not-taken: counter 3 -> 2 -> 1 -> predicts not taken.
        for _ in range(2):
            _, meta = lookup(ubtb, 0)
            ubtb.on_update(
                UpdateBundle(
                    fetch_pc=0, width=4, meta=meta,
                    br_mask=(False, True, False, False),
                    taken_mask=(False, False, False, False),
                    cfi_idx=None, cfi_taken=False, cfi_target=None,
                )
            )
        out, _ = lookup(ubtb, 0)
        assert out.slots[1].is_branch and not out.slots[1].taken

    def test_fifo_replacement(self):
        ubtb = MicroBTB("ubtb", n_entries=2)
        for base_pc, target in ((0, 10), (4, 20), (8, 30)):
            _, meta = lookup(ubtb, base_pc)
            taken_update(ubtb, base_pc, 0, target, meta)
        out, _ = lookup(ubtb, 0)
        assert not out.slots[0].hit  # oldest evicted
        out, _ = lookup(ubtb, 8)
        assert out.slots[0].hit

    def test_flop_storage(self):
        report = MicroBTB("ubtb", n_entries=32).storage()
        assert report.sram_bits == 0 and report.flop_bits > 0
