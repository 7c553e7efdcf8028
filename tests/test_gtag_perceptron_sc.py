"""Tests for GTag, the perceptron, and the statistical corrector."""

from repro.components.gtag import GTag
from repro.components.perceptron import Perceptron
from repro.components.statistical_corrector import StatisticalCorrector
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector, SlotPrediction
from tests.fixtures.meta import meta_fields


def branch_base(pc=0, width=4, taken=False, all_slots=False):
    branch = SlotPrediction(hit=True, is_branch=True, taken=taken)
    if all_slots:
        return PredictionVector(pc, (branch,) * width)
    return PredictionVector.fallthrough(pc, width).with_slot(0, branch)


def bundle(pc, slot, taken, meta, ghist=0, mispredicted=False, width=4):
    return UpdateBundle(
        fetch_pc=pc, width=width, ghist=ghist, meta=meta,
        br_mask=tuple(i == slot for i in range(width)),
        taken_mask=tuple(taken if i == slot else False for i in range(width)),
        mispredicted=mispredicted,
        mispredict_idx=slot if mispredicted else None,
        cfi_is_br=True,
        cfi_idx=slot if taken else None,
        cfi_taken=taken,
    )


class TestGTag:
    def test_miss_passes_through(self):
        g = GTag("g", n_sets=32, history_bits=8)
        out, meta = g.lookup(PredictRequest(0, 4, 0b1010), [branch_base(taken=True)])
        assert out.slots[0].taken  # pass-through
        assert meta_fields(g, meta)["hit"] == 0

    def test_allocates_on_mispredict_and_overrides(self):
        g = GTag("g", n_sets=32, history_bits=8)
        ghist = 0b1100
        _, meta = g.lookup(PredictRequest(0, 4, ghist), [branch_base()])
        g.on_update(bundle(0, 0, True, meta, ghist=ghist, mispredicted=True))
        # Train the counter up once more.
        _, meta = g.lookup(PredictRequest(0, 4, ghist), [branch_base()])
        g.on_update(bundle(0, 0, True, meta, ghist=ghist))
        out, meta = g.lookup(PredictRequest(0, 4, ghist), [branch_base()])
        assert meta_fields(g, meta)["hit"] == 1
        assert out.slots[0].taken

    def test_history_disambiguates(self):
        g = GTag("g", n_sets=32, history_bits=8)
        for ghist, taken in ((0b1111, True), (0b0101, False)):
            for round_idx in range(3):
                _, meta = g.lookup(PredictRequest(0, 4, ghist), [branch_base()])
                g.on_update(bundle(0, 0, taken, meta, ghist=ghist,
                                   mispredicted=(round_idx == 0)))
        out_t, _ = g.lookup(PredictRequest(0, 4, 0b1111), [branch_base()])
        out_n, _ = g.lookup(PredictRequest(0, 4, 0b0101), [branch_base()])
        assert out_t.slots[0].taken
        assert not out_n.slots[0].taken

    def test_storage_counts_tags(self):
        report = GTag("g", n_sets=512).storage()
        assert "tags" in report.breakdown and "counters" in report.breakdown


class TestPerceptron:
    def test_single_prediction_per_packet(self):
        """§III-C: the perceptron predicts only the first branch slot."""
        p = Perceptron("p", n_entries=32, history_bits=8)
        base = branch_base(all_slots=True)
        out, meta = p.lookup(PredictRequest(0, 4, 0), [base])
        fields = meta_fields(p, meta)
        assert fields["cand_valid"] == 1 and fields["lane"] == 0

    def test_learns_history_correlation(self):
        p = Perceptron("p", n_entries=32, history_bits=8)
        # Outcome equals history bit 2.
        misses = 0
        for i in range(400):
            ghist = (i * 0x9E37) & 0xFF
            taken = bool((ghist >> 2) & 1)
            out, meta = p.lookup(PredictRequest(0, 4, ghist), [branch_base()])
            if i >= 200 and out.slots[0].taken != taken:
                misses += 1
            p.on_update(bundle(0, 0, taken, meta, ghist=ghist))
        assert misses < 10

    def test_no_branch_no_candidate(self):
        p = Perceptron("p", n_entries=32, history_bits=8)
        out, meta = p.lookup(PredictRequest(0, 4, 0), [PredictionVector.fallthrough(0, 4)])
        assert meta_fields(p, meta)["cand_valid"] == 0

    def test_weights_clamped(self):
        p = Perceptron("p", n_entries=8, history_bits=4, weight_bits=4)
        for _ in range(100):
            _, meta = p.lookup(PredictRequest(0, 4, 0b1111), [branch_base()])
            p.on_update(bundle(0, 0, True, meta, ghist=0b1111))
        assert p._weights.max() <= 7 and p._weights.min() >= -8

    def test_storage(self):
        p = Perceptron("p", n_entries=256, history_bits=24, weight_bits=8)
        assert p.storage().sram_bits == 256 * 25 * 8


class TestStatisticalCorrector:
    def test_agrees_when_untrained(self):
        sc = StatisticalCorrector("sc", n_sets=64)
        out, _ = sc.lookup(PredictRequest(0, 4, 0), [branch_base(taken=True)])
        assert out.slots[0].taken  # never flips a cold prediction

    def test_flips_systematically_wrong_incoming(self):
        sc = StatisticalCorrector("sc", n_sets=64)
        ghist = 0b110011
        # Incoming always predicts taken, the branch is always not-taken.
        flipped_late = 0
        for i in range(120):
            out, meta = sc.lookup(
                PredictRequest(0, 4, ghist), [branch_base(taken=True)]
            )
            if i >= 60 and not out.slots[0].taken:
                flipped_late += 1
            sc.on_update(bundle(0, 0, False, meta, ghist=ghist))
        assert flipped_late > 50

    def test_does_not_flip_mostly_right_incoming(self):
        sc = StatisticalCorrector("sc", n_sets=64)
        ghist = 0b1
        flips = 0
        for i in range(200):
            taken = (i % 10) != 0  # incoming 'taken' right 90% of the time
            out, meta = sc.lookup(
                PredictRequest(0, 4, ghist), [branch_base(taken=True)]
            )
            flips += not out.slots[0].taken
            sc.on_update(bundle(0, 0, taken, meta, ghist=ghist))
        assert flips < 20

    def test_counters_saturate(self):
        sc = StatisticalCorrector("sc", n_sets=64, counter_bits=6)
        for _ in range(200):
            _, meta = sc.lookup(PredictRequest(0, 4, 0), [branch_base(taken=True)])
            sc.on_update(bundle(0, 0, True, meta, ghist=0))
        for table in sc._tables:
            assert table.max() <= 31 and table.min() >= -32
