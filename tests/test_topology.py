"""Semantics tests for the topology model — including the paper's §IV-A
worked example: two orderings of {uBTB1, PHT2, LOOP2} that agree at Fetch-1
and diverge at Fetch-2 (experiment E11 in DESIGN.md)."""

import pytest

from repro.core.events import PredictRequest
from repro.core.interface import InterfaceError, PredictorComponent, StorageReport
from repro.core.prediction import EMPTY_SLOT, PredictionVector, SlotPrediction
from repro.core.topology import (
    Arbitrate,
    EvaluationPlan,
    Leaf,
    Override,
    merge_by_hit,
    validate_topology,
)


class StubPredictor(PredictorComponent):
    """Configurable stub: optionally hits slot 0 with a fixed direction."""

    def __init__(self, name, latency, hits=True, taken=True, target=None,
                 n_inputs=1, meta=0, meta_bits=8):
        super().__init__(name, latency, meta_bits=meta_bits, n_inputs=n_inputs)
        self.hits = hits
        self.taken = taken
        self.target = target
        self.meta = meta
        self.seen_predict_in = None

    def lookup(self, req, predict_in):
        self.seen_predict_in = list(predict_in)
        out = predict_in[0]
        if self.hits:
            slot = out.slots[0]._replace(hit=True, is_branch=True, taken=self.taken)
            if self.target is not None:
                slot = slot._replace(target=self.target)
            out = out.with_slot(0, slot)
        return out, self.meta

    def storage(self):
        return StorageReport(self.name)


class ChooseSecond(StubPredictor):
    """Arbiter stub that always selects its second input."""

    def lookup(self, req, predict_in):
        self.seen_predict_in = list(predict_in)
        return predict_in[1], self.meta


REQ = PredictRequest(fetch_pc=0, width=4)


def evaluate(node, depth):
    """Staged predictions (None before any component responds) and metas."""
    metas = {}
    plan = EvaluationPlan(node, depth)
    values = plan.run(REQ, metas)
    return [values[i] for i in plan.stages], metas


class TestLeaf:
    def test_responds_at_latency(self):
        leaf = Leaf(StubPredictor("a", 2))
        staged, _ = evaluate(leaf, 3)
        assert staged[0] is None
        assert staged[1] is not None and staged[1].slots[0].hit
        assert staged[2] is staged[1]

    def test_meta_recorded(self):
        leaf = Leaf(StubPredictor("a", 1, meta=0x5A))
        _, metas = evaluate(leaf, 1)
        assert metas["a"] == 0x5A

    def test_arbiter_cannot_be_leaf(self):
        with pytest.raises(InterfaceError):
            Leaf(StubPredictor("sel", 2, n_inputs=2))


class TestOverride:
    def test_slow_over_fast_pass_through(self):
        """PHT2 > uBTB1: uBTB at stage 1, PHT overrides at stage 2."""
        ubtb = StubPredictor("ubtb", 1, taken=True, target=40)
        pht = StubPredictor("pht", 2, taken=False)
        node = Override(pht, Leaf(ubtb))
        staged, _ = evaluate(node, 2)
        assert staged[0].slots[0].taken is True  # uBTB's stage-1 prediction
        assert staged[1].slots[0].taken is False  # PHT overrode direction
        # PHT received the uBTB prediction as predict_in (§III-F).
        assert pht.seen_predict_in[0].slots[0].target == 40

    def test_miss_passes_through(self):
        """A missing upper component leaves the lower prediction standing."""
        base = StubPredictor("base", 1, taken=True)
        top = StubPredictor("top", 2, hits=False)
        staged, _ = evaluate(Override(top, Leaf(base)), 2)
        assert staged[1].slots[0].taken is True

    def test_fast_over_slow_structural_mux(self):
        """uBTB1 > PHT2: a uBTB hit wins at stages 1 AND 2 (§IV-A)."""
        ubtb = StubPredictor("ubtb", 1, taken=True)
        pht = StubPredictor("pht", 2, taken=False)
        node = Override(ubtb, Leaf(pht))
        staged, _ = evaluate(node, 2)
        assert staged[0].slots[0].taken is True
        assert staged[1].slots[0].taken is True  # uBTB remains final

    def test_fast_over_slow_miss_defers(self):
        """uBTB1 > PHT2 with a uBTB miss: PHT provides the stage-2 answer."""
        ubtb = StubPredictor("ubtb", 1, hits=False)
        pht = StubPredictor("pht", 2, taken=False)
        staged, _ = evaluate(Override(ubtb, Leaf(pht)), 2)
        assert staged[0].slots[0].hit is False
        assert staged[1].slots[0].hit is True
        assert staged[1].slots[0].taken is False

    def test_worked_example_orderings_agree_at_stage1(self):
        """Both §IV-A topologies give identical Fetch-1 predictions."""

        def build(order):
            ubtb = StubPredictor("ubtb", 1, taken=True, target=9)
            pht = StubPredictor("pht", 2, taken=False)
            loop = StubPredictor("loop", 2, taken=True)
            if order == "loop_top":  # LOOP2 > PHT2 > uBTB1
                return Override(loop, Override(pht, Leaf(ubtb)))
            return Override(ubtb, Override(pht, Leaf(loop)))  # uBTB1 > PHT2 > LOOP2

        s1, _ = evaluate(build("loop_top"), 2)
        s2, _ = evaluate(build("ubtb_top"), 2)
        assert s1[0].slots[0] == s2[0].slots[0]
        # ...but the stage-2 predictions differ: loop_top lets the loop win,
        # ubtb_top keeps the uBTB prediction.
        assert s1[1].slots[0].taken is True  # loop override
        assert s2[1].slots[0].taken is True  # ubtb retained
        # Distinguish by the direction the PHT wanted:
        pht_only, _ = evaluate(
            Override(StubPredictor("pht", 2, taken=False), Leaf(StubPredictor("u", 1, taken=True))), 2
        )
        assert pht_only[1].slots[0].taken is False

    def test_arbiter_cannot_head_override(self):
        sel = StubPredictor("sel", 2, n_inputs=2)
        with pytest.raises(InterfaceError):
            Override(sel, Leaf(StubPredictor("a", 1)))


class TestArbitrate:
    def test_selector_sees_all_children(self):
        a = StubPredictor("a", 2, taken=True)
        b = StubPredictor("b", 2, taken=False)
        sel = ChooseSecond("sel", 3, n_inputs=2)
        staged, _ = evaluate(Arbitrate(sel, [Leaf(a), Leaf(b)]), 3)
        assert len(sel.seen_predict_in) == 2
        assert staged[2].slots[0].taken is False  # chose second

    def test_first_child_is_pre_arbitration_default(self):
        a = StubPredictor("a", 2, taken=True)
        b = StubPredictor("b", 2, taken=False)
        sel = ChooseSecond("sel", 3, n_inputs=2)
        staged, _ = evaluate(Arbitrate(sel, [Leaf(a), Leaf(b)]), 3)
        assert staged[1].slots[0].taken is True  # child a, before selection

    def test_child_count_must_match_selector(self):
        sel = StubPredictor("sel", 3, n_inputs=2)
        children = [Leaf(StubPredictor(n, 2)) for n in "abc"]
        with pytest.raises(InterfaceError):
            Arbitrate(sel, children)

    def test_requires_two_children(self):
        sel = StubPredictor("sel", 3, n_inputs=2)
        with pytest.raises(InterfaceError):
            Arbitrate(sel, [Leaf(StubPredictor("a", 2))])


class TestMergeByHit:
    def test_winner_slot_taken_when_hit(self):
        w = PredictionVector(0, (SlotPrediction(hit=True, taken=True), EMPTY_SLOT))
        f = PredictionVector(0, (EMPTY_SLOT, SlotPrediction(hit=True, target=5)))
        merged = merge_by_hit(w, f)
        assert merged.slots[0].taken is True
        assert merged.slots[1].target == 5

    def test_merging_a_vector_with_itself_returns_it(self):
        v = PredictionVector(0, (SlotPrediction(hit=True, taken=True), EMPTY_SLOT))
        assert merge_by_hit(v, v) is v

    def test_all_hit_winner_is_returned_as_is(self):
        w = PredictionVector(
            0, (SlotPrediction(hit=True, taken=True), SlotPrediction(hit=True))
        )
        f = PredictionVector(0, (SlotPrediction(hit=True, target=3),) * 2)
        assert merge_by_hit(w, f) is w

    def test_winner_equal_to_fallback_where_it_missed_is_returned(self):
        # The non-hit slot holds the same value as the fallback's (another
        # object), so the mux would rebuild the winner.
        w = PredictionVector(0, (SlotPrediction(hit=True), SlotPrediction()))
        f = PredictionVector(0, (EMPTY_SLOT, EMPTY_SLOT))
        assert merge_by_hit(w, f) is w

    def test_non_hit_winner_slots_still_mux_the_fallback_in(self):
        hit = SlotPrediction(hit=True, is_branch=True, taken=True)
        miss = SlotPrediction(is_branch=True, taken=True)  # not hit: muxed away
        fallback_slot = SlotPrediction(hit=True, is_jump=True, taken=True, target=9)
        w = PredictionVector(4, (hit, miss, EMPTY_SLOT))
        f = PredictionVector(4, (EMPTY_SLOT, fallback_slot, EMPTY_SLOT))
        merged = merge_by_hit(w, f)
        assert merged is not w and merged is not f
        assert merged == PredictionVector(4, (hit, fallback_slot, EMPTY_SLOT))
        assert merged.slots[0] is hit and merged.slots[1] is fallback_slot


class TestValidation:
    def test_duplicate_names_rejected(self):
        a = StubPredictor("same", 1)
        b = StubPredictor("same", 2)
        with pytest.raises(InterfaceError, match="duplicate"):
            validate_topology(Override(b, Leaf(a)))

    def test_component_reuse_rejected(self):
        a = StubPredictor("a", 2)
        with pytest.raises(InterfaceError):
            validate_topology(Override(a, Leaf(a)))

    def test_valid_topology_lists_components(self):
        a = StubPredictor("a", 1)
        b = StubPredictor("b", 2)
        comps = validate_topology(Override(b, Leaf(a)))
        assert [c.name for c in comps] == ["a", "b"]

    def test_describe_roundtrips_notation(self):
        a = StubPredictor("bim", 2)
        b = StubPredictor("tage", 3)
        node = Override(b, Leaf(a))
        assert node.describe() == "TAGE3 > BIM2"
