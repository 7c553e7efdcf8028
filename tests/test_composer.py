"""Tests for the composer: predict/fire/mispredict/commit protocol,
pre-decode fixups, history management, repair modes, storage reports."""

import pytest

from repro import presets
from repro.components.library import standard_library
from repro.core import (
    Arbitrate,
    ComposedPredictor,
    ComposerConfig,
    InterfaceError,
    Leaf,
    Override,
    PredictorComponent,
    PreDecodedSlot,
    StorageReport,
    compose,
)

BR = PreDecodedSlot(is_cond_branch=True, direct_target=100)
PLAIN = PreDecodedSlot()


def mk(topo="GSHARE2", **config):
    lib = standard_library(global_history_bits=config.get("global_history_bits", 64))
    return compose(topo, lib, ComposerConfig(**config))


def packet(*kinds):
    return list(kinds) + [PLAIN] * (4 - len(kinds))


class TestPredictContract:
    def test_wrong_span_rejected(self):
        pred = mk()
        with pytest.raises(InterfaceError):
            pred.predict(2, [PLAIN] * 4)  # pc 2 only spans 2 slots

    def test_mid_packet_span(self):
        pred = mk()
        result = pred.predict(2, [PLAIN, PLAIN])
        assert result.width == 2
        assert result.next_fetch_pc == 4
        pred.commit_packet(result.ftq_id)

    def test_full_history_file_rejects_predict(self):
        pred = mk(ftq_entries=2)
        pred.predict(0, [PLAIN] * 4)
        pred.predict(4, [PLAIN] * 4)
        assert not pred.can_predict
        with pytest.raises(InterfaceError):
            pred.predict(8, [PLAIN] * 4)

    def test_depth_is_max_latency(self):
        assert mk("GSHARE2").depth == 2
        assert presets.tage_l().depth == 3

    def test_staged_vectors_one_per_stage(self):
        result = mk("GSHARE2").predict(0, [PLAIN] * 4)
        assert len(result.staged) == 2


class MetaStub(PredictorComponent):
    """Passes its first input through and reports a fixed metadata word."""

    def __init__(self, name, latency=2, meta=0, meta_bits=4, n_inputs=1):
        super().__init__(name, latency, meta_bits=meta_bits, n_inputs=n_inputs)
        self.meta = meta

    def lookup(self, req, predict_in):
        return predict_in[0], self.meta

    def storage(self):
        return StorageReport(self.name)


class TestMetaWidthGate:
    """``predict`` rejects metadata wider than a component declared, at
    every position a component can take in a topology."""

    TOO_WIDE = 1 << 4  # one bit past the stubs' 4-bit declaration

    def topologies(self, meta):
        yield "leaf", Leaf(MetaStub("bad", meta=meta))
        yield "override head", Override(
            MetaStub("bad", latency=3, meta=meta), Leaf(MetaStub("lo"))
        )
        yield "arbitrate selector", Arbitrate(
            MetaStub("bad", latency=3, meta=meta, n_inputs=2),
            [Leaf(MetaStub("a")), Leaf(MetaStub("b"))],
        )

    @pytest.mark.parametrize("meta", [TOO_WIDE, -1])
    def test_out_of_range_meta_raises(self, meta):
        for where, topology in self.topologies(meta):
            predictor = ComposedPredictor(topology)
            with pytest.raises(InterfaceError, match="does not fit"):
                predictor.predict(0, [PLAIN] * 4)
            assert len(predictor.history_file) == 0, where

    def test_widest_fitting_meta_is_recorded(self):
        for where, topology in self.topologies(self.TOO_WIDE - 1):
            predictor = ComposedPredictor(topology)
            result = predictor.predict(0, [PLAIN] * 4)
            entry = predictor.history_file.get(result.ftq_id)
            assert entry.metas["bad"] == self.TOO_WIDE - 1, where


class TestPreDecode:
    def test_bogus_prediction_on_plain_slot_cleared(self):
        pred = mk()
        result = pred.predict(0, [PLAIN] * 4)
        assert result.final.cfi_index() is None
        assert result.next_fetch_pc == 4

    def test_jal_always_taken_with_static_target(self):
        pred = mk()
        jal = PreDecodedSlot(is_jal=True, direct_target=40)
        result = pred.predict(0, packet(PLAIN, jal))
        assert result.cut == 1
        assert result.next_fetch_pc == 40
        assert result.final.slots[1].is_jump

    def test_taken_branch_gets_direct_target(self):
        pred = mk("BIM2")  # PC-indexed: stable training index
        for _ in range(3):
            result = pred.predict(0, packet(BR))
            if not result.final.slots[0].taken:
                pred.resolve_mispredict(result.ftq_id, 0, True, 100)
            pred.commit_packet(result.ftq_id)
        result = pred.predict(0, packet(BR))
        assert result.final.slots[0].taken
        assert result.final.slots[0].target == 100
        assert result.next_fetch_pc == 100

    def test_ret_uses_ras_top(self):
        pred = mk()
        ret = PreDecodedSlot(is_jalr=True, is_ret=True)
        result = pred.predict(0, packet(ret), ras_top=55)
        assert result.next_fetch_pc == 55

    def test_jalr_without_target_falls_through(self):
        pred = mk()
        jalr = PreDecodedSlot(is_jalr=True)
        result = pred.predict(0, packet(jalr))
        assert result.next_fetch_pc == 4  # nowhere to go
        assert result.cut == 0

    def test_sfb_branch_invisible(self):
        pred = mk()
        sfb = PreDecodedSlot(is_cond_branch=True, direct_target=2, is_sfb=True)
        result = pred.predict(0, packet(sfb))
        assert result.final.cfi_index() is None
        entry = pred.history_file.get(result.ftq_id)
        assert entry.br_mask == (False, False, False, False)

    def test_invalid_slots_cleared(self):
        pred = mk()
        result = pred.predict(0, [PreDecodedSlot(valid=False)] * 4)
        assert result.final.cfi_index() is None


class TestHistoryManagement:
    def test_ghist_advances_with_predicted_direction(self):
        pred = mk()
        result = pred.predict(0, packet(BR))
        predicted = result.final.slots[0].taken
        assert pred._global.read() & 1 == int(predicted)

    def test_mispredict_restores_and_corrects_ghist(self):
        pred = mk()
        result = pred.predict(0, packet(BR))
        predicted = result.final.slots[0].taken
        # A few younger packets pollute the history.
        pred.predict(4, [PLAIN] * 4)
        y = pred.predict(8, packet(BR))
        pred.resolve_mispredict(result.ftq_id, 0, not predicted, 100 if not predicted else None)
        assert pred._global.read() & 1 == int(not predicted)
        # Younger entries were squashed.
        assert pred.history_file.find(y.ftq_id) is None

    def test_mispredict_truncates_entry(self):
        pred = mk()
        result = pred.predict(0, [BR, BR, PLAIN, PLAIN])
        entry = pred.history_file.get(result.ftq_id)
        assert entry.br_mask[:2] == (True, True)
        pred.resolve_mispredict(result.ftq_id, 0, True, 100)
        assert entry.br_mask == (True, False, False, False)
        assert entry.cfi_idx == 0 and entry.cfi_taken
        assert entry.mispredict_idx == 0

    def test_jalr_target_mispredict_keeps_direction(self):
        pred = mk()
        jalr = PreDecodedSlot(is_jalr=True)
        result = pred.predict(0, packet(jalr))
        pred.resolve_mispredict(result.ftq_id, 0, True, 60, is_direction_mispredict=False)
        entry = pred.history_file.get(result.ftq_id)
        assert entry.cfi_target == 60
        assert pred.stats.target_mispredicts == 1

    def test_commit_requires_head(self):
        pred = mk()
        a = pred.predict(0, [PLAIN] * 4)
        b = pred.predict(4, [PLAIN] * 4)
        with pytest.raises(InterfaceError):
            pred.commit_packet(b.ftq_id)
        pred.commit_packet(a.ftq_id)
        pred.commit_packet(b.ftq_id)

    def test_stats_counted(self):
        pred = mk()
        result = pred.predict(0, packet(BR))
        predicted = result.final.slots[0].taken
        pred.resolve_mispredict(result.ftq_id, 0, not predicted, None if predicted else 100)
        pred.commit_packet(result.ftq_id)
        assert pred.stats.predictions == 1
        assert pred.stats.direction_mispredicts == 1
        assert pred.stats.committed_packets == 1
        assert pred.stats.committed_branches == 1


class TestRepairModes:
    def test_replay_mode_reports_bubbles(self):
        pred = mk(ghist_repair_mode="replay", ghist_repair_bubbles=3)
        result = pred.predict(0, packet(BR))
        predicted = result.final.slots[0].taken
        resp = pred.resolve_mispredict(result.ftq_id, 0, not predicted,
                                       100 if not predicted else None)
        assert resp.extra_redirect_bubbles == 3

    def test_no_replay_mode_serves_stale_history(self):
        pred = mk(ghist_repair_mode="no_replay", ghist_corruption_window=2)
        result = pred.predict(0, packet(BR))
        predicted = result.final.slots[0].taken
        resp = pred.resolve_mispredict(result.ftq_id, 0, not predicted,
                                       100 if not predicted else None)
        assert resp.extra_redirect_bubbles == 0
        pred.commit_packet(result.ftq_id)
        pred.predict(0, packet(BR))
        pred.predict(4, [PLAIN] * 4)
        assert pred.stats.stale_history_queries == 2
        pred.predict(8, [PLAIN] * 4)
        assert pred.stats.stale_history_queries == 2  # window over

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ComposerConfig(ghist_repair_mode="sometimes")

    def test_negative_repair_bubbles_rejected(self):
        with pytest.raises(ValueError):
            ComposerConfig(ghist_repair_bubbles=-1)

    def test_negative_corruption_window_rejected(self):
        with pytest.raises(ValueError):
            ComposerConfig(ghist_corruption_window=-1)

    def test_zero_valued_knobs_accepted(self):
        config = ComposerConfig(ghist_repair_bubbles=0, ghist_corruption_window=0)
        assert config.ghist_repair_bubbles == 0
        assert config.ghist_corruption_window == 0


class TestSerializedFetch:
    def test_packet_cut_at_first_cfi(self):
        pred = mk(serialize_cfi=True)
        result = pred.predict(0, [PLAIN, BR, PLAIN, PLAIN])
        assert result.cut == 1
        assert result.fetched_len == 2
        if not result.final.slots[1].taken:
            assert result.next_fetch_pc == 2

    def test_plain_packet_not_cut(self):
        pred = mk(serialize_cfi=True)
        result = pred.predict(0, [PLAIN] * 4)
        assert result.cut is None
        assert result.fetched_len == 4


class TestSquash:
    def test_squash_after_restores_ghist(self):
        pred = mk()
        a = pred.predict(0, packet(BR))
        ghist_after_a = pred._global.read()
        pred.predict(4, packet(BR))
        pred.predict(8, packet(BR))
        pred.squash_after(a.ftq_id)
        assert pred._global.read() == ghist_after_a
        assert len(pred.history_file) == 1

    def test_squash_nothing_is_noop(self):
        pred = mk()
        a = pred.predict(0, [PLAIN] * 4)
        assert pred.squash_after(a.ftq_id) == 0


class TestStorageReports:
    def test_meta_report_present(self):
        reports = presets.tage_l().storage_reports()
        assert "meta" in reports
        assert reports["meta"].total_bits > 0

    def test_local_history_only_when_used(self):
        tourney = presets.tourney().storage_reports()
        b2 = presets.b2().storage_reports()
        assert "lhist_table" in tourney["meta"].breakdown
        assert "lhist_table" not in b2["meta"].breakdown

    def test_table1_direction_storage(self):
        """Table I: ~6.8 / 6.5 / 28 KB for Tournament / B2 / TAGE-L."""
        tourney = presets.tourney().direction_storage_kib()
        b2 = presets.b2().direction_storage_kib()
        tage_l = presets.tage_l().direction_storage_kib()
        assert 4.5 <= tourney <= 9.0
        assert 3.5 <= b2 <= 8.5
        assert 20.0 <= tage_l <= 34.0
        assert tage_l > 3 * b2  # the paper's big/small relation


class TestDescribe:
    def test_preset_topologies(self):
        assert presets.tage_l().describe() == "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"
        assert presets.b2().describe() == "GTAG3 > BTB2 > BIM2"
        # Arbitration children render with explicit grouping parentheses.
        assert presets.tourney().describe() == "TOURNEY3 > [(GBIM2 > BTB2), LBIM2]"
