"""Tests for the loop predictor and tournament selector."""

from repro.components.loop import LoopPredictor
from repro.components.tournament import Tourney
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector, SlotPrediction


def branch_base(pc=0, width=4, slot=0, taken=False):
    base = PredictionVector.fallthrough(pc, width)
    branch = SlotPrediction(hit=True, is_branch=True, taken=taken)
    return base.with_slot(slot, branch)


def loop_commit(loop, pc, slot, taken, meta, mispredicted=False, width=4):
    loop.on_update(
        UpdateBundle(
            fetch_pc=pc, width=width, meta=meta,
            br_mask=tuple(i == slot for i in range(width)),
            taken_mask=tuple(taken if i == slot else False for i in range(width)),
            mispredicted=mispredicted,
            mispredict_idx=slot if mispredicted else None,
        )
    )


def run_loop_iterations(loop, trips, rounds, pc=0):
    """Drive a perfect counted loop: `trips` taken, then one not-taken."""
    wrong_total = 0
    for _ in range(rounds):
        for i in range(trips + 1):
            taken = i < trips
            base = branch_base(pc=pc, taken=True)  # base predicts 'taken'
            out, meta = loop.lookup(PredictRequest(pc, 4), [base])
            predicted = out.slots[0].taken
            wrong = predicted != taken
            wrong_total += wrong
            loop.fire(
                UpdateBundle(
                    fetch_pc=pc, width=4, meta=meta,
                    br_mask=(True, False, False, False),
                    taken_mask=(predicted, False, False, False),
                )
            )
            if wrong:
                loop.on_mispredict(
                    UpdateBundle(
                        fetch_pc=pc, width=4, meta=meta,
                        br_mask=(True, False, False, False),
                        taken_mask=(taken, False, False, False),
                        mispredicted=True, mispredict_idx=0,
                    )
                )
            loop_commit(loop, pc, 0, taken, meta, mispredicted=wrong)
    return wrong_total


class TestLoopPredictor:
    def test_learns_trip_count_and_predicts_exit(self):
        loop = LoopPredictor("loop", n_entries=16)
        # Warm up enough rounds for confidence, then measure one round.
        run_loop_iterations(loop, trips=5, rounds=8)
        wrong = run_loop_iterations(loop, trips=5, rounds=4)
        assert wrong == 0  # exit predicted exactly

    def test_unstable_trips_never_confident(self):
        loop = LoopPredictor("loop", n_entries=16)
        # Alternate trip counts 3 and 6: confidence must not build.
        for round_idx in range(10):
            trips = 3 if round_idx % 2 == 0 else 6
            run_loop_iterations(loop, trips=trips, rounds=1)
        base = branch_base(taken=True)
        out, meta = loop.lookup(PredictRequest(0, 4), [base])
        fields = loop._codec.unpack(meta)
        # Candidate exists but does not override with confidence...
        if fields["cand_valid"]:
            entry = loop._entry_for(0)
            assert entry is None or loop._conf[entry] < loop.CONF_THRESHOLD

    def test_repair_restores_spec_counter(self):
        loop = LoopPredictor("loop", n_entries=16)
        run_loop_iterations(loop, trips=4, rounds=8)
        entry = loop._entry_for(0)
        assert entry is not None
        before = int(loop._spec_iter[entry])
        base = branch_base(taken=True)
        out, meta = loop.lookup(PredictRequest(0, 4), [base])
        loop.fire(
            UpdateBundle(
                fetch_pc=0, width=4, meta=meta,
                br_mask=(True, False, False, False),
                taken_mask=(True, False, False, False),
            )
        )
        assert int(loop._spec_iter[entry]) == before + 1
        loop.on_repair(
            UpdateBundle(fetch_pc=0, width=4, meta=meta,
                         br_mask=(True, False, False, False),
                         taken_mask=(True, False, False, False))
        )
        assert int(loop._spec_iter[entry]) == before

    def test_no_branch_info_no_prediction(self):
        loop = LoopPredictor("loop", n_entries=16)
        base = PredictionVector.fallthrough(0, 4)  # no is_branch hints
        out, meta = loop.lookup(PredictRequest(0, 4), [base])
        assert loop._codec.unpack(meta)["cand_valid"] == 0

    def test_storage_and_reset(self):
        loop = LoopPredictor("loop", n_entries=64)
        assert loop.storage().total_bits > 0


class TestTourney:
    def _mk_inputs(self, a_taken, b_taken, width=4):
        a = SlotPrediction(hit=True, is_branch=True, taken=a_taken)
        b = SlotPrediction(hit=True, is_branch=True, taken=b_taken)
        return PredictionVector(0, (a,) * width), PredictionVector(0, (b,) * width)

    def test_requires_two_inputs(self):
        t = Tourney("t", n_sets=16)
        assert t.n_inputs == 2

    def test_learns_to_prefer_correct_side(self):
        t = Tourney("t", n_sets=16, history_bits=8)
        ghist = 0b1010
        # Input B is always right (taken), A always wrong.
        for _ in range(6):
            a, b = self._mk_inputs(False, True)
            out, meta = t.lookup(PredictRequest(0, 4, ghist), [a, b])
            t.on_update(
                UpdateBundle(
                    fetch_pc=0, width=4, ghist=ghist, meta=meta,
                    br_mask=(True, False, False, False),
                    taken_mask=(True, False, False, False),
                )
            )
        a, b = self._mk_inputs(False, True)
        out, _ = t.lookup(PredictRequest(0, 4, ghist), [a, b])
        assert out.slots[0].taken  # chose B

    def test_no_training_when_sides_agree(self):
        t = Tourney("t", n_sets=16, history_bits=8)
        before = t._table.copy()
        a, b = self._mk_inputs(True, True)
        _, meta = t.lookup(PredictRequest(0, 4, 0), [a, b])
        t.on_update(
            UpdateBundle(
                fetch_pc=0, width=4, ghist=0, meta=meta,
                br_mask=(True, False, False, False),
                taken_mask=(True, False, False, False),
            )
        )
        assert (t._table == before).all()

    def test_meta_tracks_both_sides(self):
        """§III-G3: metadata records both sub-predictions for update."""
        t = Tourney("t", n_sets=16, history_bits=8)
        a, b = self._mk_inputs(True, False)
        _, meta = t.lookup(PredictRequest(0, 4, 0), [a, b])
        fields = t._codec.unpack(meta)
        assert fields["a_taken"][0] == 1
        assert fields["b_taken"][0] == 0

    def test_target_flows_from_either_side(self):
        t = Tourney("t", n_sets=16, history_bits=8)
        a, b = self._mk_inputs(True, False)
        a = a.with_slot(0, a.slots[0]._replace(target=123))
        out, _ = t.lookup(PredictRequest(0, 4, 0), [a, b])
        assert out.slots[0].target == 123

    def test_storage(self):
        assert Tourney("t", n_sets=256).storage().sram_bits == 256 * 4 * 2


class TestLoopPredictorRobustness:
    """Regression tests for the cold-start polarity and drift pathologies."""

    def test_cold_start_allocation_learns_correct_direction(self):
        """Allocation fires on the first *taken* mispredict of a cold base
        predictor; the body direction must still come out right."""
        loop = LoopPredictor("loop", n_entries=16)
        # Simulate: base predicts not-taken, loop instance = 5 taken + exit.
        for _ in range(8):
            for i in range(6):
                taken = i < 5
                base = branch_base(taken=False)  # cold bimodal says NT
                out, meta = loop.lookup(PredictRequest(0, 4), [base])
                predicted = out.slots[0].taken
                wrong = predicted != taken
                loop.fire(UpdateBundle(
                    fetch_pc=0, width=4, meta=meta,
                    br_mask=(True, False, False, False),
                    taken_mask=(predicted, False, False, False)))
                loop_commit(loop, 0, 0, taken, meta, mispredicted=wrong)
        entry = loop._entry_for(0)
        assert entry is not None
        assert bool(loop._direction[entry]) is True  # body = taken
        assert int(loop._trip[entry]) == 5
        assert int(loop._conf[entry]) >= loop.CONF_THRESHOLD

    def test_drifted_counter_does_not_predict_exit_repeatedly(self):
        """If spec_iter overshoots the trip (missed speculative update),
        the predictor must fall back to the body direction, not predict
        the exit on every remaining iteration."""
        loop = LoopPredictor("loop", n_entries=16)
        run_loop_iterations(loop, trips=5, rounds=8)  # confident entry
        entry = loop._entry_for(0)
        assert int(loop._conf[entry]) >= loop.CONF_THRESHOLD
        # Force a drifted speculative counter beyond the trip.
        loop._spec_iter[entry] = int(loop._trip[entry]) + 3
        base = branch_base(taken=True)
        out, _ = loop.lookup(PredictRequest(0, 4), [base])
        body = bool(loop._direction[entry])
        assert out.slots[0].taken == body  # body, not a (false) exit

    def test_exit_predicted_exactly_at_trip(self):
        loop = LoopPredictor("loop", n_entries=16)
        run_loop_iterations(loop, trips=4, rounds=8)
        entry = loop._entry_for(0)
        body = bool(loop._direction[entry])
        loop._spec_iter[entry] = int(loop._trip[entry])
        out, _ = loop.lookup(PredictRequest(0, 4), [branch_base(taken=True)])
        assert out.slots[0].taken == (not body)
