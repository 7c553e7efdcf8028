"""Differential fuzzing subsystem tests.

Fast tier-1 coverage of the generator/oracle/minimizer/reproducer stack,
the injected-bug fixture proving the oracles have teeth, and a regression
test riding along (schema-2 ``BranchTrace`` round trip through the
reproducer format).  The
long campaign sweeps are marked ``fuzz`` and deselected by default — run
them with ``pytest -m fuzz``.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.diagnostics import ERROR
from repro.analysis.topology_check import check_spec
from repro.cli import main as cli_main
from repro.fuzz import (
    FuzzCase,
    FuzzConfig,
    KernelSpec,
    ProgramSpec,
    build_program,
    campaign_rng,
    case_for_iteration,
    ddmin,
    load_reproducer,
    minimize_case,
    random_program_spec,
    random_topology_spec,
    replay_reproducer,
    run_campaign,
    run_oracle,
    run_oracles,
    save_reproducer,
)
from repro.fuzz.generate import (
    TopologyFactory,
    spec_from_payload,
    spec_to_payload,
)
from repro.workloads.traces import capture_trace
from tests.fixtures import injected_bug

#: A small deterministic workload used by the fast oracle tests.
TINY_SPEC = ProgramSpec(
    seed=11,
    outer_iterations=1,
    kernels=(
        KernelSpec("stream", (("n", 16),)),
        KernelSpec("hammock", (("n", 8),)),
    ),
)


def tiny_case(**overrides) -> FuzzCase:
    fields = dict(
        case_id=0,
        seed=0,
        label="tiny",
        predictor_spec=TopologyFactory("GSHARE2 > BTB2 > BIM2"),
        topology="GSHARE2 > BTB2 > BIM2",
        program_spec=TINY_SPEC,
        max_instructions=800,
    )
    fields.update(overrides)
    return FuzzCase(**fields)


def injected_case() -> FuzzCase:
    """The fixture case: a multi-kernel workload on the lying component."""
    return FuzzCase(
        case_id=0,
        seed=0,
        label="phantom",
        predictor_spec=injected_bug.build_injected_predictor,
        topology=injected_bug.INJECTED_TOPOLOGY,
        program_spec=ProgramSpec(
            seed=7,
            outer_iterations=3,
            kernels=(
                KernelSpec("stream", (("n", 48),)),
                KernelSpec("data_branches", (("n", 32),)),
                KernelSpec("hammock", (("n", 16),)),
            ),
        ),
        max_instructions=4_000,
    )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
class TestGenerators:
    def test_campaign_is_deterministic(self):
        config = FuzzConfig(seed=3)
        for iteration in range(6):
            a = case_for_iteration(config, iteration)
            b = case_for_iteration(config, iteration)
            assert a.topology == b.topology
            assert a.program_spec == b.program_spec
            assert (
                build_program(a.program_spec).instructions
                == build_program(b.program_spec).instructions
            )

    def test_seeds_draw_different_cases(self):
        a = case_for_iteration(FuzzConfig(seed=0), 0)
        b = case_for_iteration(FuzzConfig(seed=1), 0)
        assert (a.topology, a.program_spec) != (b.topology, b.program_spec)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_topologies_are_check_clean(self, seed):
        spec = random_topology_spec(campaign_rng(seed, 0))
        errors = [d for d in check_spec(spec) if d.severity == ERROR]
        assert not errors, f"{spec!r}: {[d.format() for d in errors]}"

    def test_program_spec_payload_round_trip(self):
        spec = random_program_spec(campaign_rng(5, 2))
        assert spec_from_payload(spec_to_payload(spec)) == spec

    def test_preset_cases_mix_into_the_stream(self):
        config = FuzzConfig(seed=0, include_presets=True)
        labels = {case_for_iteration(config, i).label for i in range(8)}
        assert labels & {"tage_l", "b2", "tourney"}
        none = FuzzConfig(seed=0, include_presets=False)
        labels = {case_for_iteration(none, i).label for i in range(8)}
        assert not labels & {"tage_l", "b2", "tourney"}


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_all_oracles_clean_on_healthy_case(self, tmp_path):
        mismatches = run_oracles(
            ("backends", "parallel", "cache", "telemetry", "check"),
            tiny_case(),
            tmp_path,
        )
        assert mismatches == []

    def test_oracles_clean_on_preset_case(self, tmp_path):
        case = tiny_case(
            label="b2", predictor_spec="b2", topology="GTAG3 > BTB2 > BIM2"
        )
        assert run_oracles(("backends", "check"), case, tmp_path) == []

    def test_unknown_oracle_is_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown oracle"):
            run_oracle("nope", tiny_case(), tmp_path)

    def test_crash_becomes_a_mismatch(self, tmp_path):
        case = tiny_case(
            predictor_spec=TopologyFactory("NOSUCH2"), topology="NOSUCH2"
        )
        found = run_oracle("backends", case, tmp_path)
        assert [m.subject for m in found] == ["crash"]
        assert "completes" in str(found[0].expected)


# ----------------------------------------------------------------------
# Injected bug: the oracles must have teeth
# ----------------------------------------------------------------------
class TestInjectedBug:
    def test_backends_oracle_catches_lying_inert_component(self, tmp_path):
        found = run_oracle("backends", injected_case(), tmp_path)
        subjects = {m.subject for m in found}
        # Both the replay backend and the scalar columnar walker skip the
        # lying component's branchless packets, so both diverge from the
        # honest commit-order walk.
        assert "trace-vs-replay" in subjects
        assert "trace-vs-columnar-skip" in subjects

    def test_minimizer_shrinks_the_failing_case(self, tmp_path):
        result = minimize_case(
            injected_case(), "backends", tmp_path, max_evals=100
        )
        shrunk = result.case
        assert result.mismatches, "minimized case must still fail"
        assert len(shrunk.program_spec.kernels) == 1
        assert shrunk.program_spec.outer_iterations == 1
        assert shrunk.max_instructions <= 256
        # The shrunk workload is genuinely tiny.
        assert len(build_program(shrunk.program_spec)) <= 120

    def test_honest_component_passes_the_same_battery(self, tmp_path):
        case = dataclasses.replace(
            injected_case(),
            predictor_spec=TopologyFactory("BIM2"),
            topology="BIM2",
        )
        assert run_oracle("backends", case, tmp_path) == []


# ----------------------------------------------------------------------
# Minimizer internals
# ----------------------------------------------------------------------
class TestMinimize:
    def test_ddmin_finds_minimal_subset(self):
        evals = []

        def predicate(subset):
            evals.append(tuple(subset))
            return {3, 6} <= set(subset)

        assert ddmin(list(range(1, 9)), predicate) == [3, 6]

    def test_ddmin_single_item(self):
        assert ddmin([5], lambda s: True) == [5]

    def test_topology_candidates_are_strictly_simpler(self):
        from repro.fuzz.minimize import topology_candidates

        spec = "TOURNEY3 > [GBIM2 > BTB2, LBIM2]"
        candidates = topology_candidates(spec)
        assert "LBIM2" in candidates
        assert spec not in candidates
        assert all(len(c) < len(spec) for c in candidates)


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------
class TestReproducer:
    def _failing_artifact(self, tmp_path):
        result = minimize_case(
            injected_case(), "backends", tmp_path, max_evals=100
        )
        trace = capture_trace(
            result.case.program(),
            max_instructions=result.case.max_instructions,
        )
        path = save_reproducer(
            tmp_path / "repro.npz",
            result.case,
            "backends",
            result.mismatches,
            trace=trace,
        )
        return path, result

    def test_round_trip_preserves_the_case(self, tmp_path):
        path, result = self._failing_artifact(tmp_path)
        loaded = load_reproducer(path)
        assert loaded.oracle == "backends"
        assert not loaded.generator_drift
        assert loaded.case.program_spec == result.case.program_spec
        assert loaded.case.max_instructions == result.case.max_instructions
        assert (
            loaded.case.program().instructions
            == result.case.program().instructions
        )
        assert loaded.recorded_mismatches == [
            m.payload() for m in result.mismatches
        ]

    def test_embedded_branch_trace_round_trips_schema2(self, tmp_path):
        path, result = self._failing_artifact(tmp_path)
        loaded = load_reproducer(path)
        original = capture_trace(
            result.case.program(),
            max_instructions=result.case.max_instructions,
        )
        trace = loaded.trace
        assert trace is not None and trace.replayable
        np.testing.assert_array_equal(trace.pcs, original.pcs)
        np.testing.assert_array_equal(trace.types, original.types)
        np.testing.assert_array_equal(trace.taken, original.taken)
        np.testing.assert_array_equal(trace.targets, original.targets)
        np.testing.assert_array_equal(trace.slot_kinds, original.slot_kinds)
        np.testing.assert_array_equal(
            trace.slot_targets, original.slot_targets
        )
        assert trace.instruction_count == original.instruction_count
        assert trace.entry_pc == original.entry_pc

    def test_replay_reproduces_the_recorded_failure(self, tmp_path):
        path, _ = self._failing_artifact(tmp_path)
        outcome = replay_reproducer(
            path, predictor_factory=injected_bug.build_injected_predictor
        )
        assert outcome.status == "reproduced"
        assert outcome.exit_code == 1

    def test_replay_reports_clean_when_the_bug_is_fixed(self, tmp_path):
        path, _ = self._failing_artifact(tmp_path)
        # "Fixing" the bug = replacing the predictor with an honest one.
        outcome = replay_reproducer(
            path, predictor_factory=TopologyFactory("BIM2")
        )
        assert outcome.status == "clean"
        assert outcome.exit_code == 0

    def test_stored_columns_win_on_generator_drift(self, tmp_path):
        case = tiny_case()
        path = save_reproducer(tmp_path / "drift.npz", case, "backends", [])
        # Simulate a generator change: rewrite the stored spec so it no
        # longer rebuilds the stored instruction columns.
        import json

        data = dict(np.load(path))
        meta = json.loads(str(data["meta"][()]))
        meta["program_spec"]["seed"] = 999_999
        data["meta"] = json.dumps(meta)
        np.savez_compressed(path, **data)
        loaded = load_reproducer(path)
        assert loaded.generator_drift
        assert (
            loaded.case.program().instructions
            == case.program().instructions
        )


# ----------------------------------------------------------------------
# Campaigns and CLI
# ----------------------------------------------------------------------
class TestCampaign:
    def test_failing_campaign_minimizes_and_writes_artifacts(self, tmp_path):
        config = FuzzConfig(
            seed=0,
            iterations=1,
            oracles=("backends",),
            predictor_factory=injected_bug.build_injected_predictor,
            factory_label="phantom",
            out_dir=tmp_path / "artifacts",
            stop_after=1,
        )
        report = run_campaign(config)
        assert not report.ok
        (failure,) = report.failures
        assert failure.oracle == "backends"
        assert failure.minimized is not None
        assert failure.reproducer_path is not None
        assert failure.reproducer_path.exists()
        assert "phantom" in report.summary()

    def test_time_budget_bounds_the_campaign(self):
        config = FuzzConfig(seed=0, iterations=1_000, time_budget=0.0)
        report = run_campaign(config)
        assert report.iterations_run <= 1

    def test_cli_run_exits_zero_on_clean_campaign(self, capsys):
        code = cli_main(
            [
                "fuzz",
                "run",
                "--seed",
                "0",
                "--iterations",
                "1",
                "--no-artifacts",
                "--quiet",
                "--max-instructions",
                "800",
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_repro_replays_an_artifact(self, tmp_path, capsys):
        case = tiny_case()
        path = save_reproducer(
            tmp_path / "clean.npz", case, "backends", []
        )
        assert cli_main(["fuzz", "repro", str(path)]) == 0
        assert "CLEAN" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Long sweeps (opt-in: pytest -m fuzz)
# ----------------------------------------------------------------------
@pytest.mark.fuzz
class TestFuzzSweep:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_campaign_runs_clean(self, seed):
        report = run_campaign(
            FuzzConfig(seed=seed, iterations=15, out_dir=None)
        )
        assert report.ok, report.summary()
