"""Parallel evaluation engine: equivalence with the serial reference path."""

import pytest

from repro import presets
from repro.eval.parallel import EvalJob, ParallelRunner, _execute_job
from repro.eval.runner import run_suite, run_workload
from repro.frontend.config import CoreConfig
from repro.workloads.micro import build_micro

MAX_INSTRUCTIONS = 2000


@pytest.fixture(scope="module")
def programs():
    return {name: build_micro(name, scale=0.2) for name in ("biased", "dispatch")}


@pytest.fixture(scope="module")
def serial_results(programs):
    return run_suite(
        ["b2", "tourney"], programs, max_instructions=MAX_INSTRUCTIONS
    )


class TestParallelEquivalence:
    def test_jobs4_bit_identical_to_serial(self, programs, serial_results):
        """2 presets x 2 micro workloads: every field of every RunResult
        (including the full CoreStats) must match the serial reference."""
        parallel = run_suite(
            ["b2", "tourney"], programs, max_instructions=MAX_INSTRUCTIONS, jobs=4
        )
        for system, rows in serial_results.items():
            for workload, expected in rows.items():
                got = parallel[system][workload]
                assert got == expected
                assert got.stats == expected.stats

    def test_parallel_with_cache_matches(self, tmp_path, programs, serial_results):
        kwargs = dict(
            max_instructions=MAX_INSTRUCTIONS, jobs=4, cache=tmp_path / "cache"
        )
        cold = run_suite(["b2", "tourney"], programs, **kwargs)
        warm = run_suite(["b2", "tourney"], programs, **kwargs)
        for system, rows in serial_results.items():
            for workload, expected in rows.items():
                assert cold[system][workload] == expected
                assert warm[system][workload] == expected

    def test_unpicklable_factory_falls_back_to_serial(self, programs):
        """A closure factory cannot cross the process boundary; the runner
        must execute it in-process instead of failing."""
        sets = 256
        systems = [
            ("tiny_tage", lambda: presets.tage_l(tage_sets=sets), None),
            "b2",
        ]
        parallel = run_suite(
            systems, programs, max_instructions=MAX_INSTRUCTIONS, jobs=4
        )
        serial = run_suite(systems, programs, max_instructions=MAX_INSTRUCTIONS)
        for system in ("tiny_tage", "b2"):
            for workload in programs:
                assert parallel[system][workload] == serial[system][workload]


class TestRunSuiteOptions:
    def test_max_cycles_forwarded(self, programs):
        bounded = run_suite(
            ["b2"], {"biased": programs["biased"]}, max_cycles=300
        )
        assert bounded["b2"]["biased"].cycles <= 300

    def test_shared_core_config_default(self, programs, serial_results):
        """A suite-wide CoreConfig reaches every system without one."""
        config = CoreConfig(rob_entries=16)
        shared = run_suite(
            ["b2"], programs, max_instructions=MAX_INSTRUCTIONS, core_config=config
        )
        per_system = run_suite(
            [("b2", "b2", config)], programs, max_instructions=MAX_INSTRUCTIONS
        )
        for workload in programs:
            assert shared["b2"][workload] == per_system["b2"][workload]
            # A 16-entry ROB changes the run, so equality with the default
            # would mean the shared config was dropped.
            assert shared["b2"][workload] != serial_results["b2"][workload]

    def test_system_config_beats_shared_default(self, programs):
        explicit = CoreConfig(rob_entries=16)
        shared = CoreConfig(rob_entries=128)
        results = run_suite(
            [("b2_small", lambda: presets.b2(), explicit)],
            {"biased": programs["biased"]},
            max_instructions=MAX_INSTRUCTIONS,
            core_config=shared,
        )
        small_rob = results["b2_small"]["biased"]
        baseline = run_suite(
            ["b2"], {"biased": programs["biased"]},
            max_instructions=MAX_INSTRUCTIONS,
        )["b2"]["biased"]
        # A 16-entry ROB measurably slows the core; identical cycles would
        # mean the per-system config was ignored.
        assert small_rob.cycles > baseline.cycles

    def test_progress_fires_per_pair(self, programs):
        seen = []
        run_suite(
            ["b2", "tourney"],
            programs,
            max_instructions=MAX_INSTRUCTIONS,
            progress=lambda s, w: seen.append((s, w)),
        )
        assert sorted(seen) == sorted(
            (s, w) for s in ("b2", "tourney") for w in programs
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_topology_string_systems(self, programs, jobs):
        """A topology string is a system spec, as a preset name is."""
        topology = "GTAG3 > BTB2 > BIM2"
        results = run_suite(
            [topology, "b2"], programs, max_instructions=MAX_INSTRUCTIONS, jobs=jobs
        )
        for workload, program in programs.items():
            expected = run_workload(
                topology, program, max_instructions=MAX_INSTRUCTIONS
            )
            assert results[topology][workload] == expected

    def test_live_predictor_rejected(self, programs):
        with pytest.raises(TypeError):
            run_suite([presets.b2()], programs)


class TestRunnerInternals:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_execute_job_builds_fresh_state(self, programs):
        job = EvalJob(
            system="b2",
            spec="b2",
            workload="biased",
            program=programs["biased"],
            max_instructions=MAX_INSTRUCTIONS,
        )
        first = _execute_job(job)
        second = _execute_job(job)
        # Power-on-fresh predictor per execution: repeat runs are identical.
        assert first == second

    def test_order_preserved(self, programs):
        batch = [
            EvalJob(
                system=system,
                spec=system,
                workload=workload,
                program=program,
                max_instructions=MAX_INSTRUCTIONS,
            )
            for system in ("b2", "tourney")
            for workload, program in programs.items()
        ]
        results = ParallelRunner(jobs=4).run(batch)
        assert [(r.system, r.workload) for r in results] == [
            (j.system, j.workload) for j in batch
        ]

    def test_broken_pool_reruns_unfinished_jobs_serially(self, programs):
        """Every worker dies building its predictor, which breaks the pool;
        the runner must rerun the unfinished jobs in-process and return
        what the serial reference path returns."""
        from tests.fixtures.dying_factory import b2_or_die

        batch = [
            EvalJob(
                system="b2",
                spec=b2_or_die,
                workload=workload,
                program=program,
                max_instructions=MAX_INSTRUCTIONS,
            )
            for workload, program in programs.items()
        ]
        serial = ParallelRunner(jobs=1).run(batch)
        assert ParallelRunner(jobs=2).run(batch) == serial
        assert len(serial) == len(batch)

    def test_job_that_raised_in_a_worker_reruns_once_in_the_parent(
        self, programs
    ):
        """A job-level exception fails only that job: the parent reruns it
        once, returning its result, or propagating its exception when the
        job fails there too."""
        from tests.fixtures.dying_factory import b2_or_raise, never_builds

        def batch(spec):
            return [
                EvalJob(
                    system="b2",
                    spec=spec,
                    workload=workload,
                    program=program,
                    max_instructions=MAX_INSTRUCTIONS,
                )
                for workload, program in programs.items()
            ]

        serial = ParallelRunner(jobs=1).run(batch(b2_or_raise))
        assert ParallelRunner(jobs=2).run(batch(b2_or_raise)) == serial
        with pytest.raises(RuntimeError, match="never builds"):
            ParallelRunner(jobs=2).run(batch(never_builds))


def _jobs(programs, spec="b2"):
    return [
        EvalJob(
            system=spec if isinstance(spec, str) else "b2",
            spec=spec,
            workload=workload,
            program=program,
            max_instructions=MAX_INSTRUCTIONS,
        )
        for workload, program in programs.items()
    ]


class TestPoolLifetime:
    def test_open_runner_serves_every_batch_with_one_pool(
        self, programs, pool_starts, new_children
    ):
        batches = [_jobs(programs, spec) for spec in ("b2", "tourney", "b2")]
        serial = [ParallelRunner(jobs=1).run(batch) for batch in batches]
        with ParallelRunner(jobs=2) as runner:
            fanned = [runner.run(batch) for batch in batches]
            assert pool_starts == [2]
        assert fanned == serial
        assert not new_children()

    def test_bare_run_leaves_no_live_child(self, programs, pool_starts, new_children):
        runner = ParallelRunner(jobs=2)
        runner.run(_jobs(programs))
        runner.run(_jobs(programs))
        # Not open: each run starts its own pool and joins it.
        assert pool_starts == [2, 2]
        assert not new_children()

    def test_broken_pool_is_dropped_and_the_next_batch_gets_a_fresh_one(
        self, programs, pool_starts, new_children
    ):
        from tests.fixtures.dying_factory import b2_or_die

        dying, healthy = _jobs(programs, b2_or_die), _jobs(programs, "tourney")
        serial = [ParallelRunner(jobs=1).run(b) for b in (dying, healthy)]
        with ParallelRunner(jobs=2) as runner:
            assert runner.run(dying) == serial[0]
            assert runner.run(healthy) == serial[1]
        assert pool_starts == [2, 2]
        assert not new_children()

    def test_warm_rerun_starts_no_pool(self, tmp_path, programs, pool_starts):
        batch = _jobs(programs) + _jobs(programs, "tourney")
        with ParallelRunner(jobs=2, cache=tmp_path / "cache") as runner:
            cold = runner.run(batch)
        assert pool_starts == [2]
        with ParallelRunner(jobs=2, cache=tmp_path / "cache") as runner:
            assert runner.run(batch) == cold
        assert pool_starts == [2]

    def test_runner_and_its_options_are_exclusive(self, programs):
        with pytest.raises(ValueError, match="runner"):
            run_suite(["b2"], programs, jobs=2, runner=ParallelRunner())
