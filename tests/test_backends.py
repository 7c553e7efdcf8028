"""Tests for the pluggable execution-backend layer (``repro.backends``).

The load-bearing guarantee: both trace-driven backends, ``trace`` and
``replay`` — one columnar walk, no interpreter, branchless packets
skipped — reproduce the branch and mispredict counts of the reference
per-instruction walk (:mod:`repro.fuzz.reference`) bit for bit, for every
preset, with and without the fast path's gating conditions, and across a
save/load process boundary.
"""

import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import cli, presets
from repro.backends import (
    DEFAULT_BACKEND,
    RunLimits,
    backend_names,
    get_backend,
)
from repro.backends.base import WalkCounts, counts_result
from repro.backends.replay import drive_columns, trace_packets
from repro.backends.trace import TraceBackend
from repro.components.library import standard_library
from repro.core.composer import ComposerConfig, compose
from repro.core.interface import PredictorComponent, StorageReport
from repro.eval.runner import run_workload
from repro.fuzz.reference import reference_walk
from repro.kernels.engine import TraceColumns, engine_for
from repro.workloads.micro import build_micro
from repro.workloads.registry import (
    WorkloadSource,
    build_workload,
    resolve_workload,
    workload_names,
)
from repro.workloads.traces import BranchTrace, capture_trace
from tests.fixtures import injected_bug

BUDGET = 8_000


@pytest.fixture(scope="module")
def micro_program():
    return build_micro("counted_loops", scale=0.2)


@pytest.fixture(scope="module")
def micro_npz(micro_program, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "counted_loops.npz"
    capture_trace(micro_program, max_instructions=BUDGET).save(path)
    return path


def counts(result):
    return (result.branches, result.branch_mispredicts, result.instructions)


# ----------------------------------------------------------------------
# Registry and source resolution
# ----------------------------------------------------------------------
class TestRegistry:
    def test_backend_registry_names(self):
        assert set(backend_names()) == {"cycle", "trace", "replay"}
        assert DEFAULT_BACKEND == "cycle"
        with pytest.raises(KeyError, match="unknown execution backend"):
            get_backend("emulate")

    def test_resolve_name_builds_program(self):
        source = resolve_workload("dispatch", scale=0.2)
        assert source.program is not None and source.trace_path is None

    def test_resolve_program_and_source_pass_through(self, micro_program):
        source = resolve_workload(micro_program)
        assert source.program is micro_program
        assert resolve_workload(source) is source

    def test_resolve_npz_path_is_trace(self, micro_npz):
        source = resolve_workload(str(micro_npz))
        assert source.trace_path == str(micro_npz)
        assert source.program is None
        assert source.name == "counted_loops"

    def test_unknown_workload_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("solitaire")
        assert "counted_loops" in workload_names()

    def test_cycle_backend_rejects_stored_trace(self, micro_npz):
        source = WorkloadSource(name="t", trace_path=micro_npz)
        with pytest.raises(ValueError, match="needs a Program"):
            get_backend("cycle").run(
                presets.build("b2"), source, RunLimits(max_instructions=1000)
            )


# ----------------------------------------------------------------------
# Bit-identity of the trace-driven backends
# ----------------------------------------------------------------------
class _HonestPhantom(injected_bug.PhantomPhase):
    """The injected-bug component, declaring that it learns on branchless
    packets."""

    branchless_inert = False


#: Engine-eligible override chains with non-monotone latencies: they reach
#: the evaluation plan's fall-through ``predict_in`` and its multi-stage
#: merges, which the presets do not.
OVERRIDE_CHAINS = ("BIM1 > BTB3", "UBTB1 > BIM2", "BTB2 > BIM3 > UBTB1")


def build_design(design):
    """A preset by name, or an engine-eligible composition by notation."""
    if design in presets.PRESET_NAMES:
        return presets.build(design)
    predictor = compose(design, standard_library(), ComposerConfig())
    assert engine_for(predictor) is not None
    return predictor


def walk_counts(walk):
    """A :class:`WalkCounts` in :func:`counts` order."""
    return (walk.branches, walk.mispredicts, walk.instructions)


def reference_counts(predictor, program):
    """The reference commit-order walk's counts over ``BUDGET``."""
    return walk_counts(reference_walk(predictor, program, BUDGET))


def phantom_library(phantom_cls):
    library = standard_library()
    library.register("PHANTOM", phantom_cls)
    return library


class TestBitIdentity:
    @pytest.mark.parametrize("design", presets.PRESET_NAMES + OVERRIDE_CHAINS)
    def test_replay_matches_trace_per_preset(
        self, design, micro_program, micro_npz
    ):
        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        stored = WorkloadSource(name="m", trace_path=micro_npz)
        t = get_backend("trace").run(build_design(design), live, limits)
        r = get_backend("replay").run(build_design(design), stored, limits)
        reference = reference_counts(build_design(design), micro_program)
        assert counts(t) == counts(r) == reference
        assert t.branches > 0 and t.branch_mispredicts > 0
        assert t.backend == "trace" and r.backend == "replay"

    def test_trace_backend_rejects_stored_trace(self, micro_npz):
        source = WorkloadSource(name="t", trace_path=micro_npz)
        with pytest.raises(ValueError, match="needs a Program"):
            get_backend("trace").run(
                presets.build("b2"), source, RunLimits(max_instructions=1000)
            )

    @pytest.mark.parametrize("design", ["tage_l", "honest-phantom"])
    def test_trace_telemetry_equals_the_reference_walk(
        self, design, micro_program, tmp_path
    ):
        """Telemetry turns the skip and the engine off: the ``trace``
        backend's summary and JSONL event lines then equal those of the
        reference walk with the same collector, event for event."""
        from repro.frontend.config import CoreConfig
        from repro.telemetry import EventTrace, TelemetryCollector

        def build():
            if design == "tage_l":
                return presets.build("tage_l")
            library = phantom_library(_HonestPhantom)
            return compose(injected_bug.INJECTED_TOPOLOGY, library, ComposerConfig())

        assert build().branchless_inert is (design == "tage_l")
        live = WorkloadSource(name="m", program=micro_program)
        limits = RunLimits(max_instructions=BUDGET)
        backend = get_backend("trace")
        plain = backend.run(
            build(), live, limits, core_config=CoreConfig(telemetry=True)
        )
        event_trace = EventTrace(tmp_path / "trace.jsonl")
        traced = backend.run(build(), live, limits, trace=event_trace)
        event_trace.close()

        def reference(trace):
            predictor = build()
            collector = TelemetryCollector(trace=trace)
            predictor.attach_telemetry(collector)
            walk = reference_walk(predictor, micro_program, BUDGET)
            summary = collector.summary()
            predictor.detach_telemetry()
            return walk_counts(walk), summary

        ref_counts, ref_summary = reference(None)
        assert counts(plain) == ref_counts
        assert plain.telemetry == ref_summary
        event_trace = EventTrace(tmp_path / "reference.jsonl")
        ref_counts, ref_summary = reference(event_trace)
        event_trace.close()
        assert counts(traced) == ref_counts
        assert traced.telemetry == ref_summary
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) > 1
        assert lines == (tmp_path / "reference.jsonl").read_text().splitlines()

    def test_columnar_walker_matches_stream_walkers(self, micro_program):
        """drive_columns == drive_stream, with the skip on or off."""
        from repro.telemetry import TelemetryCollector

        trace = capture_trace(micro_program, max_instructions=BUDGET)
        walked = {}
        queried = {}
        for label in ("skip", "full", "stream"):
            predictor = presets.build("b2")
            width = predictor.config.fetch_width
            if label == "stream":
                w = reference_walk(predictor, micro_program, BUDGET)
            else:
                if label == "full":
                    # A collector counts every packet: the skip turns off.
                    predictor.attach_telemetry(TelemetryCollector())
                w = drive_columns(
                    predictor, trace, trace_packets(trace, width), BUDGET
                )
            walked[label] = (w.instructions, w.branches, w.mispredicts)
            queried[label] = predictor.stats.predictions
        assert walked["skip"] == walked["full"] == walked["stream"]
        # The full walk queried every packet, the skipping walk fewer.
        assert queried["full"] == queried["stream"] > queried["skip"]

    def test_stale_history_window_gates_the_skip(self, micro_program):
        """``no_replay`` repair keeps post-mispredict queries exact."""
        trace = capture_trace(micro_program, max_instructions=BUDGET)
        results = []
        for use_columns in (True, False):
            predictor = presets.build("b2", ghist_repair_mode="no_replay")
            width = predictor.config.fetch_width
            if use_columns:
                w = drive_columns(
                    predictor, trace, trace_packets(trace, width), BUDGET
                )
            else:
                w = reference_walk(predictor, micro_program, BUDGET)
            results.append(
                (w.instructions, w.branches, w.mispredicts,
                 predictor.stats.stale_history_queries)
            )
        assert results[0] == results[1]
        assert results[0][3] > 0  # the window was actually exercised

    def test_telemetry_forces_the_fallback_walker_and_matches(
        self, micro_program, micro_npz
    ):
        """An attached collector turns the skip off (every packet is
        walked), and the counts stay those of the skipping walk."""
        limits = RunLimits(max_instructions=BUDGET)
        stored = WorkloadSource(name="m", trace_path=micro_npz)
        bare = get_backend("replay").run(
            presets.build("b2"), stored, limits
        )
        from repro.frontend.config import CoreConfig

        with_tel = get_backend("replay").run(
            presets.build("b2"),
            stored,
            limits,
            core_config=CoreConfig(telemetry=True),
        )
        assert counts(bare) == counts(with_tel)
        assert with_tel.telemetry is not None and bare.telemetry is None

    def test_non_inert_component_replays_with_trace_counts(
        self, micro_program, micro_npz
    ):
        """A component that learns on branchless packets and says so is
        walked on every packet: the ``trace`` backend and a stored
        ``.npz`` replay both reach the reference walk's counts.  The same
        component lying about inertness gets its branchless packets
        skipped by both backends and diverges from the reference."""
        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        stored = WorkloadSource(name="m", trace_path=micro_npz)

        def walks(phantom_cls):
            library = phantom_library(phantom_cls)

            def build():
                return compose(
                    injected_bug.INJECTED_TOPOLOGY, library, ComposerConfig()
                )

            assert build().branchless_inert is phantom_cls.branchless_inert
            t = get_backend("trace").run(build(), live, limits)
            r = get_backend("replay").run(build(), stored, limits)
            return reference_counts(build(), micro_program), counts(t), counts(r)

        honest_ref, honest_trace, honest_replay = walks(_HonestPhantom)
        assert honest_trace == honest_replay == honest_ref
        lying_ref, lying_trace, lying_replay = walks(injected_bug.PhantomPhase)
        assert lying_ref == honest_ref
        assert lying_trace == lying_replay != lying_ref

    def test_scalar_pipeline_replay_matches_trace(self, micro_program):
        """fetch_width=1: the backend-overhead benchmark configuration."""
        def scalar_bimodal():
            library = standard_library(
                fetch_width=1, global_history_bits=16, gtag_history_bits=16
            )
            return compose(
                "BIM2",
                library,
                ComposerConfig(fetch_width=1, global_history_bits=16),
            )

        limits = RunLimits(max_instructions=BUDGET)
        live = WorkloadSource(name="m", program=micro_program)
        trace = capture_trace(micro_program, max_instructions=BUDGET)
        t = get_backend("trace").run(scalar_bimodal(), live, limits)
        predictor = scalar_bimodal()
        w = drive_columns(predictor, trace, trace_packets(trace, 1), BUDGET)
        assert counts(t) == (w.branches, w.mispredicts, w.instructions)


# ----------------------------------------------------------------------
# Capture -> save -> load -> replay round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_replay_across_processes(self, micro_program, micro_npz):
        reference = get_backend("trace").run(
            presets.build("tage_l"),
            WorkloadSource(name="m", program=micro_program),
            RunLimits(max_instructions=BUDGET),
        )
        script = (
            "from repro.eval.runner import run_workload\n"
            f"r = run_workload('tage_l', {str(micro_npz)!r}, "
            f"max_instructions={BUDGET}, backend='replay')\n"
            "print(r.branches, r.branch_mispredicts, r.instructions)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(map(int, proc.stdout.split())) == counts(reference)

    def test_schema1_trace_loads_but_cannot_replay(self, tmp_path):
        legacy = BranchTrace(
            pcs=np.array([4, 9], dtype=np.int64),
            types=np.zeros(2, dtype=np.uint8),
            taken=np.array([True, False]),
            targets=np.array([9, 10], dtype=np.int64),
            instruction_count=12,
        )
        path = tmp_path / "legacy.npz"
        legacy.save(path)
        loaded = BranchTrace.load(path)
        assert not loaded.replayable
        assert loaded.characterize()["branches"] == 2.0
        with pytest.raises(ValueError, match="schema-1"):
            get_backend("replay").run(
                presets.build("b2"),
                WorkloadSource(name="legacy", trace_path=path),
                RunLimits(max_instructions=12),
            )

    def test_truncated_trace_is_rejected(self, micro_npz, tmp_path):
        # A trace cut short (an interrupted copy or capture) must fail
        # loudly, never replay whatever columns survived.
        data = micro_npz.read_bytes()
        path = tmp_path / "truncated.npz"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(zipfile.BadZipFile):
            BranchTrace.load(path)
        with pytest.raises(zipfile.BadZipFile):
            get_backend("replay").run(
                presets.build("b2"),
                WorkloadSource(name="truncated", trace_path=path),
                RunLimits(max_instructions=BUDGET),
            )

    def test_mismatched_columns_are_rejected(self, micro_npz):
        trace = BranchTrace.load(micro_npz)
        half = len(trace) // 2
        with pytest.raises(ValueError, match="pcs=.*types="):
            BranchTrace(
                pcs=trace.pcs[:half],
                types=trace.types,
                taken=trace.taken,
                targets=trace.targets,
            )
        with pytest.raises(ValueError, match="slot_kinds=.*slot_targets="):
            BranchTrace(
                pcs=trace.pcs,
                types=trace.types,
                taken=trace.taken,
                targets=trace.targets,
                slot_kinds=trace.slot_kinds,
                slot_targets=trace.slot_targets[:-1],
            )

    def test_load_rejects_a_cut_column(self, micro_npz, tmp_path):
        # A saved trace whose pcs column was cut short used to replay
        # silently over the shorter column.
        with np.load(micro_npz) as data:
            columns = {name: data[name] for name in data.files}
        columns["pcs"] = columns["pcs"][: len(columns["pcs"]) // 2]
        path = tmp_path / "cut.npz"
        np.savez_compressed(path, **columns)
        with pytest.raises(ValueError, match="pcs="):
            BranchTrace.load(path)

    def test_run_workload_replay_equals_trace(self, micro_program, micro_npz):
        t = run_workload(
            "b2", micro_program, max_instructions=BUDGET, backend="trace"
        )
        r = run_workload(
            "b2", str(micro_npz), max_instructions=BUDGET, backend="replay"
        )
        reference = reference_counts(presets.build("b2"), micro_program)
        assert counts(t) == counts(r) == reference
        assert (t.cycles, t.ipc, t.flushes) == (0, 0.0, 0)


# ----------------------------------------------------------------------
# Metrics semantics
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Batch-kernel segment engine: cut edge cases
# ----------------------------------------------------------------------
class _NotTakenKernel:
    """Columnar twin of :class:`_NotTaken` (always predicts not-taken)."""

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        out = state.copy()
        sel = ctx.lane_valid & ~out.is_jump
        out.hit = out.hit | sel
        out.taken = np.where(sel, False, out.taken)
        return out

    def mutates(self, ctx):
        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        pass


class _NotTaken(PredictorComponent):
    """Stateless always-not-taken: every taken branch mispredicts."""

    def lookup(self, req, predict_in):
        out = predict_in[0].copy()
        for slot in out.slots:
            if slot.is_jump:
                continue
            slot.hit = True
            slot.taken = False
        return out, 0

    def storage(self):
        return StorageReport(self.name, sram_bits=0)

    def columnar_kernel(self):
        return _NotTakenKernel(self)


class TestKernelSegmentEdges:
    def test_zero_length_segment_when_first_packet_mispredicts(
        self, micro_program
    ):
        """An attempt whose first packet is impure accepts nothing and has
        no side effects — the driver walks that packet scalar instead."""
        trace = capture_trace(
            build_micro("steady_loop", scale=0.2), max_instructions=BUDGET
        )
        predictor = presets.build("b2")
        engine = engine_for(predictor)
        assert engine is not None
        cols = TraceColumns.from_trace(trace)
        bi, pc, remaining = 0, trace.entry_pc, BUDGET
        seg = engine.run(cols, pc, bi, min(64, cols.n_records), remaining)
        guard = 0
        while seg.packets and not seg.impure_next and guard < 100:
            bi += seg.records
            pc = seg.next_pc
            remaining -= seg.instructions
            seg = engine.run(
                cols, pc, bi, min(64, cols.n_records - bi), remaining
            )
            guard += 1
        # The engine stopped right before a known-impure packet (a cold
        # bimodal mispredicts steady_loop's first taken back-edge).
        assert seg.impure_next
        if seg.packets:
            bi += seg.records
            pc = seg.next_pc
            remaining -= seg.instructions
        before = predictor.stats.predictions
        again = engine.run(cols, pc, bi, min(64, cols.n_records - bi), remaining)
        assert (again.packets, again.records, again.instructions) == (0, 0, 0)
        assert again.branches == 0
        assert again.impure_next
        # A zero-accept attempt must not move any counter or table.
        assert predictor.stats.predictions == before

    @pytest.mark.parametrize("window", [1, 2, 3, 8])
    def test_segment_against_no_replay_window_boundary(self, window):
        """Stale no-replay windows gate the engine; for every corruption
        window length the kernel walk, the scalar columnar walk, and the
        full stream walk agree bit for bit — including segments that end
        exactly where a window opens or closes."""
        program = build_micro("counted_loops", scale=0.2)
        trace = capture_trace(program, max_instructions=BUDGET)
        sigs = []
        stale = []
        for mode in ("kernel", "scalar", "stream"):
            predictor = presets.build(
                "b2",
                ghist_repair_mode="no_replay",
                ghist_corruption_window=window,
            )
            width = predictor.config.fetch_width
            if mode == "stream":
                w = reference_walk(predictor, program, BUDGET)
            else:
                engine = engine_for(predictor) if mode == "kernel" else None
                w = drive_columns(
                    predictor,
                    trace,
                    trace_packets(trace, width),
                    BUDGET,
                    engine=engine,
                )
            sigs.append((w.instructions, w.branches, w.mispredicts))
            stale.append(predictor.stats.stale_history_queries)
        assert sigs[0] == sigs[1] == sigs[2], f"window={window}"
        assert stale[0] == stale[1] == stale[2], f"window={window}"
        assert stale[0] > 0

    def test_all_mispredicts_degrade_to_scalar_without_double_counting(self):
        """When (nearly) every branch mispredicts, every attempt cuts at
        its first packet; the driver must fall back to the scalar walk
        with identical instruction/branch/mispredict accounting."""
        trace = capture_trace(
            build_micro("steady_loop", scale=0.2), max_instructions=BUDGET
        )

        def build():
            library = standard_library().with_params(
                "NT", lambda name, lat: _NotTaken(name, lat)
            )
            return compose("NT2", library, ComposerConfig())

        results = []
        for use_engine in (True, False):
            predictor = build()
            engine = engine_for(predictor) if use_engine else None
            if use_engine:
                assert engine is not None
            packets = trace_packets(trace, predictor.config.fetch_width)
            w = drive_columns(predictor, trace, packets, BUDGET, engine=engine)
            results.append((w.instructions, w.branches, w.mispredicts))
        assert results[0] == results[1]
        instructions, branches, mispredicts = results[0]
        assert branches > 0
        # steady_loop back-edges are taken: an always-not-taken payload
        # mispredicts nearly everything.
        assert mispredicts >= 0.9 * branches
        assert instructions <= BUDGET


def table_state(predictor):
    """Every component's arrays and managed counters, by (name, field)."""
    state = {}
    for component in predictor.components:
        for field, value in vars(component).items():
            if isinstance(value, np.ndarray):
                state[component.name, field] = value.copy()
            elif field.startswith("_") and type(value) is int:
                state[component.name, field] = value
    return state


class TestEngineCommits:
    """A wrong commit-time write can sit unseen in the counts until a
    later read, so the engine must leave every table exactly as the
    scalar walk does."""

    @pytest.mark.parametrize("design", ["tage_l", "b2", "GAP3 > BTB2 > BIM2"])
    def test_engine_leaves_the_scalar_walks_tables(self, design):
        trace = capture_trace(
            build_micro("counted_loops", scale=0.2), max_instructions=BUDGET
        )
        states = []
        accepted = []
        for use_engine in (True, False):
            predictor = build_design(design)
            engine = engine_for(predictor) if use_engine else None
            if engine is not None:
                run = engine.run

                def counting_run(*args):
                    seg = run(*args)
                    accepted.append(seg.records)
                    return seg

                engine.run = counting_run
            packets = trace_packets(trace, predictor.config.fetch_width)
            drive_columns(predictor, trace, packets, BUDGET, engine=engine)
            states.append(table_state(predictor))
        assert sum(accepted) > 0
        with_engine, scalar = states
        assert with_engine.keys() == scalar.keys()
        differ = [
            key for key in scalar if not np.array_equal(with_engine[key], scalar[key])
        ]
        assert not differ, f"tables differ after engine commits: {differ}"
        expected = {
            "tage_l": [
                ("tage", "_all_ctrs"),
                ("tage", "_all_useful"),
                ("tage", "_use_alt_on_na"),
                ("tage", "_update_count"),
                ("ubtb", "_ctrs"),
                ("btb", "_targets"),
                ("btb", "_slot_valid"),
                ("loop", "_trip"),
                ("bim", "_table"),
            ],
            "b2": [
                ("gtag", "_ctrs"),
                ("btb", "_tags"),
                ("btb", "_replace_ptr"),
                ("bim", "_table"),
            ],
        }.get(design, [("gap", "_l2")])
        assert set(expected) <= scalar.keys()


class TestEngageRule:
    """``drive_columns`` must hand sparse traces to the engine and back
    off on dense ones.  Bit-identity holds either way, so only these
    counts fail when it stops calling the engine or never backs off."""

    @staticmethod
    def engine_attempts(workload):
        """(branch records, engine attempts, records the engine committed)."""
        trace = capture_trace(build_micro(workload, scale=0.5))
        predictor = presets.build("tage_l")
        engine = engine_for(predictor)
        assert engine is not None
        accepted = []
        run = engine.run

        def counting_run(*args):
            seg = run(*args)
            accepted.append(seg.records)
            return seg

        engine.run = counting_run
        packets = trace_packets(trace, predictor.config.fetch_width)
        drive_columns(predictor, trace, packets, engine=engine)
        return len(trace), len(accepted), sum(accepted)

    def test_engine_commits_most_of_a_sparse_trace(self):
        records, _, accepted = self.engine_attempts("counted_loops")
        assert accepted >= 0.5 * records

    def test_engine_backs_off_on_a_dense_trace(self):
        records, attempts, _ = self.engine_attempts("random")
        assert 0 < attempts <= records / 50


class TestMetrics:
    def test_counts_result_rates_handle_zero_denominators(self):
        empty = counts_result("b2", "m", WalkCounts(0, 0, 0), "trace")
        assert empty.mpki == 0.0
        assert empty.branch_accuracy == 1.0

    def test_counts_result_mpki_uses_instructions(self, micro_program):
        r = run_workload(
            "b2", micro_program, max_instructions=BUDGET, backend="trace"
        )
        assert r.mpki == pytest.approx(
            1000.0 * r.branch_mispredicts / r.instructions
        )

    def test_trace_backend_applies_default_budget(self):
        # A 6-instruction program halts long before the default cap.
        program = build_micro("steady_loop", scale=0.1)
        backend = TraceBackend("trace")
        result = backend.run(
            presets.build("b2"),
            WorkloadSource(name="m", program=program),
            RunLimits(),
        )
        assert 0 < result.instructions <= 1_000_000


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_trace_capture_then_replay(self, tmp_path, capsys):
        npz = tmp_path / "dispatch.npz"
        rc = cli.main(
            ["trace", "capture", "--workload", "dispatch", "--scale", "0.2",
             "--out", str(npz), "--max-instructions", str(BUDGET)]
        )
        assert rc == 0 and npz.exists()
        capture_out = capsys.readouterr().out
        assert "captured" in capture_out

        rc = cli.main(
            ["trace", "replay", str(npz), "--predictor", "b2",
             "--max-instructions", str(BUDGET)]
        )
        assert rc == 0
        replay_out = capsys.readouterr().out
        assert "backend: replay" in replay_out

    def test_run_backend_flag_reproduces_counts(self, tmp_path, capsys):
        npz = tmp_path / "m.npz"
        rc = cli.main(
            ["trace", "capture", "--workload", "counted_loops", "--scale",
             "0.2", "--out", str(npz), "--max-instructions", str(BUDGET)]
        )
        assert rc == 0
        capsys.readouterr()

        outputs = {}
        for backend, workload in (
            ("trace", "counted_loops"),
            ("replay", str(npz)),
        ):
            rc = cli.main(
                ["run", "--predictor", "b2", "--workload", workload,
                 "--scale", "0.2", "--backend", backend,
                 "--max-instructions", str(BUDGET)]
            )
            assert rc == 0
            outputs[backend] = capsys.readouterr().out
            assert f"backend: {backend}" in outputs[backend]

        def extract(text, field):
            for token in text.split():
                if token.startswith(field + "="):
                    return int(token.split("=")[1])
            raise AssertionError(f"{field} not in output")

        for field in ("branches", "mispredicts"):
            assert extract(outputs["trace"], field) == extract(
                outputs["replay"], field
            )

    def test_capture_refuses_trace_input(self, tmp_path, capsys):
        npz = tmp_path / "x.npz"
        capture_trace(
            build_micro("dispatch", scale=0.2), max_instructions=1000
        ).save(npz)
        rc = cli.main(
            ["trace", "capture", "--workload", str(npz), "--out",
             str(tmp_path / "y.npz")]
        )
        assert rc == 2
        assert "already a stored trace" in capsys.readouterr().err
