"""Tests for the extension features: path history, the energy model,
branch-trace capture, and the command-line interface."""

import numpy as np
import pytest

from repro import presets
from repro.cli import main as cli_main
from repro.components.library import standard_library
from repro.core import ComposerConfig, PreDecodedSlot, compose
from repro.core.history import PathHistoryProvider
from repro.eval import run_workload
from repro.synthesis import EnergyModel
from repro.workloads import build_specint, capture_trace
from repro.workloads.traces import BranchTrace, TYPE_COND, TYPE_CALL
from repro.isa import ProgramBuilder


class TestPathHistoryProvider:
    def test_folds_taken_targets(self):
        path = PathHistoryProvider(history_bits=16, pc_bits=4)
        path.speculate_taken(0b1011)
        path.speculate_taken(0b0110)
        assert path.read() == 0b1011_0110

    def test_not_affected_by_other_bits(self):
        path = PathHistoryProvider(history_bits=8, pc_bits=4)
        path.speculate_taken(0xF3)
        assert path.read() == 0x3

    def test_restore(self):
        path = PathHistoryProvider(history_bits=16)
        path.speculate_taken(5)
        snap = path.read()
        path.speculate_taken(9)
        path.restore(snap)
        assert path.read() == snap

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            PathHistoryProvider(history_bits=0)


class TestPathHistoryComposition:
    def _pshare(self):
        library = standard_library(global_history_bits=32)
        return compose("PSHARE2 > BTB2", library,
                       ComposerConfig(global_history_bits=32))

    def test_pshare_component_declares_usage(self):
        pred = self._pshare()
        assert any(getattr(c, "uses_path_history", False) for c in pred.components)
        assert pred._path is not None

    def test_path_history_advances_on_taken_cfi(self):
        pred = self._pshare()
        jal = PreDecodedSlot(is_jal=True, direct_target=20)
        result = pred.predict(0, [jal] + [PreDecodedSlot()] * 3)
        assert pred._path.read() != 0
        pred.commit_packet(result.ftq_id)

    def test_path_history_repaired_on_mispredict(self):
        pred = self._pshare()
        br = PreDecodedSlot(is_cond_branch=True, direct_target=40)
        result = pred.predict(0, [br] + [PreDecodedSlot()] * 3)
        snapshot = pred.history_file.get(result.ftq_id).phist_snapshot
        predicted = result.final.slots[0].taken
        # Pollute with younger packets then mispredict.
        pred.predict(4, [PreDecodedSlot()] * 4)
        pred.resolve_mispredict(result.ftq_id, 0, not predicted,
                                40 if not predicted else None)
        expected = snapshot
        if not predicted:  # corrected to taken: fold the target
            probe = PathHistoryProvider(pred._path.history_bits,
                                        pred._path.pc_bits)
            probe.restore(snapshot)
            probe.speculate_taken(40)
            expected = probe.read()
        assert pred._path.read() == expected

    def test_pshare_runs_end_to_end(self):
        program = build_specint("xz", scale=0.15)
        result = run_workload(self._pshare(), program, system_name="pshare")
        assert result.instructions > 0

    def test_b2_has_no_path_provider(self):
        assert presets.b2()._path is None


class TestEnergyModel:
    def test_energy_accumulates_with_activity(self):
        program = build_specint("xz", scale=0.15)
        predictor = presets.build("b2")
        model = EnergyModel()
        assert model.total_energy(predictor) == 0.0
        run_workload(predictor, program)
        assert model.total_energy(predictor) > 0.0

    def test_big_design_costs_more(self):
        program = build_specint("xz", scale=0.15)
        energies = {}
        for name in ("b2", "tage_l"):
            predictor = presets.build(name)
            result = run_workload(predictor, program)
            energies[name] = EnergyModel().energy_per_instruction(
                predictor, result.instructions
            )
        assert energies["tage_l"] > energies["b2"]

    def test_meta_energy_counted(self):
        program = build_specint("xz", scale=0.1)
        predictor = presets.build("b2")
        run_workload(predictor, program)
        components = EnergyModel().component_energy(predictor)
        assert components["meta"] > 0

    def test_epi_requires_instructions(self):
        with pytest.raises(ValueError):
            EnergyModel().energy_per_instruction(presets.build("b2"), 0)


class TestTraces:
    def _program(self):
        b = ProgramBuilder("t")
        b.li(1, 0)
        b.li(2, 10)
        b.label("top")
        b.call("leaf")
        b.addi(1, 1, 1)
        b.blt(1, 2, "top")
        b.halt()
        b.label("leaf")
        b.ret()
        return b.build()

    def test_capture_counts_transfers(self):
        trace = capture_trace(self._program())
        cond = (trace.types == TYPE_COND).sum()
        calls = (trace.types == TYPE_CALL).sum()
        assert cond == 10
        assert calls == 10
        assert trace.instruction_count > 0

    def test_taken_flags(self):
        trace = capture_trace(self._program())
        cond_taken = trace.taken[trace.types == TYPE_COND]
        assert cond_taken.sum() == 9  # last back-edge falls through

    def test_save_load_roundtrip(self, tmp_path):
        trace = capture_trace(self._program())
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = BranchTrace.load(path)
        assert np.array_equal(loaded.pcs, trace.pcs)
        assert np.array_equal(loaded.taken, trace.taken)
        assert loaded.instruction_count == trace.instruction_count

    def test_characterization_fields(self):
        stats = capture_trace(self._program()).characterize()
        assert 0 < stats["branch_density"] < 1
        assert 0 <= stats["taken_rate"] <= 1
        assert stats["static_cond_sites"] == 1
        assert stats["call_ret_share"] > 0


class TestCli:
    def test_topology_command(self, capsys):
        assert cli_main(["topology", "GTAG3 > BTB2 > BIM2"]) == 0
        out = capsys.readouterr().out
        assert "depth:     3" in out
        assert "gtag" in out

    def test_storage_command(self, capsys):
        assert cli_main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "tage_l" in out and "KiB" in out

    def test_run_command(self, capsys):
        assert cli_main([
            "run", "--predictor", "b2", "--workload", "dhrystone",
            "--scale", "0.1", "--energy",
        ]) == 0
        out = capsys.readouterr().out
        assert "IPC=" in out and "pJ/instruction" in out

    def test_run_with_topology_string(self, capsys):
        assert cli_main([
            "run", "--predictor", "GSHARE2 > BTB2", "--workload", "xz",
            "--scale", "0.1",
        ]) == 0
        assert "IPC=" in capsys.readouterr().out

    def test_area_command(self, capsys):
        assert cli_main(["area", "--predictor", "tourney"]) == 0
        out = capsys.readouterr().out
        assert "share of core area" in out

    def test_sweep_command(self, capsys):
        assert cli_main([
            "sweep", "--predictors", "b2", "--workloads", "xz",
            "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "MPKI:" in out and "IPC:" in out

    def test_sweep_with_topology_string(self, capsys):
        assert cli_main([
            "sweep", "--predictors", "GTAG3 > BTB2 > BIM2",
            "--workloads", "biased", "--scale", "0.05", "--backend", "trace",
        ]) == 0
        assert "GTAG3 > BTB2 > BIM2" in capsys.readouterr().out
