"""Tests for the tooling layer: site profiler, RTL skeletons, and the
instruction-cache model."""

import pytest

from repro import presets
from repro.eval import coverage, format_profile, top_offenders
from repro.frontend import Core, CoreConfig
from repro.frontend.caches import InstructionCacheModel
from repro.frontend.config import ICacheConfig
from repro.isa import ProgramBuilder
from repro.rtl import generate_verilog_skeleton
from repro.workloads import build_specint


def hard_branch_program(n=120):
    """One easy loop branch + one LCG-driven hard branch."""
    b = ProgramBuilder("prof")
    b.li(1, 0)
    b.li(2, n)
    b.li(7, 4242)
    b.li(8, 6364136223846793005)
    b.li(9, 35)
    b.label("top")
    b.mul(7, 7, 8)
    b.addi(7, 7, 1)
    b.shr(3, 7, 9)
    b.andi(3, 3, 1)
    b.beq(3, 0, "skip")     # hard branch (pc varies per build; find below)
    b.addi(4, 4, 1)
    b.label("skip")
    b.addi(1, 1, 1)
    b.blt(1, 2, "top")      # easy branch
    b.halt()
    return b.build()


class TestProfiler:
    @pytest.fixture(scope="class")
    def run(self):
        program = hard_branch_program()
        core = Core(program, presets.build("tage_l"), CoreConfig())
        stats = core.run()
        return program, stats

    def test_top_offender_is_the_hard_branch(self, run):
        program, stats = run
        offenders = top_offenders(stats, program, limit=3)
        assert offenders
        worst = offenders[0]
        assert "beq" in worst.instruction
        assert worst.mispredicts > 20
        assert 0 < worst.mispredict_rate <= 1

    def test_coverage_concentrated(self, run):
        _, stats = run
        assert coverage(stats, top_n=1) > 0.8  # one branch dominates

    def test_format_profile_renders(self, run):
        program, stats = run
        text = format_profile(stats, program)
        assert "coverage" in text and "beq" in text

    def test_execution_counts_tracked(self, run):
        _, stats = run
        assert sum(stats.executions_by_pc.values()) == stats.committed_branches

    def test_empty_profile(self):
        from repro.frontend.core import CoreStats

        assert format_profile(CoreStats()) == "(no mispredicts recorded)"


class TestVerilogSkeleton:
    def test_contains_every_component_module(self):
        text = generate_verilog_skeleton(presets.tage_l())
        for name in ("ubtb", "bim", "btb", "tage", "loop"):
            assert f"module {name}_unit" in text
        assert "module cobra_predictor_top" in text

    def test_event_ports_present(self):
        text = generate_verilog_skeleton(presets.b2())
        for port in ("fire_valid", "mispredict_valid", "repair_valid",
                     "update_valid"):
            assert port in text

    def test_meta_width_matches_declaration(self):
        predictor = presets.b2()
        text = generate_verilog_skeleton(predictor)
        gtag = next(c for c in predictor.components if c.name == "gtag")
        assert f"[{gtag.meta_bits - 1}:0] meta_out" in text

    def test_history_ports_only_where_used(self):
        text = generate_verilog_skeleton(presets.tourney())
        # The lhist port appears in lbim's module, not in gbim's.
        gbim_module = text.split("module gbim_unit")[1].split("endmodule")[0]
        lbim_module = text.split("module lbim_unit")[1].split("endmodule")[0]
        assert "lhist" in lbim_module
        assert "lhist" not in gbim_module
        assert "ghist" in gbim_module

    def test_arbitration_noted(self):
        text = generate_verilog_skeleton(presets.tourney())
        assert "arbitration: tourney selects" in text

    def test_one_module_per_component_and_table_plus_top(self):
        predictor = presets.tage_l()
        text = generate_verilog_skeleton(predictor)
        tables = sum(
            len(c.spec.tables) if c.spec is not None else 0
            for c in predictor.components
        )
        expected = len(predictor.components) + tables + 1
        assert text.count("endmodule") == expected

    def test_table_modules_instantiated_in_unit(self):
        predictor = presets.b2()
        text = generate_verilog_skeleton(predictor)
        gtag_module = text.split("module gtag_unit")[1].split("endmodule")[0]
        assert "gtag_counters_table u_counters" in gtag_module
        assert "gtag_tags_table u_tags" in gtag_module
        # The table module itself carries the declared closed forms.
        counters = text.split("module gtag_counters_table")[1].split(
            "endmodule"
        )[0]
        assert "reg [7:0] mem [0:511];" in counters
        assert "function [1:0] ctr_next;" in counters


class TestInstructionCache:
    def test_cold_miss_then_hit(self):
        icache = InstructionCacheModel(n_sets=4, n_ways=2, miss_penalty=10)
        assert icache.fetch_penalty(0) == 10
        assert icache.fetch_penalty(0) == 0
        assert icache.stats.misses == 1

    def test_prefetch_hides_sequential_miss(self):
        icache = InstructionCacheModel(n_sets=16, n_ways=2, line_words=8)
        icache.fetch_penalty(0)            # miss + prefetch line 1
        assert icache.fetch_penalty(8) == 0  # next line already present

    def test_no_prefetch_variant(self):
        icache = InstructionCacheModel(
            n_sets=16, n_ways=2, line_words=8, prefetch_next_line=False
        )
        icache.fetch_penalty(0)
        assert icache.fetch_penalty(8) > 0

    def test_core_counts_icache_stalls_on_large_footprint(self):
        # A program whose code footprint exceeds a tiny icache.
        b = ProgramBuilder("big")
        b.li(1, 0)
        b.li(2, 4)
        b.label("top")
        for i in range(200):
            b.addi(3, 3, 1)
        b.addi(1, 1, 1)
        b.blt(1, 2, "top")
        b.halt()
        config = CoreConfig(
            icache=ICacheConfig(enabled=True, n_sets=2, n_ways=1,
                                line_words=8, prefetch_next_line=False)
        )
        core = Core(b.build(), presets.build("b2"), config)
        stats = core.run()
        assert stats.icache_stall_cycles > 0

    def test_ideal_icache_configurable(self):
        config = CoreConfig(icache=ICacheConfig(enabled=False))
        program = build_specint("xz", scale=0.05)
        core = Core(program, presets.build("b2"), config)
        stats = core.run()
        assert stats.icache_stall_cycles == 0
