"""Tests for :mod:`repro.derive`: spec-derived tables, kernels, and RTL.

Covers the derived-execution layer end to end: the
:class:`~repro.derive.tables.DerivedTable` runtime (allocation, row
selection, closed-form updates, packing), generated-kernel selection,
the frozen-reference twin equivalence gate (SPEC009, which the fuzz
``spec`` oracle also runs), the golden Verilog snapshots,
the LEGAL_SIZINGS drift guard, and the derivation-coverage gate.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from repro import presets
from repro._util import hash_pc, mask
from repro.analysis.contracts import _drive
from repro.analysis.spec_check import check_component_spec
from repro.components.bimodal import HBIM
from repro.components.library import standard_library
from repro.derive import (
    DERIVED_BASES,
    DerivedTable,
    assert_derived_coverage,
    derivation_problems,
    derived_kernel,
    derived_storage,
    kernel_is_derived,
    twin_dims,
    twin_pair,
)
from repro.derive.kernels import CandidateCounterKernel, LaneCounterKernel
from repro.derive.reference import ReferenceHBIM
from repro.rtl import generate_verilog_skeleton
from repro.spec import (
    LEGAL_SIZINGS,
    ComponentSpec,
    FieldSpec,
    IndexFn,
    TableSpec,
)

GOLDEN_RTL_DIR = Path("goldens") / "rtl"


def build(base, latency=2, **sizing):
    library = standard_library(**sizing)
    return library.factory(base)(base.lower(), latency)


def counter_table(
    entries=16, bits=2, count=4, ways=1, update="saturating-counter"
):
    return TableSpec(
        "t",
        entries=entries,
        fields=(FieldSpec("ctr", bits, count),),
        ways=ways,
        update=update,
        index=IndexFn("gshare", 4, history_bits=8, fetch_width=4),
    )


# ----------------------------------------------------------------------
# The DerivedTable runtime
# ----------------------------------------------------------------------
class TestDerivedTable:
    def test_field_dtypes_follow_declared_width(self):
        spec = TableSpec(
            "t",
            entries=8,
            fields=(
                FieldSpec("valid", 1),
                FieldSpec("ctr", 3),
                FieldSpec("target", 32),
            ),
            update="allocate-on-miss",
        )
        table = DerivedTable(spec)
        assert table.data("valid").dtype == np.bool_
        assert table.data("ctr").dtype == np.uint8
        assert table.data("target").dtype == np.int64

    def test_shapes_ways_and_lanes(self):
        laned = DerivedTable(counter_table(entries=16, count=4))
        assert laned.data().shape == (16, 4)
        multiway = DerivedTable(counter_table(entries=16, count=1, ways=2))
        assert multiway.data().shape == (2, 16)
        assert multiway.flat().shape == (32,)
        with pytest.raises(ValueError):
            multiway.lanes()

    def test_initial_value_and_reset_preserve_views(self):
        table = DerivedTable(counter_table(bits=2), init={"ctr": 1})
        view = table.lanes()
        assert (view == 1).all()
        table.train(3, True, lane=2)
        assert view[3, 2] == 2

    def test_row_evaluates_declared_index_fn(self):
        spec = counter_table()
        table = DerivedTable(spec)
        for pc, ghist in [(0x40, 0), (0x1234, 0xBEEF), (7, 0b1011)]:
            assert table.row(pc, ghist) == spec.index.compute(pc, ghist)

    def test_row_refuses_custom_scheme(self):
        spec = TableSpec(
            "t",
            entries=8,
            fields=(FieldSpec("ctr", 2),),
            index=IndexFn("custom", 3),
        )
        with pytest.raises(ValueError, match="no closed-form row"):
            DerivedTable(spec).row(0x40)

    def test_train_applies_saturating_rule(self):
        table = DerivedTable(counter_table(bits=2), init={"ctr": 1})
        assert table.train(5, True, lane=0) == 2
        assert table.train(5, True, lane=0) == 3
        assert table.train(5, True, lane=0) == 3  # saturates at 2^bits - 1
        assert table.train(5, False, lane=0) == 2
        # The metadata-carried counter overrides the cell read (§III-D).
        assert table.train(5, True, lane=0, counter=0) == 1
        assert table.lanes()[5, 0] == 1

    def test_train_refuses_non_counter_table(self):
        table = DerivedTable(counter_table(update="allocate-on-miss"))
        with pytest.raises(ValueError, match="not saturating-counter"):
            table.train(0, True, lane=0)

    def test_roll_applies_shift_register_rule(self):
        spec = TableSpec(
            "hist",
            entries=4,
            fields=(FieldSpec("h", 4),),
            update="shift-register",
        )
        table = DerivedTable(spec)
        assert table.roll(2, True) == 0b0001
        assert table.roll(2, False) == 0b0010
        assert table.roll(2, True) == 0b0101
        # ``current`` overrides the cell read (exact-event repair path).
        assert table.roll(2, True, current=0b1111) == 0b1111
        assert table.data()[2] == 0b1111

    def test_pack_unpack_roundtrip_lsb_first(self):
        spec = TableSpec(
            "t",
            entries=4,
            fields=(FieldSpec("valid", 1), FieldSpec("ctr", 2, 2)),
            update="allocate-on-miss",
        )
        table = DerivedTable(spec)
        table.data("valid")[1] = True
        table.data("ctr")[1] = (3, 2)
        packed = table.pack_entry(1)
        assert packed == 1 | (3 << 1) | (2 << 3)
        assert table.unpack_entry(packed) == {"valid": 1, "ctr": [3, 2]}
        assert table.entry_bits == 5

    def test_derived_storage_defaults_and_zero_keys(self):
        spec = ComponentSpec("T", tables=(counter_table(),))
        report = derived_storage("t2", spec)
        assert report.sram_bits == spec.tables[0].total_bits
        assert report.access_bits == spec.tables[0].entry_bits
        padded = derived_storage(
            "t2", spec, access_bits=10, zero_keys=("l1_histories",)
        )
        assert padded.access_bits == 10
        assert padded.breakdown["l1_histories"] == 0


# ----------------------------------------------------------------------
# Generated-kernel selection
# ----------------------------------------------------------------------
class TestDerivedKernelSelection:
    @pytest.mark.parametrize("base", ["BIM", "GBIM", "GSHARE", "GSELECT"])
    def test_packet_keyed_counters_get_lane_kernel(self, base):
        kernel = derived_kernel(build(base))
        assert isinstance(kernel, LaneCounterKernel)
        assert kernel.tags is None

    def test_gtag_gets_tag_gated_lane_kernel(self):
        kernel = derived_kernel(build("GTAG"))
        assert isinstance(kernel, LaneCounterKernel)
        assert kernel.tags is not None

    @pytest.mark.parametrize("base", ["GAG", "GAP"])
    def test_branch_keyed_counters_get_candidate_kernel(self, base):
        assert isinstance(derived_kernel(build(base)), CandidateCounterKernel)

    @pytest.mark.parametrize("base", ["LBIM", "PSHARE", "PAG", "PAP"])
    def test_local_and_path_history_schemes_stay_scalar(self, base):
        component = build(base)
        assert derived_kernel(component) is None
        assert kernel_is_derived(component) is None


# ----------------------------------------------------------------------
# Frozen-reference twins (the SPEC009 / fuzz-oracle machinery)
# ----------------------------------------------------------------------
class TestTwinEquivalence:
    @pytest.mark.parametrize("base", ["GSHARE", "GAP", "GTAG"])
    def test_derived_matches_reference_log(self, base):
        component = build(base)
        derived, reference = twin_pair(component)
        dims = twin_dims(derived)
        assert _drive(derived, 7, 64, dims=dims) == _drive(
            reference, 7, 64, dims=dims
        )

    def test_twin_dims_clamps_to_narrow_fetch_width(self):
        component = build("BIM", fetch_width=1, bim_sets=1024)
        assert component.fetch_width == 1
        assert twin_dims(component).fetch_width == 1

    def test_twin_pair_skips_subclasses(self):
        class Tweaked(HBIM):
            pass

        assert twin_pair(Tweaked("tweaked", 2)) is None

    def test_spec009_fires_on_behavioral_divergence(self, monkeypatch):
        monkeypatch.setattr(
            "repro.derive.reference.ReferenceHBIM.on_update",
            lambda self, bundle: None,
        )
        # Seed chosen so a trained counter crosses its taken threshold
        # inside the 96-step differential drive.
        diags = check_component_spec(build("GSHARE"), seed=2025)
        assert "SPEC009" in [d.code for d in diags]

    def test_spec009_clean_on_unmodified_component(self):
        assert check_component_spec(build("GSHARE")) == []


# ----------------------------------------------------------------------
# IndexFn closed-form edge cases
# ----------------------------------------------------------------------
class TestIndexFnEdgeCases:
    def test_ghist_raw_masks_history_then_index(self):
        # history wider than the index: only index_bits survive.
        fn = IndexFn("ghist_raw", 4, history_bits=10)
        assert fn.compute(0, ghist=0b1010110101) == 0b0101
        # history narrower than the index: the history mask dominates.
        fn = IndexFn("ghist_raw", 6, history_bits=3)
        assert fn.compute(0, ghist=0b101101) == 0b101
        # the PC never enters the raw-history form.
        assert fn.compute(0xDEAD, ghist=0b101101) == 0b101

    def test_packet_key_divides_pc_by_fetch_width(self):
        # pc=36: hash_pc(36, 4) = (36 ^ 2 ^ 0) & 15 = 6
        assert IndexFn("pc", 4, key="branch_pc").compute(36) == 6
        # packet key at width 4 hashes the packet number 36 // 4 = 9.
        assert IndexFn("pc", 4, key="packet", fetch_width=4).compute(36) == 9
        # width 1: packet number == pc, so the two keys coincide.
        assert IndexFn("pc", 4, key="packet", fetch_width=1).compute(36) == 6

    def test_packet_key_maps_whole_packet_to_one_row(self):
        packet = IndexFn("pc", 4, key="packet", fetch_width=4)
        assert {packet.compute(pc) for pc in range(36, 40)} == {9}
        branch = IndexFn("pc", 4, key="branch_pc", fetch_width=4)
        assert branch.compute(36) != branch.compute(37)

    def test_gselect_partitions_index_bits(self):
        # odd width: history gets the floor half, the PC the rest.
        fn = IndexFn("gselect", 5, history_bits=8, fetch_width=1)
        # pc=5: hash_pc(5, 3) = 5; ghist & 3 = 2 → (5 << 2) | 2
        assert fn.compute(5, ghist=0b1110) == (5 << 2) | 2
        # even width: hash_pc(5, 2) = (5 ^ 1) & 3 = 0
        fn = IndexFn("gselect", 4, history_bits=8, fetch_width=1)
        assert fn.compute(5, ghist=0b1110) == 2
        # only the low hist_part history bits participate.
        assert fn.compute(5, ghist=0b1110) == fn.compute(5, ghist=0b10)

    def test_gselect_matches_partition_formula(self):
        fn = IndexFn("gselect", 9, history_bits=16, fetch_width=4)
        hist_part = 9 // 2
        for pc, ghist in [(0x400, 0xABCD), (0x73, 0x1F), (0xFFF, 0)]:
            want = (hash_pc(pc // 4, 9 - hist_part) << hist_part) | (
                ghist & mask(hist_part)
            )
            assert fn.compute(pc, ghist=ghist) == want


# ----------------------------------------------------------------------
# Golden Verilog snapshots
# ----------------------------------------------------------------------
class TestGoldenVerilog:
    @pytest.mark.parametrize("preset", ["tage_l", "b2", "tourney"])
    def test_emitted_verilog_matches_golden(self, preset):
        got = generate_verilog_skeleton(presets.build(preset))
        path = GOLDEN_RTL_DIR / f"{preset}.v"
        assert got == path.read_text(), (
            f"generated Verilog for preset {preset!r} drifted from "
            f"{path}; if intentional, regenerate with: PYTHONPATH=src "
            f'python -c "from repro import presets; from repro.rtl import '
            f"generate_verilog_skeleton as g; import pathlib; "
            f"pathlib.Path('{path}').write_text(g(presets.build("
            f"'{preset}')))\" and commit the diff"
        )


# ----------------------------------------------------------------------
# LEGAL_SIZINGS drift guard
# ----------------------------------------------------------------------
class TestLegalSizingsDrift:
    def test_every_legal_sizing_is_a_library_kwarg(self):
        params = set(inspect.signature(standard_library).parameters)
        missing = set(LEGAL_SIZINGS) - params
        assert not missing, (
            f"LEGAL_SIZINGS keys {sorted(missing)} are not "
            f"standard_library kwargs"
        )

    @pytest.mark.parametrize("key", sorted(LEGAL_SIZINGS))
    def test_boundary_sizings_build_spec_valid_components(self, key):
        for value in (min(LEGAL_SIZINGS[key]), max(LEGAL_SIZINGS[key])):
            library = standard_library(**{key: value})
            for base in library.known():
                component = library.factory(base)(base.lower(), 2)
                spec = component.spec
                assert spec is not None
                assert spec.validate() == [], (
                    f"{base} with {key}={value} declares an invalid spec"
                )


# ----------------------------------------------------------------------
# The derivation-coverage gate
# ----------------------------------------------------------------------
class TestDerivationCoverage:
    def test_standard_library_is_fully_covered(self):
        assert derivation_problems() == {}
        assert_derived_coverage()

    def test_gate_flags_regressed_base(self):
        # The frozen reference HBIM is the family before the migration:
        # hand-kept numpy state and no spec.
        library = standard_library().with_params("BIM", ReferenceHBIM)
        problems = derivation_problems(library)
        assert "BIM" in problems

    @pytest.mark.parametrize("base", sorted(DERIVED_BASES))
    def test_migrated_bases_hold_derived_tables(self, base):
        component = build(base)
        tables = component.derived_tables
        assert tables and all(
            isinstance(t, DerivedTable) for t in tables.values()
        )
        declared = {t.name for t in component.spec.tables}
        assert declared <= set(tables)
