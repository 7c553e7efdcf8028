"""Tests for the declarative spec layer (``repro.spec``) and its analyzer.

Three-sided coverage: every shipped component's spec agrees with its
implementation (storage, indexing) across multiple library sizings;
every live SPEC rule fires on a committed violation fixture, and a
malformed spec refuses to build; and the spec layer's consumers (engine
gate, contract harness dims, fuzzer sizings, reproducer artifacts) honor
what the specs declare.
"""

import dataclasses
import functools
import json
import pickle
import random

import pytest

from repro import cli, presets
from repro.analysis import (
    RULES,
    StimulusDims,
    check_library_specs,
    dims_for,
    to_json,
    validate_report,
)
from repro.analysis.diagnostics import REPORT_VERSION, diagnostic
from repro.analysis.lints import lint_paths
from repro.analysis.spec_check import check_component_spec
from repro.components.base import SpecComponent
from repro.components.library import standard_library
from repro.components.tournament import Tourney
from repro.core.interface import InterfaceError
from repro.derive.reference import ReferenceHBIM
from repro.kernels.engine import engine_for
from repro.spec import (
    LEGAL_SIZINGS,
    ComponentSpec,
    FieldSpec,
    IndexFn,
    TableSpec,
    clear_waiver,
    register_waiver,
    waiver_for,
)

from tests.fixtures import bad_specs

#: Three library sizings the round-trip tests sweep: the shipped Table I
#: defaults, a widened configuration, and a minimal one.
SIZINGS = [
    {},
    {
        "fetch_width": 8,
        "bim_sets": 8192,
        "btb_ways": 8,
        "gtag_history_bits": 24,
    },
    {
        "fetch_width": 2,
        "bim_sets": 1024,
        "gbim_sets": 1024,
        "lbim_sets": 128,
        "btb_sets": 128,
        "btb_ways": 1,
        "ubtb_entries": 16,
        "gtag_sets": 128,
        "gtag_history_bits": 8,
        "tourney_sets": 64,
        "loop_entries": 64,
        "perceptron_entries": 64,
    },
]

BASES = sorted(standard_library().known())

#: The tournament preset's shape with the lying chooser in the selector.
LIAR_TOPOLOGY = "LIAR3 > [GBIM2 > BTB2, LBIM2]"


def codes(diags):
    return [d.code for d in diags]


def build(base, sizing_index=0, latency=2):
    library = standard_library(**SIZINGS[sizing_index])
    return library.factory(base)(base.lower(), latency)


# ----------------------------------------------------------------------
# The spec data model
# ----------------------------------------------------------------------
class TestSpecModel:
    def test_field_and_table_bit_totals(self):
        field = FieldSpec("ctr", 2, 4)
        assert field.total_bits == 8
        table = TableSpec("t", entries=16, fields=(field, FieldSpec("v", 1)))
        assert table.entry_bits == 9
        assert table.total_bits == 144
        assert table.breakdown_keys == ("t",)

    def test_storage_report_splits_breakdown_keys(self):
        spec = ComponentSpec(
            "X",
            tables=(
                TableSpec(
                    "t",
                    entries=4,
                    fields=(FieldSpec("f", 3),),
                    breakdown=("a", "b"),
                ),
            ),
        )
        report = spec.storage_report("x")
        assert report.sram_bits == 12
        assert report.breakdown == {"a": 6, "b": 6}
        assert sum(report.breakdown.values()) == spec.total_bits

    def test_validate_catches_structural_problems(self):
        spec = ComponentSpec(
            "",
            tables=(
                TableSpec(
                    "t",
                    entries=0,
                    fields=(),
                    kind="dram",
                    update="telepathy",
                ),
            ),
            n_inputs=0,
        )
        problems = spec.validate()
        assert any("name is empty" in p for p in problems)
        assert any("entries and ways" in p for p in problems)
        assert any("dram" in p for p in problems)
        assert any("telepathy" in p for p in problems)
        assert any("n_inputs" in p for p in problems)

    def test_index_fn_gshare_matches_scheme_formula(self):
        from repro._util import fold_history, hash_pc

        fn = IndexFn("gshare", 10, history_bits=16, fetch_width=4)
        pc, ghist = 0x4_F00D, 0xDEAD_BEEF
        expected = hash_pc(pc // 4, 10) ^ fold_history(ghist, 16, 10)
        assert fn.compute(pc, ghist) == expected

    def test_index_fn_makes_no_claim_for_cam_and_custom(self):
        assert IndexFn("none", 0).compute(0x100) is None
        assert IndexFn("custom", 8).compute(0x100) is None

    def test_waiver_registry_round_trip(self):
        with pytest.raises(ValueError):
            register_waiver("X", "SPEC006", "")
        register_waiver("SomeClass", "SPEC006", "because")
        try:
            assert waiver_for(("someclass",), "spec006") == "because"
            assert waiver_for(("Other",), "SPEC006") is None
        finally:
            clear_waiver("SomeClass", "SPEC006")
        assert waiver_for(("SomeClass",), "SPEC006") is None


# ----------------------------------------------------------------------
# Shipped library conformance (spec <-> implementation round trip)
# ----------------------------------------------------------------------
class TestLibraryConformance:
    @pytest.mark.parametrize("sizing", range(len(SIZINGS)))
    def test_library_specs_clean(self, sizing):
        library = standard_library(**SIZINGS[sizing])
        assert check_library_specs(library) == []

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("sizing", range(len(SIZINGS)))
    def test_storage_round_trip(self, base, sizing):
        component = build(base, sizing)
        spec = component.spec
        assert spec is not None
        impl = component.storage()
        assert (spec.sram_bits, spec.flop_bits) == (
            impl.sram_bits,
            impl.flop_bits,
        )

    @pytest.mark.parametrize("base", BASES)
    def test_index_fn_matches_observed_indexing(self, base):
        component = build(base)
        spec = component.spec
        rng = random.Random(f"test-spec-probe:{base}")
        probed = 0
        for table in spec.tables:
            if table.index is None or table.probe is None:
                continue
            if table.index.scheme in ("none", "custom"):
                continue
            for _ in range(8):
                pc = rng.getrandbits(26)
                ghist = rng.getrandbits(64)
                lhist = rng.getrandbits(32)
                phist = rng.getrandbits(32)
                declared = table.index.compute(pc, ghist, lhist, phist)
                observed = table.probe(component, pc, ghist, lhist, phist)
                assert declared == observed, (
                    f"{base}.{table.name}: IndexFn({table.index.scheme}) "
                    f"declared {declared}, implementation indexed {observed}"
                )
                probed += 1
        if base not in ("UBTB", "SC", "PERC"):
            assert probed, f"{base} exposed no probeable table"

    def test_spec_coverage_is_total(self):
        # Every library base, at every sizing, is a SpecComponent: it is
        # built from a well-formed spec and carries it, so none is left
        # without a declaration for the analyzers to read.
        for sizing in range(len(SIZINGS)):
            library = standard_library(**SIZINGS[sizing])
            assert sorted(library.known()) == BASES
            for base in BASES:
                component = build(base, sizing)
                assert isinstance(component, SpecComponent), base
                assert isinstance(component.spec, ComponentSpec), base
                assert component.spec.validate() == [], base

    def test_meta_fields_match_declared_meta_bits(self):
        for base in BASES:
            component = build(base)
            spec = component.spec
            assert spec.meta_bits == component.meta_bits, base

    def test_history_demand_matches_top006_budget(self):
        for base in BASES:
            component = build(base)
            spec = component.spec
            assert spec.ghist_bits == component.required_ghist_bits, base
            assert spec.lhist_bits == component.required_lhist_bits, base
            assert spec.phist_bits == component.required_phist_bits, base


# ----------------------------------------------------------------------
# Batch replay: columnar_kernel() is the only declaration
# ----------------------------------------------------------------------
#: The ``columnar_kernel()`` class each library base returns, at every
#: sizing; bases not listed stay on the scalar path (None).
KERNEL_PINS = {
    "BIM": "LaneCounterKernel",
    "GBIM": "LaneCounterKernel",
    "GSHARE": "LaneCounterKernel",
    "GSELECT": "LaneCounterKernel",
    "GTAG": "LaneCounterKernel",
    "GAG": "CandidateCounterKernel",
    "GAP": "CandidateCounterKernel",
    "BTB": "BTBKernel",
    "UBTB": "MicroBTBKernel",
    "TAGE": "TAGEKernel",
    "LOOP": "LoopKernel",
}

#: The default sizing plus every single-parameter LEGAL_SIZINGS value.
LEGAL_SWEEP = [{}] + [
    {key: value} for key in sorted(LEGAL_SIZINGS) for value in LEGAL_SIZINGS[key]
]


@functools.lru_cache(maxsize=None)
def legal_builds(base):
    """``base`` built at every sizing in :data:`LEGAL_SWEEP`."""
    builds = []
    for params in LEGAL_SWEEP:
        library = standard_library(**params)
        builds.append((params, library.factory(base)(base.lower(), 2)))
    return builds


class TestBatchReplayDeclaration:
    @pytest.mark.parametrize("base", BASES)
    def test_kernel_class_is_pinned(self, base):
        want = KERNEL_PINS.get(base)
        for params, component in legal_builds(base):
            kernel = component.columnar_kernel()
            got = None if kernel is None else type(kernel).__name__
            assert got == want, f"{base} at {params}: kernel {got}, pinned {want}"

    @pytest.mark.parametrize("base", BASES)
    def test_kernel_implies_engine_drivable_spec(self, base):
        for params, component in legal_builds(base):
            if component.columnar_kernel() is not None:
                assert component.spec.engine_drivable, (
                    f"{base} at {params} has a kernel but an undrivable spec"
                )


# ----------------------------------------------------------------------
# Violation fixtures: every SPEC rule provably fires
# ----------------------------------------------------------------------
class TestSpecViolations:
    @pytest.mark.parametrize("code", sorted(bad_specs.SPEC_VIOLATIONS))
    def test_each_violation_fixture_fires_its_rule(self, code):
        cls = bad_specs.SPEC_VIOLATIONS[code]
        diags = check_component_spec(cls("liar", 2))
        assert code in codes(diags), (
            f"{cls.__name__} should trip {code}, got {codes(diags)}"
        )

    @pytest.mark.parametrize("code", sorted(bad_specs.SPEC_VIOLATIONS))
    def test_violations_are_specific(self, code):
        # A fixture must not spray unrelated diagnostics: each one trips
        # only the rule it was built to violate.
        cls = bad_specs.SPEC_VIOLATIONS[code]
        diags = check_component_spec(cls("liar", 2))
        assert set(codes(diags)) == {code}, (
            f"{cls.__name__}: expected only {code}, got {codes(diags)}"
        )

    def test_unwaived_closed_form_fires_until_waived(self):
        component = bad_specs.UnwaivedClosedForm("liar", 2)
        diags = check_component_spec(component)
        assert set(codes(diags)) == {"SPEC006"}
        assert "waiver" in diags[0].message
        register_waiver("UnwaivedClosedForm", "SPEC006", "fixture waiver")
        try:
            assert check_component_spec(component) == []
        finally:
            clear_waiver("UnwaivedClosedForm", "SPEC006")

    def test_malformed_spec_refuses_to_build(self):
        class NegativeWidth(Tourney):
            def _build_spec(self):
                honest = super()._build_spec()
                broken = FieldSpec("choice", -2, self.fetch_width)
                return dataclasses.replace(honest, meta_fields=(broken,))

        with pytest.raises(InterfaceError) as excinfo:
            NegativeWidth("liar", 2)
        message = str(excinfo.value)
        assert "liar" in message
        assert "'choice'" in message and "must be positive" in message

    def test_bad_specs_surface_through_check_library_specs(self):
        library = standard_library().with_params(
            "LIAR",
            lambda name, lat: bad_specs.WrongIndex(name, lat),
        )
        assert "SPEC003" in codes(check_library_specs(library))


# ----------------------------------------------------------------------
# Spec consumers: contract-harness dims and the engine gate
# ----------------------------------------------------------------------
class TestSpecConsumers:
    def test_dims_default_without_spec(self):
        component = ReferenceHBIM("x", 2)
        assert component.spec is None
        assert dims_for(component) == StimulusDims()

    def test_dims_widen_to_index_plus_tag_reach(self):
        btb = build("BTB")
        dims = dims_for(btb)
        spec = btb.spec
        tags = next(t for t in spec.tables if t.name == "tags")
        tag_bits = sum(f.bits for f in tags.fields if f.name == "tag")
        assert dims.pc_bits == max(20, tags.index.index_bits + tag_bits)
        assert dims.fetch_width == btb.fetch_width

    def test_dims_cover_declared_history_demand(self):
        for base in BASES:
            component = build(base)
            dims = dims_for(component)
            spec = component.spec
            assert dims.ghist_bits >= spec.ghist_bits
            assert dims.lhist_bits >= spec.lhist_bits
            assert dims.phist_bits >= spec.phist_bits

    def test_engine_gate_falls_back_for_specless_component(self):
        # The gate reads only columnar_kernel(): a spec-less third-party
        # component with a hand-written kernel engages like a
        # spec-carrying one.  (A generated kernel is built from the spec,
        # so the BTB, whose kernel is hand-written, stands in.)
        predictor = presets.build("b2")
        assert engine_for(predictor) is not None
        btb = next(c for c in predictor.components if c.name == "btb")
        btb.spec = None
        assert engine_for(predictor) is not None


# ----------------------------------------------------------------------
# Fuzzer integration: sizings, factories, reproducers, the spec oracle
# ----------------------------------------------------------------------
class TestFuzzIntegration:
    def test_random_library_params_are_spec_legal(self):
        from repro.fuzz.generate import random_library_params

        seen_nonempty = False
        for seed in range(16):
            params = random_library_params(random.Random(seed))
            for name, value in params:
                assert name in LEGAL_SIZINGS
                assert value in LEGAL_SIZINGS[name]
            seen_nonempty = seen_nonempty or bool(params)
            again = random_library_params(random.Random(seed))
            assert again == params  # pure function of the stream
        assert seen_nonempty

    def test_topology_factory_applies_library_params(self):
        from repro.fuzz.generate import TopologyFactory

        factory = TopologyFactory(
            "GTAG3 > BTB2 > BIM2", (("bim_sets", 1024),)
        )
        predictor = factory()
        assert any(
            getattr(c, "n_sets", None) == 1024 for c in predictor.components
        )
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_spec_oracle_clean_on_sized_topology(self, tmp_path):
        from repro.fuzz.generate import TopologyFactory, random_program_spec
        from repro.fuzz.oracles import FuzzCase, run_oracle

        case = FuzzCase(
            case_id=0,
            seed=0,
            label="sized",
            predictor_spec=TopologyFactory(
                "GTAG3 > BTB2 > BIM2", (("bim_sets", 2048), ("btb_ways", 2))
            ),
            topology="GTAG3 > BTB2 > BIM2",
            program_spec=random_program_spec(random.Random(0)),
        )
        assert run_oracle("spec", case, tmp_path) == []

    def test_spec_oracle_fires_on_lying_component(self, tmp_path):
        from repro.fuzz.generate import random_program_spec
        from repro.fuzz.oracles import FuzzCase, run_oracle

        def lying_predictor():
            from repro.core.composer import compose

            library = standard_library().with_params(
                "LIAR",
                lambda name, lat: bad_specs.WrongIndex(name, lat),
            )
            return compose(LIAR_TOPOLOGY, library=library)

        case = FuzzCase(
            case_id=0,
            seed=0,
            label="liar",
            predictor_spec=lying_predictor,
            topology=LIAR_TOPOLOGY,
            program_spec=random_program_spec(random.Random(0)),
        )
        mismatches = run_oracle("spec", case, tmp_path)
        assert mismatches
        assert mismatches[0].oracle == "spec"
        assert any("SPEC003" in str(m.actual) for m in mismatches)

    def test_reproducer_round_trips_library_params(self, tmp_path):
        from repro.fuzz.generate import TopologyFactory, random_program_spec
        from repro.fuzz.oracles import FuzzCase
        from repro.fuzz.reproducer import load_reproducer, save_reproducer

        params = (("bim_sets", 1024), ("gtag_history_bits", 24))
        case = FuzzCase(
            case_id=7,
            seed=3,
            label="sized",
            predictor_spec=TopologyFactory("GTAG3 > BTB2 > BIM2", params),
            topology="GTAG3 > BTB2 > BIM2",
            program_spec=random_program_spec(random.Random(3)),
        )
        path = save_reproducer(tmp_path / "case.npz", case, "spec", [])
        loaded = load_reproducer(path)
        assert loaded.case.predictor_spec.library_params == params
        rebuilt = loaded.case.build_predictor()
        assert any(
            getattr(c, "n_sets", None) == 1024 for c in rebuilt.components
        )

    def test_spec_oracle_registered_in_default_battery(self):
        from repro.fuzz.oracles import DEFAULT_ORACLES, ORACLES

        assert "spec" in ORACLES
        assert "spec" in DEFAULT_ORACLES


# ----------------------------------------------------------------------
# Diagnostics schema + CLI surface
# ----------------------------------------------------------------------
class TestSchemaAndCli:
    def test_report_version_bumped_for_spec_family(self):
        assert REPORT_VERSION == 2
        # SPEC001/002/004/005/007/008 are retired and their codes not
        # reused.
        assert {code for code in RULES if code.startswith("SPEC")} == {
            "SPEC003",
            "SPEC006",
            "SPEC009",
        }

    def test_every_registered_rule_code_round_trips_the_schema(self):
        diags = [diagnostic(code, "message", "subject") for code in sorted(RULES)]
        document = json.loads(to_json(diags))
        assert document["version"] == REPORT_VERSION
        assert validate_report(document) == []
        rendered = {d["code"] for d in document["diagnostics"]}
        assert rendered == set(RULES)

    def test_check_spec_flag_clean_on_shipped_library(self, capsys):
        assert cli.main(["check", "--spec", "--strict"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_check_spec_json_is_schema_valid(self, capsys):
        assert cli.main(["check", "--spec", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_report(document) == []

    def test_unknown_ignore_code_is_usage_error(self, capsys):
        rc = cli.main(
            ["check", "--topology", "BTB2 > BIM2", "--ignore", "NOPE999"]
        )
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "code",
        ["SPEC001", "SPEC002", "SPEC004", "SPEC005", "SPEC007", "SPEC008", "RPR004"],
    )
    def test_retired_spec_code_is_unknown_to_ignore(self, code, capsys):
        rc = cli.main(["check", "--spec", "--ignore", code])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_known_ignore_codes_still_accepted(self):
        rc = cli.main(
            ["check", "--topology", "TOURNEY2 > [GBIM3, LBIM2]",
             "--ignore", "TOP002", "TOP005"]
        )
        assert rc == 0

    def test_noqa_with_unknown_code_warns_rpr005(self, tmp_path):
        source = tmp_path / "snippet.py"
        source.write_text(
            "x = 1  # repro: noqa[RPR999]\ny = 2  # repro: noqa[RPR001]\n"
        )
        diags = lint_paths([str(source)])
        assert codes(diags) == ["RPR005"]
        assert diags[0].severity == "warn"
        assert "RPR999" in diags[0].message
