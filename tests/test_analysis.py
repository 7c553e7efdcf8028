"""Tests for the static-analysis subsystem (``repro check``).

Two-sided coverage: every shipped preset and library component passes
clean, and every rule code fires on a committed violation fixture.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import cli, presets
from repro.analysis import (
    DIAGNOSTIC_SCHEMA,
    RULES,
    check_component,
    check_library,
    check_spec,
    check_topology,
    exit_code,
    filter_ignored,
    state_fingerprint,
    to_json,
    validate_report,
)
from repro.analysis.diagnostics import diagnostic
from repro.analysis.lints import lint_paths
from repro.components.library import standard_library
from repro.core.composer import ComposerConfig
from repro.core.topology import Leaf

from tests.fixtures import bad_components

FIXTURES = Path(__file__).parent / "fixtures"
LINT_FIXTURES = FIXTURES / "lint"
EXAMPLES = Path(__file__).parent.parent / "examples"


def codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------------
# The shipped tree is clean
# ----------------------------------------------------------------------
class TestShippedTreeClean:
    def test_library_components_pass_contract_harness(self):
        assert check_library() == []

    def test_source_tree_passes_lints(self):
        assert lint_paths() == []

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_preset_topologies_pass(self, name):
        predictor = presets.build(name)
        assert check_topology(predictor.topology, predictor.config) == []

    def test_hand_declared_example_passes_contract_harness(self):
        # The documented hand-declared path (own codec, meta_bits and
        # storage(), no spec) must satisfy the CON rules it is held to.
        path = EXAMPLES / "custom_component.py"
        spec = importlib.util.spec_from_file_location("custom_component", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        assert check_component(example.AgreeFilter, "AGREE") == []


# ----------------------------------------------------------------------
# Topology rules
# ----------------------------------------------------------------------
class TestTopologyRules:
    def test_top000_parse_failure_carries_column(self):
        diags = check_spec("TAGE3 > > BIM2")
        assert codes(diags) == ["TOP000"]
        assert diags[0].severity == "error"
        assert diags[0].col is not None

    def test_top000_unknown_component(self):
        assert codes(check_spec("NOPE2 > BIM2")) == ["TOP000"]

    def test_top001_latency_inversion_warns(self):
        diags = check_spec("UBTB1 > GSHARE2 > BTB2")
        assert "TOP001" in codes(diags)
        assert all(d.severity == "warn" for d in diags)

    def test_top002_slow_arbitration_child(self):
        diags = check_spec("TOURNEY2 > [GBIM3 > BTB2, LBIM2]")
        top002 = [d for d in diags if d.code == "TOP002"]
        assert len(top002) == 1
        assert top002[0].severity == "error"
        assert "gbim" in top002[0].message

    def test_top003_meta_width_mismatch(self):
        bad = bad_components.MiscountedMeta("liar", 2)
        diags = check_topology(Leaf(bad))
        assert "TOP003" in codes(diags)

    def test_top004_shadowed_by_total_predictor(self):
        diags = check_spec("BIM2 > TAGE3 > BTB2")
        shadowed = [d for d in diags if d.code == "TOP004"]
        assert len(shadowed) == 1
        assert "tage" in shadowed[0].message

    def test_top004_not_raised_for_tagged_head(self):
        # GTAG misses on a cold table, so nothing below it is shadowed.
        diags = check_spec("GTAG2 > TAGE3 > BTB2")
        assert "TOP004" not in codes(diags)

    def test_top005_no_target_provider(self):
        assert "TOP005" in codes(check_spec("GSHARE2"))
        assert "TOP005" not in codes(check_spec("BTB2 > BIM2"))

    def test_top006_history_demand_unsatisfiable(self):
        config = ComposerConfig(global_history_bits=16)
        diags = check_spec("TAGE3 > BTB2 > BIM2", config=config)
        top006 = [d for d in diags if d.code == "TOP006"]
        assert len(top006) == 1
        assert "64" in top006[0].message and "16" in top006[0].message

    def test_top006_satisfied_by_default_config(self):
        assert check_spec("TAGE3 > BTB2 > BIM2") == []

    def test_top007_meta_budget(self):
        spec = "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"
        assert "TOP007" in codes(check_spec(spec, meta_budget=32))
        assert "TOP007" not in codes(check_spec(spec))

    def test_override_of_total_same_latency_not_shadowed(self):
        # Equal latency still feeds predict_in, so no TOP004.
        diags = check_spec("BIM2 > GSHARE2")
        assert "TOP004" not in codes(diags)


# ----------------------------------------------------------------------
# Component contract rules
# ----------------------------------------------------------------------
class TestContractRules:
    @pytest.mark.parametrize("code", sorted(bad_components.VIOLATIONS))
    def test_each_violation_fixture_fires_its_rule(self, code):
        base, cls = bad_components.VIOLATIONS[code]
        diags = check_component(lambda name, lat: cls(name, lat), base)
        assert code in codes(diags), (
            f"{cls.__name__} should trip {code}, got {codes(diags)}"
        )

    def test_jump_clobbering_is_con002(self):
        diags = check_component(
            lambda name, lat: bad_components.JumpClobberer(name, lat), "CLOB"
        )
        assert "CON002" in codes(diags)
        assert "jump slot" in diags[codes(diags).index("CON002")].message

    def test_input_mutation_raises_at_first_lookup(self):
        # Prediction vectors are immutable: writing into predict_in fails
        # at once, so no contract check is needed to catch it.  The raising
        # hook is reported as one error naming it, not a traceback.
        diags = check_component(
            lambda name, lat: bad_components.InputMutator(name, lat), "MUT"
        )
        assert codes(diags) == ["CON007"]
        assert diags[0].severity == "error"
        assert "lookup raised" in diags[0].message
        assert "AttributeError" in diags[0].message

    @pytest.mark.parametrize("hook", ["fire", "on_update", "on_mispredict"])
    def test_raising_event_hook_is_reported_by_name(self, hook):
        def explode(self, bundle):
            raise RuntimeError("boom")

        cls = type("Exploding", (bad_components._Base,), {hook: explode})
        diags = check_library(
            standard_library().with_params("BOOM", lambda name, lat: cls(name, lat))
        )
        boom = [d for d in diags if d.subject.startswith("BOOM")]
        assert codes(boom) == ["CON007"]
        assert f"{hook} raised" in boom[0].message
        assert "RuntimeError: boom" in boom[0].message

    def test_violations_are_specific(self):
        # A fixture must not spray unrelated diagnostics: each one trips
        # only the rule it was built to violate.
        for code, (base, cls) in bad_components.VIOLATIONS.items():
            diags = check_component(lambda name, lat: cls(name, lat), base)
            assert codes(diags) == [code], (
                f"{cls.__name__}: expected exactly [{code}], "
                f"got {codes(diags)}"
            )

    def test_state_fingerprint_distinguishes_state(self):
        a = bad_components.BranchlessLearner("x", 2)
        b = bad_components.BranchlessLearner("x", 2)
        assert state_fingerprint(a) == state_fingerprint(b)
        a._fetches += 1
        assert state_fingerprint(a) != state_fingerprint(b)

    def test_check_library_accepts_custom_library(self):
        library = standard_library().with_params(
            "BRLEARN",
            lambda name, lat: bad_components.BranchlessLearner(name, lat),
        )
        diags = check_library(library)
        assert "CON008" in codes(diags)


# ----------------------------------------------------------------------
# Lint rules
# ----------------------------------------------------------------------
class TestLintRules:
    @pytest.fixture(scope="class")
    def fixture_diags(self):
        return lint_paths([str(LINT_FIXTURES)])

    def test_rpr001_fires_on_entropy_fixture(self, fixture_diags):
        hits = [
            d for d in fixture_diags
            if d.code == "RPR001" and "rpr001" in (d.file or "")
        ]
        assert len(hits) == 4  # random, time, np.random, numpy alias
        assert all(d.line is not None and d.col is not None for d in hits)

    def test_rpr002_fires_on_defaults_fixture(self, fixture_diags):
        hits = [d for d in fixture_diags if d.code == "RPR002"]
        assert len(hits) == 3  # literal, kw-only, list() call

    def test_rpr003_fires_on_fire_fixture(self, fixture_diags):
        hits = [d for d in fixture_diags if d.code == "RPR003"]
        names = {d.message.split()[1] for d in hits}
        assert names == {"SpeculatesWithoutRepair", "Intermediate"}

    def test_noqa_suppression(self, fixture_diags):
        # Every fixture contains a suppressed violation on a noqa line.
        flagged_lines = {
            (Path(d.file).name, d.line) for d in fixture_diags if d.file
        }
        assert ("rpr001_entropy.py", 34) not in flagged_lines
        suppressed_sources = [
            line
            for path in LINT_FIXTURES.glob("*.py")
            for line in path.read_text().splitlines()
            if "repro: noqa" in line
        ]
        assert len(suppressed_sources) >= 3

    def test_explicit_file_gets_full_rule_set(self, tmp_path):
        source = tmp_path / "snippet.py"
        source.write_text("import time\n\ndef f():\n    return time.time()\n")
        diags = lint_paths([str(source)])
        assert codes(diags) == ["RPR001"]


# ----------------------------------------------------------------------
# Diagnostics model, JSON schema, exit codes
# ----------------------------------------------------------------------
class TestDiagnosticsModel:
    def test_rule_catalog_covers_every_emitted_code(self):
        assert set(RULES) == {
            *(f"TOP{n:03d}" for n in range(8)),
            # CON004 (reset completeness) is retired and its code not
            # reused; so are SPEC001/002/004/005/008, which compared a
            # component's spec with itself, SPEC007 (learn triggers vs
            # branchless_inert), and RPR004 (predict_in mutation, which
            # immutable prediction vectors now refuse at run time).
            *(f"CON{n:03d}" for n in range(1, 10) if n != 4),
            *(f"RPR{n:03d}" for n in range(1, 6) if n != 4),
            "SPEC003",
            "SPEC006",
            "SPEC009",
        }

    def test_exit_codes(self):
        warn = diagnostic("TOP001", "m", "s")
        err = diagnostic("TOP002", "m", "s")
        assert exit_code([]) == 0
        assert exit_code([warn]) == 0
        assert exit_code([warn], strict=True) == 1
        assert exit_code([err]) == 1

    def test_filter_ignored(self):
        diags = [diagnostic("TOP001", "m", "s"), diagnostic("TOP002", "m", "s")]
        kept = filter_ignored(diags, ["top001"])
        assert codes(kept) == ["TOP002"]

    def test_json_report_validates_against_schema(self):
        diags = check_spec("TOURNEY2 > [GBIM3, LBIM2]")
        document = json.loads(to_json(diags))
        assert validate_report(document) == []
        assert document["errors"] == 1
        assert document["warnings"] == 1
        required = DIAGNOSTIC_SCHEMA["required"]
        assert all(key in document for key in required)

    def test_validate_report_rejects_malformed_documents(self):
        assert validate_report([]) != []
        assert validate_report({"version": 2}) != []
        bad_entry = {
            "version": 1,
            "errors": 0,
            "warnings": 0,
            "diagnostics": [{"code": "X1", "severity": "fatal"}],
        }
        problems = validate_report(bad_entry)
        assert any("malformed" in p for p in problems)
        assert any("severity" in p for p in problems)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCheckCli:
    def test_clean_spec_exits_zero(self, capsys):
        rc = cli.main(["check", "--topology", "TAGE3 > BTB2 > BIM2"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_spec_exits_nonzero(self, capsys):
        rc = cli.main(["check", "--topology", "TOURNEY2 > [GBIM3, LBIM2]"])
        assert rc == 1
        assert "TOP002" in capsys.readouterr().out

    def test_warn_spec_needs_strict_to_fail(self, capsys):
        argv = ["check", "--topology", "UBTB1 > GSHARE2 > BTB2"]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--strict"]) == 1
        assert "TOP001" in capsys.readouterr().out

    def test_preset_name_with_history_override(self, capsys):
        rc = cli.main(["check", "--topology", "tage_l", "--ghist-bits", "16"])
        assert rc == 1
        assert "TOP006" in capsys.readouterr().out

    def test_meta_budget_flag(self, capsys):
        rc = cli.main(
            ["check", "--topology", "tage_l", "--meta-budget", "32",
             "--strict"]
        )
        assert rc == 1
        assert "TOP007" in capsys.readouterr().out

    def test_ignore_flag_drops_codes(self):
        rc = cli.main(
            ["check", "--topology", "TOURNEY2 > [GBIM3, LBIM2]",
             "--ignore", "TOP002", "TOP005"]
        )
        assert rc == 0

    def test_json_output_is_schema_valid(self, capsys):
        rc = cli.main(
            ["check", "--topology", "tage_l", "--ghist-bits", "16", "--json"]
        )
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert validate_report(document) == []
        assert document["errors"] == 1

    def test_lint_path_flag(self, capsys):
        rc = cli.main(
            ["check", "--lint",
             "--lint-path", str(LINT_FIXTURES / "rpr002_defaults.py")]
        )
        assert rc == 1
        assert "RPR002" in capsys.readouterr().out

    def test_no_selection_is_usage_error(self, capsys):
        assert cli.main(["check"]) == 2

    def test_all_passes_clean_on_shipped_tree(self, capsys):
        assert cli.main(["check", "--all", "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
