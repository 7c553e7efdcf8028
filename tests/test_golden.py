"""Golden-stats regression gate: snapshot integrity and drift detection."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval import golden
from repro.eval.cache import CODE_VERSION

GOLDEN_PATH = "goldens/golden_stats.json"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fresh():
    """One fresh run of the golden matrix, shared across this module."""
    return golden.collect_stats()


@pytest.fixture(scope="module")
def committed():
    return golden.load_goldens(GOLDEN_PATH)


class TestCommittedSnapshot:
    def test_schema_and_suite(self, committed):
        assert committed["schema"] == golden.GOLDEN_SCHEMA
        assert committed["suite"]["presets"] == list(golden.GOLDEN_PRESETS)
        assert committed["suite"]["workloads"] == list(golden.GOLDEN_WORKLOADS)

    def test_covers_full_matrix(self, committed):
        for preset in golden.GOLDEN_PRESETS:
            assert set(committed["entries"][preset]) == set(
                golden.GOLDEN_WORKLOADS
            )

    def test_entries_are_meaningful(self, committed):
        """Golden cells must exercise the mispredict/repair machinery."""
        for cells in committed["entries"].values():
            for cell in cells.values():
                assert cell["cycle"]["cycles"] > 0
                assert cell["cycle"]["instructions"] > 0
                assert cell["cycle"]["repair"]["walks"] > 0
                assert cell["cycle"]["components"]
                assert cell["trace"]["branches"] > 0
                assert cell["trace"]["instructions"] > 0

    def test_fresh_run_matches_committed(self, committed, fresh):
        """The actual gate: simulation semantics drifted if this fails.

        If the change is intentional, regenerate with
        ``python -m repro golden --update`` and commit the diff.
        """
        messages = golden.diff_goldens(committed, fresh)
        assert not messages, "\n".join(messages)


class TestCacheVersionPin:
    def test_goldens_are_pinned_to_the_code_version(self):
        """A regenerated golden means results moved, so cached results
        from before must stop hitting: bump ``CODE_VERSION``
        (``repro/eval/cache.py``) and re-pin ``goldens/cache_version.json``
        in the same change."""

        def sha256(relative):
            return hashlib.sha256((ROOT / relative).read_bytes()).hexdigest()

        pin = json.loads((ROOT / "goldens/cache_version.json").read_text())
        assert {
            "code_version": CODE_VERSION,
            "golden_stats_sha256": sha256(GOLDEN_PATH),
            "perfbench_seed0_sha256": sha256("perfbench/reference/seed0.json"),
        } == pin, self.test_goldens_are_pinned_to_the_code_version.__doc__


class TestDriftDetection:
    def test_perturbed_counter_detected(self, committed):
        perturbed = json.loads(json.dumps(committed))
        perturbed["entries"]["b2"]["dispatch"]["cycle"]["cycles"] += 1
        messages = golden.diff_goldens(committed, perturbed)
        assert len(messages) == 1
        assert "b2.dispatch.cycle.cycles" in messages[0]

    def test_perturbed_trace_counter_detected(self, committed):
        perturbed = json.loads(json.dumps(committed))
        perturbed["entries"]["b2"]["dispatch"]["trace"]["mispredicts"] += 1
        messages = golden.diff_goldens(committed, perturbed)
        assert len(messages) == 1
        assert "b2.dispatch.trace.mispredicts" in messages[0]

    def test_perturbed_component_counter_detected(self, committed):
        perturbed = json.loads(json.dumps(committed))
        entry = perturbed["entries"]["tourney"]["biased"]["cycle"]
        name = sorted(entry["components"])[0]
        entry["components"][name]["direction_wrong"] += 5
        messages = golden.diff_goldens(committed, perturbed)
        assert any(
            f"tourney.biased.cycle.components.{name}" in m for m in messages
        )

    def test_missing_cell_detected(self, committed):
        perturbed = json.loads(json.dumps(committed))
        del perturbed["entries"]["tage_l"]["biased"]
        messages = golden.diff_goldens(committed, perturbed)
        assert any("tage_l.biased" in m for m in messages)

    def test_schema_mismatch_short_circuits(self, committed):
        perturbed = json.loads(json.dumps(committed))
        perturbed["schema"] = golden.GOLDEN_SCHEMA + 1
        messages = golden.diff_goldens(committed, perturbed)
        assert len(messages) == 1
        assert "schema" in messages[0]

    def test_suite_change_short_circuits(self, committed):
        perturbed = json.loads(json.dumps(committed))
        perturbed["suite"]["max_instructions"] += 1
        messages = golden.diff_goldens(committed, perturbed)
        assert len(messages) == 1
        assert "suite" in messages[0]


class TestCheckApi:
    def test_check_passes_with_fresh_payload(self, fresh):
        ok, messages = golden.check_goldens(GOLDEN_PATH, fresh=fresh)
        assert ok and not messages

    def test_check_fails_on_perturbed_payload(self, fresh):
        perturbed = json.loads(json.dumps(fresh))
        preset = golden.GOLDEN_PRESETS[0]
        workload = golden.GOLDEN_WORKLOADS[0]
        perturbed["entries"][preset][workload]["cycle"]["branch_mispredicts"] += 1
        ok, messages = golden.check_goldens(GOLDEN_PATH, fresh=perturbed)
        assert not ok
        assert any("branch_mispredicts" in m for m in messages)

    def test_check_missing_snapshot(self, tmp_path, fresh):
        ok, messages = golden.check_goldens(tmp_path / "nope.json", fresh=fresh)
        assert not ok
        assert "no golden snapshot" in messages[0]

    def test_check_corrupt_snapshot(self, tmp_path, fresh):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        ok, messages = golden.check_goldens(bad, fresh=fresh)
        assert not ok
        assert "unreadable" in messages[0]

    def test_update_then_check_round_trips(self, tmp_path, fresh):
        target = tmp_path / "sub" / "goldens.json"
        golden.save_goldens(fresh, target)
        ok, messages = golden.check_goldens(target, fresh=fresh)
        assert ok, messages
        assert golden.load_goldens(target) == fresh


class TestCli:
    def test_golden_check_exit_codes(self, tmp_path, fresh, capsys):
        target = tmp_path / "goldens.json"
        golden.save_goldens(fresh, target)
        assert main(["golden", "--check", "--path", str(target)]) == 0
        out = capsys.readouterr().out
        assert "golden stats match" in out

        perturbed = json.loads(json.dumps(fresh))
        preset = golden.GOLDEN_PRESETS[0]
        workload = golden.GOLDEN_WORKLOADS[0]
        perturbed["entries"][preset][workload]["cycle"]["cycles"] += 1
        golden.save_goldens(perturbed, target)
        assert main(["golden", "--check", "--path", str(target)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out

    def test_golden_update_writes_snapshot(self, tmp_path, capsys):
        target = tmp_path / "fresh.json"
        assert main(["golden", "--update", "--path", str(target)]) == 0
        payload = golden.load_goldens(target)
        assert payload["schema"] == golden.GOLDEN_SCHEMA
