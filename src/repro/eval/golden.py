"""Golden-stats regression gate: committed exact-match run snapshots.

The simulator is deterministic end to end: workloads are generated from
fixed seeds, simulation state is all-integer, and telemetry observes
without perturbing.  That makes *exact* stats stable across machines and
Python versions, so the repo commits a golden snapshot of a small
preset × micro-workload matrix and CI re-runs the matrix on every push,
failing on any drift.  The gate is bit-exact: any change to predictor
or core semantics must regenerate the goldens (``repro golden
--update``) and justify the diff in review.

Snapshot contents per cell (schema 2): under ``"cycle"``, the cycle-level
run — cycle count, committed instructions, control mispredicts, flushes,
MPKI (fixed-precision string so float formatting cannot drift), and the
per-component telemetry counters, so the gate catches attribution
regressions, not just end-to-end totals; under ``"trace"``, the
trace-backend run of the same (preset, workload) pair — branch and
mispredict counts plus MPKI/accuracy — so drift in the trace-driven
walker (which ``replay`` is bit-identical to by construction and by test)
is gated exactly like drift in the core.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import presets
from repro.eval.runner import run_workload
from repro.frontend.config import CoreConfig
from repro.workloads.micro import build_micro

GOLDEN_SCHEMA = 2

#: The golden matrix: every preset over a spread of branchy micro kernels,
#: small enough to run in seconds but long enough to exercise mispredict /
#: repair / commit paths thousands of times.
GOLDEN_PRESETS: Tuple[str, ...] = tuple(presets.PRESET_NAMES)
GOLDEN_WORKLOADS: Tuple[str, ...] = ("biased", "dispatch", "counted_loops")
GOLDEN_SCALE = 0.2
GOLDEN_MAX_INSTRUCTIONS = 4000

DEFAULT_GOLDEN_PATH = Path("goldens") / "golden_stats.json"


def _entry_payload(result) -> Dict[str, Any]:
    """The exact-match snapshot of one (preset, workload) run."""
    telemetry = result.telemetry or {}
    repair = telemetry.get("repair", {})
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "branch_mispredicts": result.branch_mispredicts,
        "target_mispredicts": result.target_mispredicts,
        "flushes": result.flushes,
        # Serialized with fixed precision so the comparison is string
        # equality, immune to float-repr differences.
        "mpki": f"{result.mpki:.6f}",
        "components": telemetry.get("components", {}),
        "unattributed": telemetry.get("unattributed", {}),
        "repair": {
            "walks": repair.get("walks", 0),
            "entries": repair.get("entries", 0),
            "cycles": repair.get("cycles", 0),
        },
    }


def _trace_payload(result) -> Dict[str, Any]:
    """The exact-match snapshot of one trace-backend run."""
    return {
        "branches": result.branches,
        "mispredicts": result.branch_mispredicts,
        "instructions": result.instructions,
        "mpki": f"{result.mpki:.6f}",
        "accuracy": f"{result.branch_accuracy:.6f}",
    }


def collect_stats(
    progress=None,
) -> Dict[str, Any]:
    """Run the golden matrix fresh and return the snapshot payload."""
    entries: Dict[str, Dict[str, Any]] = {}
    for preset in GOLDEN_PRESETS:
        entries[preset] = {}
        for workload in GOLDEN_WORKLOADS:
            if progress is not None:
                progress(preset, workload)
            program = build_micro(workload, scale=GOLDEN_SCALE)
            result = run_workload(
                preset,
                program,
                core_config=CoreConfig(),
                max_instructions=GOLDEN_MAX_INSTRUCTIONS,
                telemetry=True,
            )
            trace_result = run_workload(
                preset,
                program,
                core_config=CoreConfig(),
                max_instructions=GOLDEN_MAX_INSTRUCTIONS,
                backend="trace",
            )
            entries[preset][workload] = {
                "cycle": _entry_payload(result),
                "trace": _trace_payload(trace_result),
            }
    return {
        "schema": GOLDEN_SCHEMA,
        "suite": {
            "presets": list(GOLDEN_PRESETS),
            "workloads": list(GOLDEN_WORKLOADS),
            "scale": GOLDEN_SCALE,
            "max_instructions": GOLDEN_MAX_INSTRUCTIONS,
        },
        "entries": entries,
    }


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    else:
        out[prefix] = value


def diff_goldens(
    expected: Dict[str, Any], actual: Dict[str, Any]
) -> List[str]:
    """Exact-match comparison; one message per divergent leaf value."""
    messages: List[str] = []
    if expected.get("schema") != actual.get("schema"):
        messages.append(
            f"schema: expected {expected.get('schema')}, "
            f"got {actual.get('schema')}"
        )
        return messages
    if expected.get("suite") != actual.get("suite"):
        messages.append(
            f"suite definition changed: expected {expected.get('suite')}, "
            f"got {actual.get('suite')} (regenerate with --update)"
        )
        return messages
    flat_expected: Dict[str, Any] = {}
    flat_actual: Dict[str, Any] = {}
    _flatten("", expected.get("entries", {}), flat_expected)
    _flatten("", actual.get("entries", {}), flat_actual)
    for key in sorted(set(flat_expected) | set(flat_actual)):
        if key not in flat_actual:
            messages.append(f"{key}: missing from fresh run")
        elif key not in flat_expected:
            messages.append(f"{key}: not in golden snapshot")
        elif flat_expected[key] != flat_actual[key]:
            messages.append(
                f"{key}: golden {flat_expected[key]!r} != "
                f"fresh {flat_actual[key]!r}"
            )
    return messages


def load_goldens(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def save_goldens(payload: Dict[str, Any], path: Union[str, Path]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_goldens(
    path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
    progress=None,
    fresh: Optional[Dict[str, Any]] = None,
) -> Tuple[bool, List[str]]:
    """Compare a fresh run of the matrix against the committed snapshot.

    Returns ``(ok, messages)``; ``messages`` lists every divergent value
    (or the reason no comparison was possible).  ``fresh`` lets tests and
    the CLI reuse an already-collected payload.
    """
    target = Path(path)
    if not target.is_file():
        return False, [
            f"no golden snapshot at {target} (run `repro golden --update`)"
        ]
    try:
        expected = load_goldens(target)
    except (OSError, json.JSONDecodeError) as exc:
        return False, [f"unreadable golden snapshot {target}: {exc}"]
    actual = fresh if fresh is not None else collect_stats(progress=progress)
    messages = diff_goldens(expected, actual)
    return not messages, messages


def update_goldens(
    path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
    progress=None,
) -> Dict[str, Any]:
    """Regenerate and write the snapshot; returns the fresh payload."""
    payload = collect_stats(progress=progress)
    save_goldens(payload, path)
    return payload
