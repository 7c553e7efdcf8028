"""Structured diagnostics for the ``repro check`` static-analysis pass.

Every analyzer (topology, component contracts, source lints) reports
:class:`Diagnostic` records with a stable rule code, so violations can be
suppressed, filtered, and consumed by tooling.  The JSON document emitted by
``repro check --json`` is described by :data:`DIAGNOSTIC_SCHEMA`; the rule
catalog lives in :data:`RULES` and is rendered in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

ERROR = "error"
WARN = "warn"

#: Rule catalog: code -> (severity, one-line summary).  The severity here is
#: the rule's fixed severity: a code never mixes severities, so CI gating on
#: "any error diagnostic" is stable across releases.
RULES: Dict[str, tuple] = {
    # Topology analyzer (repro.analysis.topology_check)
    "TOP000": (ERROR, "topology failed to parse or validate"),
    "TOP001": (WARN, "override chain is not latency-monotonic"),
    "TOP002": (ERROR, "arbitration child responds after its selector"),
    "TOP003": (ERROR, "declared meta_bits disagree with the MetaCodec layout"),
    "TOP004": (WARN, "component is shadowed and can never win a redirect"),
    "TOP005": (WARN, "no target-providing component (BTB/uBTB) in the topology"),
    "TOP006": (ERROR, "history demand exceeds the composed history provider"),
    "TOP007": (WARN, "per-entry metadata exceeds the history-file bit budget"),
    # Component contract harness (repro.analysis.contracts)
    "CON001": (ERROR, "metadata does not fit the declared meta_bits"),
    "CON002": (ERROR, "predict_in slots not predicted are not passed through"),
    "CON003": (ERROR, "latency-1 component consumes a history"),
    "CON005": (ERROR, "fire followed by on_repair does not round-trip state"),
    "CON006": (ERROR, "storage() breakdown does not sum to declared totals"),
    "CON007": (ERROR, "component is not deterministic under a fixed seed, or raised"),
    "CON008": (ERROR, "branchless packet changes state despite branchless_inert"),
    "CON009": (ERROR, "columnar kernel lookup diverges from the scalar lookup"),
    # Source lints (repro.analysis.lints).  Retired, never reused: RPR004.
    "RPR001": (ERROR, "unseeded RNG or wall-clock use in deterministic code"),
    "RPR002": (ERROR, "mutable default argument"),
    "RPR003": (ERROR, "fire overridden without on_repair"),
    "RPR005": (WARN, "noqa comment references an unknown rule code"),
    # Spec conformance (repro.analysis.spec_check).  Retired, never
    # reused: SPEC001, SPEC002, SPEC004, SPEC005, SPEC007, SPEC008, SPEC009.
    "SPEC003": (ERROR, "spec IndexFn does not reproduce the observed index"),
    "SPEC006": (ERROR, "closed-form engine-drivable component has no kernel"),
}


def rule_severity(code: str) -> str:
    """The fixed severity of a rule code (unknown codes are errors)."""
    return RULES.get(code, (ERROR, ""))[0]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static-analysis pass.

    ``subject`` names what the finding is about — a component instance, a
    topology string, or a source file.  ``file``/``line``/``col`` locate
    source-level findings (lints and, for topology parse errors, the column
    within the spec string).
    """

    code: str
    severity: str
    message: str
    subject: str
    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "subject": self.subject,
            "file": self.file,
            "line": self.line,
            "col": self.col,
        }

    def format(self) -> str:
        location = ""
        if self.file is not None:
            location = f" ({self.file}"
            if self.line is not None:
                location += f":{self.line}"
                if self.col is not None:
                    location += f":{self.col}"
            location += ")"
        return (
            f"{self.severity.upper():5s} {self.code} [{self.subject}] "
            f"{self.message}{location}"
        )


def diagnostic(code: str, message: str, subject: str, **location) -> Diagnostic:
    """Build a diagnostic with the rule's catalog severity."""
    return Diagnostic(code, rule_severity(code), message, subject, **location)


def filter_ignored(
    diagnostics: Iterable[Diagnostic], ignore: Sequence[str]
) -> List[Diagnostic]:
    """Drop diagnostics whose code appears in ``ignore`` (case-insensitive)."""
    ignored = {code.strip().upper() for code in ignore if code.strip()}
    return [d for d in diagnostics if d.code.upper() not in ignored]


def count_errors(diagnostics: Iterable[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.severity == ERROR)


def count_warnings(diagnostics: Iterable[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.severity == WARN)


def exit_code(diagnostics: Iterable[Diagnostic], strict: bool = False) -> int:
    """The process exit code for a set of diagnostics.

    Errors always fail; ``strict`` promotes warnings to failures too.
    """
    diags = list(diagnostics)
    if count_errors(diags):
        return 1
    if strict and count_warnings(diags):
        return 1
    return 0


#: Version of the ``repro check --json`` report document.  Version 2
#: widened rule codes from exactly three letters to three-or-four
#: (the SPEC family) and added RPR005.
REPORT_VERSION = 2

#: JSON-schema (draft-07 subset) of ``repro check --json`` output.
DIAGNOSTIC_SCHEMA: Dict[str, object] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro check diagnostics",
    "type": "object",
    "required": ["version", "errors", "warnings", "diagnostics"],
    "properties": {
        "version": {"type": "integer", "const": REPORT_VERSION},
        "errors": {"type": "integer", "minimum": 0},
        "warnings": {"type": "integer", "minimum": 0},
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "severity", "message", "subject"],
                "properties": {
                    "code": {"type": "string", "pattern": "^[A-Z]{3,4}[0-9]{3}$"},
                    "severity": {"enum": ["error", "warn"]},
                    "message": {"type": "string"},
                    "subject": {"type": "string"},
                    "file": {"type": ["string", "null"]},
                    "line": {"type": ["integer", "null"]},
                    "col": {"type": ["integer", "null"]},
                },
            },
        },
    },
}


def to_json(diagnostics: Sequence[Diagnostic], indent: int = 2) -> str:
    """Serialize diagnostics into the documented JSON report."""
    document = {
        "version": REPORT_VERSION,
        "errors": count_errors(diagnostics),
        "warnings": count_warnings(diagnostics),
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    return json.dumps(document, indent=indent)


def validate_report(document: Dict[str, object]) -> List[str]:
    """Check a parsed ``--json`` report against :data:`DIAGNOSTIC_SCHEMA`.

    A minimal in-tree validator (no jsonschema dependency); returns a list
    of human-readable problems, empty when the document conforms.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["report is not a JSON object"]
    for key in ("version", "errors", "warnings", "diagnostics"):
        if key not in document:
            problems.append(f"missing key {key!r}")
    if document.get("version") != REPORT_VERSION:
        problems.append(f"unknown report version {document.get('version')!r}")
    for key in ("errors", "warnings"):
        value = document.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} must be a non-negative integer")
    diags = document.get("diagnostics")
    if not isinstance(diags, list):
        return problems + ["diagnostics must be an array"]
    for i, entry in enumerate(diags):
        if not isinstance(entry, dict):
            problems.append(f"diagnostics[{i}] is not an object")
            continue
        for key in ("code", "severity", "message", "subject"):
            if not isinstance(entry.get(key), str):
                problems.append(f"diagnostics[{i}].{key} must be a string")
        code = entry.get("code")
        if isinstance(code, str) and not (
            len(code) in (6, 7)
            and code[:-3].isalpha()
            and code[:-3].isupper()
            and code[-3:].isdigit()
        ):
            problems.append(f"diagnostics[{i}].code {code!r} is malformed")
        if entry.get("severity") not in ("error", "warn"):
            problems.append(
                f"diagnostics[{i}].severity {entry.get('severity')!r} invalid"
            )
        for key, kind in (("file", str), ("line", int), ("col", int)):
            value = entry.get(key)
            if value is not None and not isinstance(value, kind):
                problems.append(f"diagnostics[{i}].{key} must be {kind.__name__}")
    return problems
