"""Static analysis of predictor compositions (``repro check``).

Three analyzers over the COBRA framework's own artifacts:

- :mod:`repro.analysis.topology_check` — structural analysis of parsed
  topology trees (TOP rules);
- :mod:`repro.analysis.contracts` — a dynamic harness driving every library
  component through the §III interface contract (CON rules);
- :mod:`repro.analysis.lints` — AST lints for reproducibility hazards in
  the source tree (RPR rules);
- :mod:`repro.analysis.spec_check` — conformance of every component's
  imperative implementation against its declarative
  :class:`repro.spec.ComponentSpec` (SPEC rules).

All four emit :class:`~repro.analysis.diagnostics.Diagnostic` records with
stable rule codes; ``docs/static_analysis.md`` is the rule catalog.
"""

from repro.analysis.contracts import (
    StimulusDims,
    check_component,
    check_library,
    dims_for,
    state_fingerprint,
)
from repro.analysis.diagnostics import (
    DIAGNOSTIC_SCHEMA,
    RULES,
    Diagnostic,
    exit_code,
    filter_ignored,
    to_json,
    validate_report,
)
from repro.analysis.lints import lint_paths
from repro.analysis.spec_check import check_component_spec, check_library_specs
from repro.analysis.topology_check import check_spec, check_topology

__all__ = [
    "DIAGNOSTIC_SCHEMA",
    "Diagnostic",
    "RULES",
    "StimulusDims",
    "check_component",
    "check_component_spec",
    "check_library",
    "check_library_specs",
    "check_spec",
    "check_topology",
    "dims_for",
    "exit_code",
    "filter_ignored",
    "lint_paths",
    "state_fingerprint",
    "to_json",
    "validate_report",
]
