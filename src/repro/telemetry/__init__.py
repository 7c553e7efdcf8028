"""Structured telemetry for composed predictors.

The paper's evaluation (§V) attributes accuracy loss to specific
sub-components and branch sites with FireSim's out-of-band profilers; this
package is the software analogue.  A :class:`TelemetryCollector` subscribes
to the composer's predict/fire/mispredict/repair/update events and
accumulates:

- per-component counters (lookups, final-prediction slots provided,
  overrides won/lost, mispredicts attributed to each sub-component, event
  dispatch counts);
- per-branch-site attribution of right/wrong final directions to the
  component that supplied them;
- repair-walk and history-file-occupancy statistics;
- an optional bounded JSONL event trace with a versioned schema
  (:class:`EventTrace`).

Collection is strictly opt-in (``CoreConfig(telemetry=True)`` or the
``--telemetry`` CLI flag) and never perturbs simulation results: the
collector observes completed composer decisions, it does not participate in
them.  The summary payload is JSON-canonical (string keys, ints, lists), so
it round-trips byte-identically through the result cache.
"""

from repro.telemetry.collector import (
    SUMMARY_SCHEMA_VERSION,
    ComponentCounters,
    TelemetryCollector,
)
from repro.telemetry.report import format_component_table, format_summary
from repro.telemetry.trace import TRACE_SCHEMA_VERSION, EventTrace

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "ComponentCounters",
    "EventTrace",
    "TelemetryCollector",
    "format_component_table",
    "format_summary",
]
