"""Pluggable execution backends: one engine, two methodologies.

``cycle``
    The cycle-level host-core model (:class:`~repro.frontend.core.Core`):
    speculation, wrong-path pollution, update delay, timing.  The
    reference methodology.
``trace`` and ``replay``
    Commit-order trace-driven simulation — the §II-B software-simulator
    methodology, kept so its modelling error against ``cycle`` stays
    measurable.  Both names run one walker,
    :func:`~repro.backends.replay.drive_columns`, over
    :class:`~repro.workloads.traces.BranchTrace` columns: it skips
    branchless packets and batch-predicts pure ones.  ``trace`` captures
    the columns from a live program; ``replay`` also loads a stored
    ``.npz``.  The per-instruction walk they are held to bit for bit is
    :func:`repro.fuzz.reference.drive_stream`.

See ``docs/backends.md`` for the contract and validity envelope of each.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    DEFAULT_TRACE_INSTRUCTIONS,
    ExecutionBackend,
    RunLimits,
    WalkCounts,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.prediction import PacketCache
from repro.backends.cycle import CycleBackend
from repro.backends.trace import TraceBackend
from repro.backends.replay import trace_packets

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_TRACE_INSTRUCTIONS",
    "ExecutionBackend",
    "RunLimits",
    "backend_names",
    "get_backend",
    "register_backend",
    "PacketCache",
    "WalkCounts",
    "CycleBackend",
    "TraceBackend",
    "trace_packets",
]
