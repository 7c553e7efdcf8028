"""Pluggable execution backends: one engine, three methodologies.

``cycle``
    The cycle-level host-core model (:class:`~repro.frontend.core.Core`):
    speculation, wrong-path pollution, update delay, timing.  The
    reference methodology.
``trace``
    Commit-order trace-driven simulation over the ISA interpreter — the
    §II-B software-simulator methodology, kept so its modelling error
    against ``cycle`` stays measurable.
``replay``
    Trace-driven execution over stored ``BranchTrace`` npz columns with no
    interpreter in the loop, one columnar walker that skips branchless
    packets and batch-predicts pure ones; bit-identical branch/mispredict
    counts to ``trace``, several times the throughput.

See ``docs/backends.md`` for the contract and validity envelope of each.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    DEFAULT_TRACE_INSTRUCTIONS,
    ExecutionBackend,
    RunLimits,
    backend_names,
    get_backend,
    register_backend,
)
from repro.backends.packets import (
    PacketCache,
    WalkCounts,
    drive_stream,
    interpreter_stream,
    program_packets,
)
from repro.backends.cycle import CycleBackend
from repro.backends.trace import TraceBackend
from repro.backends.replay import ReplayBackend, trace_packets

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
    "drive_stream",
    "CycleBackend",
    "TraceBackend",
    "ReplayBackend",
    "interpreter_stream",
    "program_packets",
    "trace_packets",
]
