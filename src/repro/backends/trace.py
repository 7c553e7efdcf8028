"""The trace-driven backends, ``trace`` and ``replay`` (§II-B).

Commit-order trace-driven simulation feeds the architectural path straight
through the composed predictor, one fetch packet per control-flow
transfer: no wrong path, no speculative history corruption, no update
delay.  This is the software-simulator methodology the paper argues
demonstrates "substantial modelling error" — kept as a first-class backend
precisely so that error is measurable against ``cycle`` (see
``benchmarks/bench_trace_vs_core.py``).

Both names run one walker, :func:`repro.backends.replay.drive_columns`,
over a :class:`~repro.workloads.traces.BranchTrace`.  ``trace`` captures
it from a live ``Program`` and refuses a stored ``.npz``; ``replay`` also
loads a stored one.  Each name is stamped on the results it produces, so
results and cache keys of the two never alias.  The per-instruction walk
the walker is held to lives with the ``backends`` fuzz oracle
(:mod:`repro.fuzz.reference`).
"""

from __future__ import annotations

from typing import Optional

from repro.backends import replay
from repro.backends.base import (
    ExecutionBackend,
    RunLimits,
    attach_collector,
    counts_result,
    register_backend,
)
from repro.core.composer import ComposedPredictor
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.workloads.registry import WorkloadSource


class TraceBackend(ExecutionBackend):
    """The trace-driven walk, registered as ``trace`` and as ``replay``."""

    def __init__(self, name: str):
        self.name = name

    def run(
        self,
        predictor: ComposedPredictor,
        source: WorkloadSource,
        limits: RunLimits,
        core_config: Optional[CoreConfig] = None,
        system: Optional[str] = None,
        trace: Optional[object] = None,
    ) -> RunResult:
        if self.name == "trace":
            source.require_program(self.name)
        branch_trace = source.branch_trace(limits.max_instructions)
        collector = attach_collector(predictor, core_config, trace)
        try:
            # Looked up at call time, so a wrapper installed on
            # ``repro.kernels.engine.engine_for`` or on the walker
            # module's functions sees every cell.
            from repro.kernels.engine import engine_for

            counts = replay.drive_columns(
                predictor,
                branch_trace,
                replay.trace_packets(branch_trace, predictor.config.fetch_width),
                limits.max_instructions,
                engine=engine_for(predictor),
            )
            summary = collector.summary() if collector is not None else None
        finally:
            if collector is not None:
                predictor.detach_telemetry()
        return counts_result(
            system or predictor.describe(),
            source.name,
            counts,
            self.name,
            telemetry=summary,
        )


register_backend(TraceBackend("trace"))
register_backend(TraceBackend("replay"))
