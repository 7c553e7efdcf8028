"""The execution-backend contract and registry.

An :class:`ExecutionBackend` turns (predictor, workload source, limits)
into a :class:`~repro.eval.metrics.RunResult`.  Three names ship (see
:mod:`repro.backends`): ``cycle`` (the cycle-level host-core model), and
``trace`` and ``replay``, one commit-order trace-driven walker (§II-B) over
a live capture or a stored :class:`~repro.workloads.traces.BranchTrace`.
Backends register themselves by name; everything above this layer —
``run_workload``, the parallel engine, the result cache, the CLI — selects
one with ``backend="..."``.

The contract, precisely:

- The predictor is used as given, in whatever state it is in; callers
  own warm-up semantics, exactly as ``run_workload`` always did.
- ``limits.max_instructions`` bounds committed (architectural)
  instructions; ``limits.max_cycles`` only applies to backends that model
  time (``cycle``) and is ignored by the trace-driven ones.
- The returned ``RunResult`` carries ``backend`` so cached and archived
  results are self-describing.  Trace-driven backends report zero for the
  purely microarchitectural fields (cycles, IPC, flushes, indirect-target
  mispredicts): per §II-B they cannot model them, and reporting zero rather
  than a guess keeps the modelling gap visible (see ``docs/backends.md``).
- ``core_config.telemetry`` attaches a collector for any backend;
  ``trace`` is an optional bounded JSONL event trace (implies telemetry).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.composer import ComposedPredictor
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.workloads.registry import WorkloadSource

DEFAULT_BACKEND = "cycle"

#: Instruction cap the trace-driven backends apply when the caller gives
#: none (matches the default capture length of ``repro trace capture`` — so
#: an uncapped ``trace`` run and a replay of a default capture cover the
#: same stream).
DEFAULT_TRACE_INSTRUCTIONS = 1_000_000


@dataclass(frozen=True)
class RunLimits:
    """Run bounds, backend-interpreted (see the module docstring)."""

    max_instructions: Optional[int] = None
    max_cycles: Optional[int] = None


class ExecutionBackend(abc.ABC):
    """One way of running a workload through a composed predictor."""

    #: Registry key; also stamped on every result this backend produces.
    name: str = ""

    @abc.abstractmethod
    def run(
        self,
        predictor: ComposedPredictor,
        source: WorkloadSource,
        limits: RunLimits,
        core_config: Optional[CoreConfig] = None,
        system: Optional[str] = None,
        trace: Optional[object] = None,
    ) -> RunResult:
        """Run ``source`` on ``predictor`` and measure the result."""


_REGISTRY: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    if not backend.name:
        raise ValueError("backend must declare a non-empty name")
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def get_backend(name: str) -> ExecutionBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; have {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# Shared helpers for the trace-driven backends
# ----------------------------------------------------------------------
def attach_collector(
    predictor: ComposedPredictor,
    core_config: Optional[CoreConfig],
    trace: Optional[object],
):
    """Attach a telemetry collector when the run asks for one, or None."""
    wants = trace is not None or bool(core_config and core_config.telemetry)
    if not wants:
        return None
    from repro.telemetry import TelemetryCollector

    collector = TelemetryCollector(trace=trace)
    predictor.attach_telemetry(collector)
    return collector


@dataclass
class WalkCounts:
    """What one architectural walk observed."""

    instructions: int
    branches: int
    mispredicts: int


def counts_result(
    system: str,
    workload: str,
    counts: WalkCounts,
    backend: str,
    telemetry: Optional[dict] = None,
) -> RunResult:
    """Build the RunResult a trace-driven walk produces.

    Cycles, IPC, flush and indirect-target counts are structurally zero —
    the trace-driven methodology cannot observe them (§II-B).
    """
    instructions = counts.instructions
    mpki = 1000.0 * counts.mispredicts / instructions if instructions else 0.0
    accuracy = (
        1.0 - counts.mispredicts / counts.branches if counts.branches else 1.0
    )
    return RunResult(
        system=system,
        workload=workload,
        cycles=0,
        instructions=instructions,
        ipc=0.0,
        mpki=mpki,
        total_mpki=mpki,
        branch_accuracy=accuracy,
        branches=counts.branches,
        branch_mispredicts=counts.mispredicts,
        target_mispredicts=0,
        flushes=0,
        stats=None,
        telemetry=telemetry,
        backend=backend,
    )
