"""Run workloads on cores and collect results."""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, Iterable, Mapping, Optional, Union

from repro.core.composer import ComposedPredictor
from repro.eval.cache import ResultCache
from repro.eval.metrics import RunResult
from repro.eval.parallel import EvalJob, ParallelRunner, build_predictor
from repro.frontend.config import CoreConfig
from repro.isa.program import Program

#: A "system" is a predictor plus (optionally) a core configuration; a bare
#: predictor runs on the default Table-II core.
SystemSpec = Union[str, ComposedPredictor, tuple]


def _resolve_system(spec: SystemSpec, default_config: Optional[CoreConfig] = None):
    """Normalize a system spec to (name, predictor_spec, core_config).

    ``predictor_spec`` is what :class:`~repro.eval.parallel.EvalJob`
    carries: a preset name, a topology string, or a zero-argument factory,
    never a live predictor (each run must start from power-on state).
    """
    if isinstance(spec, str):
        return spec, spec, default_config or CoreConfig()
    if isinstance(spec, ComposedPredictor):
        raise TypeError(
            "pass a predictor *factory* (callable) or preset name so each "
            "run starts from power-on state"
        )
    name, factory, config = spec
    return name, factory, config or default_config or CoreConfig()


def run_workload(
    predictor: Union[str, ComposedPredictor],
    program: Union[Program, str],
    core_config: Optional[CoreConfig] = None,
    max_instructions: Optional[int] = None,
    max_cycles: Optional[int] = None,
    system_name: Optional[str] = None,
    telemetry: bool = False,
    trace_path: Optional[Union[str, Path]] = None,
    backend: str = "cycle",
) -> RunResult:
    """Run one workload to completion on one predictor.

    ``predictor`` may be a preset name or a topology string (a fresh
    instance is built by :func:`~repro.eval.parallel.build_predictor`) or
    an already-constructed :class:`ComposedPredictor` (used as given, in
    whatever state it is in: callers own warm-up semantics).  ``program``
    may be a live :class:`Program`, a registered workload name, or a
    stored-trace ``.npz`` path (see :mod:`repro.workloads.registry`).

    ``backend`` picks the execution methodology (``cycle``, ``trace``, or
    ``replay`` — see :mod:`repro.backends`).  ``telemetry`` attaches a
    collector and publishes its summary on the result; ``trace_path``
    additionally streams a bounded JSONL event trace to that file (and
    implies ``telemetry``).
    """
    # Function-level import: repro.backends imports repro.eval.metrics and
    # must not be pulled in while repro.eval is itself initializing.
    from repro.backends import RunLimits, get_backend
    from repro.workloads.registry import resolve_workload

    if isinstance(predictor, str):
        name = system_name or predictor
        predictor = build_predictor(predictor)
    else:
        name = system_name or predictor.describe()
    source = resolve_workload(program)
    config = core_config or CoreConfig()
    trace = None
    if trace_path is not None:
        from repro.telemetry import EventTrace

        trace = EventTrace(path=trace_path)
    if (telemetry or trace is not None) and not config.telemetry:
        config = dataclasses.replace(config, telemetry=True)
    try:
        return get_backend(backend).run(
            predictor,
            source,
            RunLimits(max_instructions, max_cycles),
            core_config=config,
            system=name,
            trace=trace,
        )
    finally:
        if trace is not None:
            trace.close()


def run_suite(
    systems: Iterable[SystemSpec],
    programs: Mapping[str, Union[Program, str, Path]],
    max_instructions: Optional[int] = None,
    progress: Optional[Callable[[str, str], None]] = None,
    max_cycles: Optional[int] = None,
    core_config: Optional[CoreConfig] = None,
    jobs: int = 1,
    cache: Union[None, str, Path, ResultCache] = None,
    telemetry: bool = False,
    backend: str = "cycle",
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (system, workload) pair; returns results[system][workload].

    Each pair gets a freshly built predictor so runs are independent, as in
    the paper's per-benchmark FPGA simulations.

    ``core_config`` is the shared default core for systems that do not
    carry their own (a ``(name, factory, config)`` tuple with a non-None
    config still wins).  ``max_cycles`` bounds each run like
    :func:`run_workload` does.  ``jobs`` > 1 fans the matrix over worker
    processes and ``cache`` (a directory path or
    :class:`~repro.eval.cache.ResultCache`) replays previously computed
    cells; both default to the serial, uncached reference behaviour and
    are guaranteed to produce identical results.

    ``telemetry`` turns the collector on for every cell (systems carrying
    their own config get a telemetry-enabled copy of it).  Telemetry flips
    the cache fingerprint — telemetry-on and telemetry-off results never
    alias — and the summary payload round-trips through cached entries.

    ``backend`` selects the execution methodology for every cell; a
    ``programs`` value may be a stored-trace ``.npz`` path (replay jobs
    carry the trace file, not a live program).  The backend (and the trace
    file's content hash) is part of the cache fingerprint.

    ``runner`` runs the matrix on a caller's (usually open)
    :class:`~repro.eval.parallel.ParallelRunner`, whose ``jobs``, ``cache``
    and ``progress`` then apply; passing any of those three as well is an
    error.
    """
    if runner is None:
        runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    elif jobs != 1 or cache is not None or progress is not None:
        raise ValueError("pass jobs, cache and progress to the runner, not here")
    batch = []
    order: Dict[str, None] = {}
    for spec in systems:
        name, predictor_spec, config = _resolve_system(spec, core_config)
        if telemetry and not config.telemetry:
            config = dataclasses.replace(config, telemetry=True)
        order.setdefault(name)
        for workload_name, workload in programs.items():
            is_program = isinstance(workload, Program)
            batch.append(
                EvalJob(
                    system=name,
                    spec=predictor_spec,
                    workload=workload_name,
                    program=workload if is_program else None,
                    core_config=config,
                    max_instructions=max_instructions,
                    max_cycles=max_cycles,
                    backend=backend,
                    trace_path=None if is_program else str(workload),
                )
            )
    results: Dict[str, Dict[str, RunResult]] = {name: {} for name in order}
    for job, result in zip(batch, runner.run(batch)):
        results[job.system][job.workload] = result
    return results
