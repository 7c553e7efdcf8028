"""Parallel evaluation engine: fan (system × workload) jobs over processes.

The paper's workflow evaluates every candidate design over every workload —
an embarrassingly parallel matrix whose cells share nothing (each run
starts from a power-on-fresh predictor).  This module turns that matrix
into picklable :class:`EvalJob` records and executes them over a
``concurrent.futures.ProcessPoolExecutor``, with a deterministic on-disk
result cache (:mod:`repro.eval.cache`) consulted before any work is
scheduled.

Design rules:

- **Jobs ship specs, not objects.**  A job carries a predictor spec — a
  preset name, a topology string, or a picklable factory — plus the
  :class:`~repro.isa.program.Program`; the worker rebuilds the predictor
  from scratch with :func:`build_predictor`, which both keeps the job
  picklable and guarantees power-on-fresh state — exactly what the serial
  path does.
- **Serial is the reference.**  ``jobs=1`` executes in submission order in
  the parent process with no executor involved; the parallel path must be
  bit-identical to it (runs are deterministic), which the test suite
  checks.
- **Degrade, never fail.**  Unpicklable jobs (closure factories) fall back
  to in-process execution.  A worker crash (``BrokenProcessPool``) reruns
  that batch's unfinished jobs serially and drops the broken pool, so the
  next batch starts a fresh one.  A job that raises in a worker is retried
  once in the parent so real errors surface with a clean traceback.
  Results come back in submission order.
- **One pool per open runner.**  The pool starts lazily, on the first
  batch with more than one picklable cache miss.  A runner used as a
  context manager keeps that pool, and its warm workers, for every later
  :meth:`ParallelRunner.run` until :meth:`ParallelRunner.close`; a
  ``run()`` on a runner that is not open shuts its pool down before it
  returns.  Either way no worker outlives the runner.  A whole
  ``repro explore`` search runs through one open runner.

This module must not import :mod:`repro.eval.runner` (the runner builds on
the engine, not the other way around).
"""

from __future__ import annotations

import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro import presets
from repro.core.composer import ComposedPredictor, compose
from repro.eval import cache as result_cache
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.isa.program import Program

#: Called as ``progress(system, workload)`` as each job is dispatched.
ProgressFn = Callable[[str, str], None]


@dataclass
class EvalJob:
    """One (system, workload) cell of an evaluation matrix.

    ``spec`` is a preset name, a topology string, or a zero-argument
    predictor factory (see :func:`build_predictor`); the predictor is
    always built *inside* the executing process so every run starts from
    power-on state.
    """

    system: str
    spec: Union[str, Callable[[], ComposedPredictor]]
    workload: str
    program: Optional[Program] = None
    core_config: CoreConfig = field(default_factory=CoreConfig)
    max_instructions: Optional[int] = None
    max_cycles: Optional[int] = None
    #: Execution backend name (see :mod:`repro.backends`).
    backend: str = "cycle"
    #: Stored ``BranchTrace`` npz for replay jobs with no live program.
    trace_path: Optional[str] = None


def build_predictor(
    spec: Union[str, Callable[[], ComposedPredictor]],
) -> ComposedPredictor:
    """Instantiate a predictor spec in power-on state.

    The one resolver every front door uses: a preset name (see
    :func:`repro.presets.preset_name`) builds that preset, any other string
    is a topology composed over the standard library with a default
    :class:`~repro.core.composer.ComposerConfig`, and a callable is called.
    """
    if not isinstance(spec, str):
        return spec()
    if presets.preset_name(spec) is not None:
        return presets.build(spec)
    return compose(spec)


def _execute_job(job: EvalJob) -> RunResult:
    """Run one job to completion; module-level so workers can unpickle it."""
    # Function-level imports: repro.backends pulls in repro.eval.metrics, so
    # importing it at module scope here would cycle through repro.eval.
    from repro.backends import RunLimits, get_backend
    from repro.workloads.registry import WorkloadSource

    predictor = build_predictor(job.spec)
    source = WorkloadSource(
        name=job.workload, program=job.program, trace_path=job.trace_path
    )
    return get_backend(job.backend).run(
        predictor,
        source,
        RunLimits(job.max_instructions, job.max_cycles),
        core_config=job.core_config,
        system=job.system,
    )


def job_cache_key(job: EvalJob) -> str:
    """The deterministic result-cache key for one job.

    Shared by :class:`ParallelRunner` and the evaluation service
    (:mod:`repro.service`), so an HTTP job submission, a CLI sweep, and a
    warm cache entry written by either all agree on what "the same run"
    means.  Building the key builds the predictor once (fingerprints hash
    behaviour-bearing state, not names).
    """
    trace_digest = (
        result_cache.trace_file_digest(job.trace_path)
        if job.trace_path is not None
        else None
    )
    fingerprint = result_cache.job_fingerprint(
        build_predictor(job.spec),
        job.program,
        job.core_config,
        job.max_instructions,
        job.max_cycles,
        backend=job.backend,
        trace_digest=trace_digest,
        workload=job.workload,
    )
    return result_cache.fingerprint_key(fingerprint)


def _is_picklable(job: EvalJob) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


class ParallelRunner:
    """Executes batches of :class:`EvalJob` with caching and fan-out.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (the default) runs everything in the
        parent process — the bit-identical reference path.
    cache:
        A :class:`~repro.eval.cache.ResultCache`, a directory path, or
        None (caching off).  Cached results are returned without
        scheduling any work; fresh results are written back.
    progress:
        Optional ``progress(system, workload)`` callback fired once per
        job as it is dispatched (including cache hits).

    Used as a context manager the runner is *open*: the worker pool the
    first parallel batch starts serves every later :meth:`run`, and
    :meth:`close` (or leaving the ``with`` block) shuts it down.  A runner
    that is not open shuts its pool down at the end of each :meth:`run`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[None, str, "result_cache.ResultCache"] = None,
        progress: Optional[ProgressFn] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = result_cache.resolve_cache(cache)
        self.progress = progress
        self._open = False
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "ParallelRunner":
        self._open = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and join its workers."""
        self._open = False
        self._close_pool()

    # ------------------------------------------------------------------
    def run(self, batch: Sequence[EvalJob]) -> List[RunResult]:
        """Execute every job; results are returned in submission order."""
        batch = list(batch)
        results: List[Optional[RunResult]] = [None] * len(batch)
        keys: List[Optional[str]] = [None] * len(batch)

        pending: List[int] = []
        for index, job in enumerate(batch):
            if self.cache is not None:
                keys[index] = self._key_for(job)
                cached = self.cache.get(keys[index])
                if cached is not None:
                    self._report(job)
                    results[index] = cached
                    continue
            pending.append(index)

        parallel: List[int] = []
        if self.jobs > 1 and len(pending) > 1:
            parallel = [i for i in pending if _is_picklable(batch[i])]
        if len(parallel) < 2:
            # A pool for one job only costs its start-up.
            parallel = []
        fanned = set(parallel)
        serial_only = [i for i in pending if i not in fanned]
        if parallel:
            for index in parallel:
                self._report(batch[index])
            try:
                self._run_parallel(batch, parallel, results)
            finally:
                if not self._open:
                    self._close_pool()
        for index in serial_only:
            self._report(batch[index])
            results[index] = _execute_job(batch[index])

        if self.cache is not None:
            for index, result in enumerate(results):
                if keys[index] is not None and result is not None:
                    if not self.cache.path_for(keys[index]).exists():
                        self.cache.put(keys[index], result)
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _report(self, job: EvalJob) -> None:
        if self.progress is not None:
            self.progress(job.system, job.workload)

    def _key_for(self, job: EvalJob) -> str:
        return job_cache_key(job)

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _run_parallel(
        self,
        batch: Sequence[EvalJob],
        indices: List[int],
        results: List[Optional[RunResult]],
    ) -> None:
        """Fan ``indices`` over the worker pool, filling ``results``.

        Starts the pool if the runner has none.  Any pool-level failure (a
        worker killed by the OS, a broken pipe) drops the pool and runs
        the unfinished jobs serially.  A job that raised in a worker
        reruns once in the parent, so a deterministic failure propagates
        from there with its real traceback.
        """
        unfinished = list(indices)
        failed: List[int] = []
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            pool = self._pool
            futures = {pool.submit(_execute_job, batch[i]): i for i in indices}
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    error = future.exception()
                    if error is None:
                        results[index] = future.result()
                        unfinished.remove(index)
                    elif isinstance(error, BrokenProcessPool):
                        raise error
                    else:
                        failed.append(index)
                        unfinished.remove(index)
        except BrokenProcessPool:
            # The pool died (e.g. a worker was OOM-killed); everything not
            # yet finished reruns in-process, and the next batch starts a
            # fresh pool.
            self._close_pool()
            for index in list(unfinished):
                results[index] = _execute_job(batch[index])
                unfinished.remove(index)

        for index in failed:
            results[index] = _execute_job(batch[index])
