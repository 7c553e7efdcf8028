"""Outside-in span and counter recording for the traced benchmark run.

Nothing under ``src/`` times itself, so the traced run wraps calls into
each layer's public functions from here: every wrapper records a span
(inclusive time, call count) and charges its duration to the enclosing
span, so a span's *self* time is its duration minus its children's.  The
sum of all self times is the time covered by outermost spans; the rest of
the traced wall time is ``other_s`` (benchmark bookkeeping).

Wrappers are installed for the duration of one traced region and removed
afterwards (:func:`install` returns the undo list), so the
untraced runs that give the end-to-end numbers execute the program
unmodified.

Forked pool workers (``explore_search``) inherit the installed wrappers.
:func:`traced_execute_job` replaces ``repro.eval.parallel._execute_job``;
inside a worker it resets the inherited recorder, runs the job, and writes
the worker's cumulative spans to a file the parent merges once the pool
has shut down.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """Span totals, child time, call counts and named counters."""

    def __init__(self) -> None:
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.child_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: One ``[child_ns]`` cell per open span, innermost last.
        self.stack: List[List[int]] = []
        self.pid = os.getpid()
        #: Spans recorded in pool workers, merged by :meth:`merge_workers`.
        self.worker_total_ns: Dict[str, int] = defaultdict(int)
        self.worker_child_ns: Dict[str, int] = defaultdict(int)
        self.worker_calls: Dict[str, int] = defaultdict(int)
        self.worker_dir: Optional[Path] = None

    def reset(self) -> None:
        """Forget everything (in place: wrappers hold these objects)."""
        for table in (
            self.total_ns,
            self.child_ns,
            self.calls,
            self.counters,
            self.worker_total_ns,
            self.worker_child_ns,
            self.worker_calls,
        ):
            table.clear()
        del self.stack[:]

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as span ``name``."""
        stack = self.stack
        total = self.total_ns
        child = self.child_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                total[name] += elapsed
                child[name] += cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is a span ``name``.

        Only the producer's own work is timed; the consumer runs between
        items, outside the span.  ``calls`` counts items produced.
        """
        stack = self.stack
        total = self.total_ns
        child = self.child_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                cell = [0]
                stack.append(cell)
                start = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter_ns() - start
                    stack.pop()
                    total[name] += elapsed
                    child[name] += cell[0]
                    if stack:
                        stack[-1][0] += elapsed
                calls[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_by_instance(
        self, suffix: str, fn: Callable, key: Callable[[object], str]
    ) -> Callable:
        """A method recorded as span ``key(self) + suffix``."""
        stack = self.stack
        total = self.total_ns
        child = self.child_ns
        calls = self.calls
        names: Dict[str, str] = {}

        def wrapper(obj, *args, **kwargs):
            raw = key(obj)
            name = names.get(raw)
            if name is None:
                name = names[raw] = raw + suffix
            cell = [0]
            stack.append(cell)
            start = perf_counter_ns()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                total[name] += elapsed
                child[name] += cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def self_ns(self) -> Dict[str, int]:
        child = self.child_ns
        return {name: total - child[name] for name, total in self.total_ns.items()}

    # ------------------------------------------------------------------
    # Pool workers
    # ------------------------------------------------------------------
    def dump_worker(self) -> None:
        """Write this worker's cumulative spans for the parent to merge."""
        assert self.worker_dir is not None
        payload = {
            "total_ns": dict(self.total_ns),
            "child_ns": dict(self.child_ns),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def merge_workers(self) -> None:
        """Fold every finished worker's spans into the worker tables.

        Called after a pool has shut down, so each file is final; the
        files are removed so a later pool reusing a pid starts clean.
        """
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for name, value in payload["total_ns"].items():
                self.worker_total_ns[name] += value
            for name, value in payload["child_ns"].items():
                self.worker_child_ns[name] += value
            for name, value in payload["calls"].items():
                self.worker_calls[name] += value
            for name, value in payload["counters"].items():
                self.counters[name] += value
            path.unlink()


#: The recorder :func:`traced_execute_job` reports into.  Module-level
#: because the job function is pickled by reference to run in workers.
ACTIVE: Optional[Recorder] = None
_ORIGINAL_EXECUTE_JOB: Optional[Callable] = None
#: The process whose inherited spans were last dropped.
_RESET_PID: Optional[int] = None


def traced_execute_job(job):
    """``repro.eval.parallel._execute_job`` with worker-side recording."""
    global _RESET_PID
    recorder = ACTIVE
    pid = os.getpid()
    if recorder is None or pid == recorder.pid:
        # In the parent (serial fallback): the inner spans record there.
        return _ORIGINAL_EXECUTE_JOB(job)
    if _RESET_PID != pid:
        # First job in a freshly forked worker: drop the parent's
        # inherited spans and open-span stack.
        recorder.reset()
        _RESET_PID = pid
    result = recorder.wrap("eval.worker_job", _ORIGINAL_EXECUTE_JOB)(job)
    recorder.dump_worker()
    return result


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
Undo = List[Tuple[object, str, object]]
_MISSING = object()


def _patch(undo: Undo, owner, attr: str, value) -> None:
    """Set ``owner.attr``, remembering how to put it back.

    Modules and classes must define ``attr`` themselves; on an instance
    the wrapper shadows the class method and undo deletes it again.
    """
    original = vars(owner).get(attr, _MISSING)
    if original is _MISSING and isinstance(owner, (type, ModuleType)):
        raise AttributeError(f"{owner!r} does not define {attr!r} itself")
    undo.append((owner, attr, original))
    setattr(owner, attr, value)


def uninstall(undo: Undo) -> None:
    """Restore every patched attribute, newest first."""
    global ACTIVE
    for owner, attr, original in reversed(undo):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    del undo[:]
    ACTIVE = None


def install(recorder: Recorder, worker_dir: Path) -> Undo:
    """Wrap every layer's public entry points; return the undo list."""
    global ACTIVE, _ORIGINAL_EXECUTE_JOB
    import repro.backends.replay as replay_mod
    import repro.eval.parallel as parallel_mod
    import repro.explore.search as search_mod
    import repro.kernels.engine as engine_mod
    import repro.workloads.generators as generators_mod
    import repro.workloads.traces as traces_mod
    from repro.backends import backend_names, get_backend
    from repro.core.interface import PredictorComponent
    from repro.core.composer import ComposedPredictor
    from repro.eval.cache import ResultCache
    from repro.explore.pareto import ParetoArchive
    from repro.frontend.core import Core
    from repro.isa.interpreter import Interpreter
    from repro.synthesis.area import AreaModel
    from repro.workloads.traces import BranchTrace

    rec = recorder
    undo: Undo = []
    counters = rec.counters

    def span(owner, attr: str, name: str, fn: Optional[Callable] = None) -> None:
        """Record ``owner.attr`` (or ``fn`` in its place) as span ``name``."""
        _patch(undo, owner, attr, rec.wrap(name, fn or getattr(owner, attr)))

    # repro.workloads
    span(generators_mod, "assemble_workload", "workloads.build")
    span(traces_mod, "capture_trace", "workloads.capture")
    span(BranchTrace, "save", "workloads.capture")
    load = BranchTrace.__dict__["load"].__func__
    _patch(undo, BranchTrace, "load",
           classmethod(rec.wrap("workloads.trace_load", load)))

    # repro.isa
    _patch(undo, Interpreter, "run",
           rec.wrap_generator("isa.interp", Interpreter.run))

    # repro.backends: one span per backend instance, plus packet rebuild.
    for name in backend_names():
        span(get_backend(name), "run", f"backends.{name}.run")
    span(replay_mod, "trace_packets", "backends.trace_packets")

    # repro.kernels: engine eligibility per cell, then every window.
    engine_for = engine_mod.engine_for

    def counting_engine_for(predictor):
        engine = engine_for(predictor)
        if engine is not None:
            counters["kernels.cells_engaged"] += 1
        return engine

    _patch(undo, engine_mod, "engine_for", counting_engine_for)
    segment_run = engine_mod.SegmentEngine.run

    def counting_segment_run(engine, cols, pc0, bi, k, budget):
        seg = segment_run(engine, cols, pc0, bi, k, budget)
        counters["kernels.windows_attempted"] += 1
        counters["kernels.records_offered"] += min(k, cols.n_records - bi)
        if seg.packets:
            counters["kernels.windows_accepted"] += 1
            counters["kernels.records_accepted"] += seg.records
        if seg.impure_next:
            counters["kernels.impure_cuts"] += 1
        return seg

    span(engine_mod.SegmentEngine, "run", "kernels.run", counting_segment_run)

    # repro.core (composer)
    span(ComposedPredictor, "predict", "core.predict")
    span(ComposedPredictor, "commit_packet", "core.commit")
    span(ComposedPredictor, "resolve_mispredict", "core.resolve")
    span(ComposedPredictor, "squash_after", "core.squash")

    # repro.components: every concrete class that defines its own hooks,
    # recorded per instance unit (``tage`` -> ``components.TAGE``).
    def unit(component) -> str:
        return "components." + component.name.upper()

    for cls in _component_classes(PredictorComponent):
        for attr, suffix in (("lookup", ".lookup"), ("on_update", ".update")):
            if attr in cls.__dict__:
                hook = rec.wrap_by_instance(suffix, cls.__dict__[attr], unit)
                _patch(undo, cls, attr, hook)

    # repro.frontend
    span(Core, "run", "frontend.run")

    # repro.eval
    runner_run = rec.wrap("eval.runner", parallel_mod.ParallelRunner.run)
    _patch(undo, parallel_mod.ParallelRunner, "run", _merging(rec, runner_run))
    span(parallel_mod, "job_cache_key", "eval.key")
    cache_get = ResultCache.get

    def counting_get(cache, key):
        result = cache_get(cache, key)
        hit = result is not None
        counters["eval.cache_hits" if hit else "eval.cache_misses"] += 1
        return result

    span(ResultCache, "get", "eval.cache_get", counting_get)
    span(ResultCache, "put", "eval.cache_put")
    span(search_mod, "evaluate_designs", "eval.designs")
    _ORIGINAL_EXECUTE_JOB = parallel_mod._execute_job
    _patch(undo, parallel_mod, "_execute_job", traced_execute_job)

    # repro.synthesis
    span(AreaModel, "predictor_total", "synthesis.area")

    # repro.explore
    span(search_mod, "mutate", "explore.breed")
    span(search_mod, "crossover", "explore.breed")
    span(ParetoArchive, "offer", "explore.archive")

    rec.worker_dir = worker_dir
    ACTIVE = rec
    return undo


def _merging(recorder: Recorder, runner_run: Callable) -> Callable:
    """``ParallelRunner.run`` that merges worker spans once its pool is gone."""

    def run(runner, batch):
        try:
            return runner_run(runner, batch)
        finally:
            recorder.merge_workers()

    return run


def _component_classes(base) -> List[type]:
    seen: List[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen
