"""Per-packet cost of the scalar predict/commit path, hook by hook.

Drives each preset over the ``replay_dense`` programs (``mcf``,
``deepsjeng``, ``leela``, ``xz``) with the trace-driven walker and the
segment engine off, so every branchy packet goes through the composer's
scalar path.  Each component hook and each composer step is wrapped with a
``perf_counter_ns`` span; a span's self time is its duration minus the
spans it encloses.  The table gives microseconds per predicted packet:

- one row per component hook (``lookup``, ``fire``, ``update``,
  ``mispredict``, ``repair``);
- the composer's own bookkeeping: the ``predict`` body, the evaluation
  plan's steps, its merges, event dispatch, history-file ``allocate``,
  the ``commit_packet`` body, and resolve plus squash.

The wrappers add their own cost, so the absolute figures read high; compare
two trees with the same script.  ``--src`` points the script at another
checkout's ``src/`` (for example a copy of the parent commit), so the two
trees run side by side on the same host.  An untimed ``trace`` backend run
of every cell gives the reference walk counts; the instrumented walk must
match them exactly, or the script exits 1.

Usage (from the repository root)::

    python benchmarks/bench_scalar_path.py            # scale 0.1
    python benchmarks/bench_scalar_path.py --quick    # CI smoke
    python benchmarks/bench_scalar_path.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

PRESETS = ("tage_l", "b2", "tourney")
PROGRAMS = ("mcf", "deepsjeng", "leela", "xz")
#: Component hooks, as the composer calls them, and their row names.
HOOKS = (
    ("lookup", "lookup"),
    ("fire", "fire"),
    ("on_update", "update"),
    ("on_mispredict", "mispredict"),
    ("on_repair", "repair"),
)


class Spans:
    """Nested spans: inclusive time, time of enclosed spans, calls.

    A wrapper costs time outside its own clock readings, which lands in
    the enclosing span.  ``overhead_ns`` (see :meth:`calibrate`) is that
    cost per enclosed call, and :meth:`self_ns` deducts it.
    """

    def __init__(self):
        self.total = defaultdict(int)
        self.child = defaultdict(int)
        self.child_calls = defaultdict(int)
        self.calls = defaultdict(int)
        self.stack = []
        self.overhead_ns = 0.0

    def wrap(self, name, fn):
        from time import perf_counter_ns

        stack, total, child = self.stack, self.total, self.child
        calls, child_calls = self.calls, self.child_calls

        def wrapper(*args, **kwargs):
            cell = [0, 0]
            stack.append(cell)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                total[name] += elapsed
                child[name] += cell[0]
                child_calls[name] += cell[1]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1

        return wrapper

    def self_ns(self, name):
        return (
            self.total[name]
            - self.child[name]
            - self.overhead_ns * self.child_calls[name]
        )

    def calibrate(self, calls=20000):
        """Measure the wrapper cost an enclosing span absorbs per call."""
        probe = Spans()
        inner = probe.wrap("inner", lambda: None)

        def outer():
            for _ in range(calls):
                inner()

        bare = Spans()
        plain = bare.wrap("outer", lambda: [None for _ in range(calls)])
        probe.wrap("outer", outer)()
        plain()
        per_call = (probe.self_ns("outer") - bare.self_ns("outer")) / calls
        self.overhead_ns = max(per_call, 0.0)


def patch_composer(spans):
    """Wrap the composer's steps at class and module level; return undo."""
    import repro.core.composer as composer_mod
    import repro.core.repair as repair_mod
    import repro.core.topology as topology_mod
    from repro.core.composer import ComposedPredictor
    from repro.core.history_file import HistoryFile
    from repro.core.topology import EvaluationPlan

    targets = [
        (ComposedPredictor, "predict", "predict body"),
        (ComposedPredictor, "commit_packet", "commit body"),
        (ComposedPredictor, "resolve_mispredict", "resolve + squash"),
        (ComposedPredictor, "squash_after", "resolve + squash"),
        (EvaluationPlan, "run", "plan steps"),
        (topology_mod, "merge_by_hit", "merges"),
        (composer_mod, "dispatch_event", "event dispatch"),
        (repair_mod, "dispatch_event", "event dispatch"),
        (HistoryFile, "allocate", "allocate"),
    ]
    undo = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, spans.wrap(name, original))
    return undo


def patch_components(spans, predictor):
    """Shadow each component's hooks with per-instance wrappers."""
    for component in predictor.components:
        unit = component.name.upper()
        for hook, row in HOOKS:
            bound = getattr(component, hook)
            setattr(component, hook, spans.wrap(f"{unit}.{row}", bound))


def build_sources(scale):
    from repro.workloads import specint
    from repro.workloads.registry import WorkloadSource

    return {
        name: WorkloadSource(name=name, program=specint.build(name, scale))
        for name in PROGRAMS
    }


def reference_counts(preset, source):
    from repro import presets
    from repro.backends import RunLimits, get_backend

    result = get_backend("trace").run(presets.build(preset), source, RunLimits())
    return (result.instructions, result.branches, result.branch_mispredicts)


def scalar_walk(predictor, source):
    from repro.backends import replay

    trace = source.branch_trace(None)
    packets = replay.trace_packets(trace, predictor.config.fetch_width)
    counts = replay.drive_columns(predictor, trace, packets, engine=None)
    return (counts.instructions, counts.branches, counts.mispredicts)


def measure(preset, sources, repeat):
    """(spans, packets, untraced seconds, failures) for one preset."""
    from repro import presets

    failures = []
    untraced = 0.0
    for source in sources.values():
        best = None
        for _ in range(repeat):
            predictor = presets.build(preset)
            start = time.perf_counter()
            scalar_walk(predictor, source)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        untraced += best

    expected_counts = {
        name: reference_counts(preset, source) for name, source in sources.items()
    }
    spans = Spans()
    spans.calibrate()
    undo = patch_composer(spans)
    try:
        for name, source in sources.items():
            predictor = presets.build(preset)
            patch_components(spans, predictor)
            counts = scalar_walk(predictor, source)
            expected = expected_counts[name]
            if counts != expected:
                failures.append(f"{preset}/{name}: walk {counts} != trace {expected}")
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return spans, spans.calls["predict body"], untraced, failures


def report(preset, spans, packets, untraced):
    lines = [f"{preset}: {packets} packets, untraced "
             f"{1e6 * untraced / max(packets, 1):.1f} us/packet, "
             f"wrapper cost {spans.overhead_ns:.0f} ns/call deducted"]
    per = 1e-3 / max(packets, 1)
    components = 0.0
    for name in sorted(spans.total):
        if "." not in name or spans.calls[name] == 0:
            continue
        us = spans.self_ns(name) * per
        components += us
        lines.append(f"  {name:24s} {us:7.2f} us  ({spans.calls[name]} calls)")
    lines.append(f"  {'components':24s} {components:7.2f} us")
    composer = 0.0
    for name in ("predict body", "plan steps", "merges", "event dispatch",
                 "allocate", "commit body", "resolve + squash"):
        us = spans.self_ns(name) * per
        composer += us
        lines.append(f"  {name:24s} {us:7.2f} us  ({spans.calls[name]} calls)")
    lines.append(f"  {'composer bookkeeping':24s} {composer:7.2f} us")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny programs, one repeat: a smoke run")
    parser.add_argument("--scale", type=float, default=None,
                        help="program scale (default 0.1, --quick 0.01)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="untraced repeats per cell, best kept (default 3)")
    parser.add_argument("--src", type=Path, default=None,
                        help="the src/ directory of the tree to measure")
    args = parser.parse_args(argv)
    src = args.src or Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))

    scale = args.scale if args.scale is not None else (0.01 if args.quick else 0.1)
    repeat = args.repeat if args.repeat is not None else (1 if args.quick else 3)
    sources = build_sources(scale)
    print(f"scalar path, engine off: {', '.join(PROGRAMS)} at scale {scale} "
          f"(src {src})")
    failures = []
    for preset in PRESETS:
        spans, packets, untraced, failed = measure(preset, sources, repeat)
        failures += failed
        print(report(preset, spans, packets, untraced))
    for failure in failures:
        print("MISMATCH", failure)
    print("walk counts:", "match trace" if not failures else "MISMATCH")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
