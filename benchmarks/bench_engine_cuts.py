"""Why segment-engine windows end, over perfbench's ``replay_sparse`` pass.

The replay walker hands each window of upcoming branch records to the
segment engine (:mod:`repro.kernels.engine`), which accepts the longest
pure prefix and names what ended it: a mispredict, a component whose
``mutates`` column marked the next packet, or neither (the window or the
instruction budget ran out).  The walker then walks the impure packet
scalar, plus a back-off after attempts too short to pay.  This script
runs every cell of perfbench's seed-0 ``replay_sparse`` pass with the
engine on and prints, per preset and in total:

- windows attempted and accepted, records offered and accepted;
- cuts by cause, and the scalar packets walked after each cause (every
  ``predict`` call until the next engine attempt);
- numpy C calls per window: ``c_call`` events from ``sys.setprofile``
  inside ``SegmentEngine.run`` whose callee is a numpy function or a
  method of a numpy object (``ndarray.any``, ``ufunc.reduce``, ...).
  Ufunc calls and numpy's dispatched functions (``np.where``,
  ``np.add``) raise no ``c_call`` event on CPython and are not counted,
  nor are array operators, so this is a lower bound on the C-level work
  that opcode counts (``bench_opcodes.py``) miss.

Every count is deterministic for a given tree.  A tree whose
``EngineResult`` has no ``cause`` (older checkouts) gets it rebuilt here
from the kernels' ``mutates`` columns, with the engine's rule: the first
component in plan order that marks the stop packet, else a mispredict.

Usage (from the repository root)::

    python benchmarks/bench_engine_cuts.py                 # the full pass
    python benchmarks/bench_engine_cuts.py --quick         # CI smoke
    python benchmarks/bench_engine_cuts.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Cause label of a stop that is a window or budget artifact.
STOP = "(window/budget)"
#: Cause label of scalar packets walked before a cell's first attempt.
START = "(before any window)"


class CutCounter:
    """Engine attempts, cut causes and scalar packets, per preset."""

    def __init__(self):
        self.preset = None
        self.cause = START
        self.kernels = {}  # preset -> component names, plan order
        self.counts = defaultdict(lambda: defaultdict(int))
        self.cuts = defaultdict(lambda: defaultdict(int))
        self.walked = defaultdict(lambda: defaultdict(int))

    def start_cell(self, preset: str) -> None:
        self.preset = preset
        self.cause = START

    def window(self, engine, offered, seg, c_calls, columns) -> None:
        self.kernels.setdefault(self.preset, list(engine.kernels))
        counts = self.counts[self.preset]
        counts["windows attempted"] += 1
        counts["records offered"] += offered
        counts["numpy C calls"] += c_calls
        if seg.packets:
            counts["windows accepted"] += 1
            counts["records accepted"] += seg.records
        if hasattr(seg, "cause"):
            cause = seg.cause
        elif seg.impure_next:  # a tree without EngineResult.cause
            marked = [name for name, column in columns if column[seg.packets]]
            cause = marked[0] if marked else "mispredict"
        else:
            cause = None
        self.cause = STOP if cause is None else cause
        self.cuts[self.preset][self.cause] += 1

    def predicted(self) -> None:
        self.walked[self.preset][self.cause] += 1

    def render(self) -> str:
        lines = []
        presets = list(self.counts)
        for preset in presets + ["all"]:
            group = presets if preset == "all" else [preset]
            kernels = []
            for name in group:
                kernels += [k for k in self.kernels[name] if k not in kernels]
            order = ["mispredict", *kernels, STOP]
            if any(self.walked[name][START] for name in group):
                order.append(START)

            def total(table, key):
                return sum(table[name][key] for name in group)

            def count(key):
                return total(self.counts, key)

            windows = count("windows attempted")
            lines.append(f"{preset}")
            lines.append(
                f"  windows attempted / accepted   {windows:8d} / "
                f"{count('windows accepted')}"
            )
            lines.append(
                f"  records offered / accepted     {count('records offered'):8d} / "
                f"{count('records accepted')}"
            )
            per_window = count("numpy C calls") / windows if windows else 0.0
            lines.append(f"  numpy C calls per window       {per_window:8.1f}")
            lines.append(
                f"  {'cut cause':22s} {'cuts':>8s} {'scalar packets after':>22s}"
            )
            for cause in order:
                lines.append(
                    f"  {cause:22s} {total(self.cuts, cause):8d} "
                    f"{total(self.walked, cause):22d}"
                )
            lines.append(
                f"  {'total':22s} {sum(total(self.cuts, c) for c in order):8d} "
                f"{sum(total(self.walked, c) for c in order):22d}"
            )
            lines.append("")
        return "\n".join(lines)


def is_numpy(fn) -> bool:
    """Whether a ``c_call`` callee is a numpy function or a method of a
    numpy object."""
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(getattr(fn, "__self__", None)).__module__
    return module.split(".")[0] == "numpy"


def instrument(counter: CutCounter):
    """Patch the engine and the composer; returns the undo callable."""
    from repro.core.composer import ComposedPredictor
    from repro.kernels.engine import SegmentEngine

    run = SegmentEngine.run
    predict = ComposedPredictor.predict

    def counting_run(engine, cols, pc0, bi, k, budget):
        columns = []
        for name, kernel in engine.kernels.items():
            mutates = kernel.mutates

            def recording(ctx, name=name, mutates=mutates):
                column = mutates(ctx)
                columns.append((name, column))
                return column

            kernel.mutates = recording
        c_calls = 0

        def profile(frame, event, arg):
            nonlocal c_calls
            if event == "c_call" and is_numpy(arg):
                c_calls += 1

        sys.setprofile(profile)
        try:
            seg = run(engine, cols, pc0, bi, k, budget)
        finally:
            sys.setprofile(None)
            for kernel in engine.kernels.values():
                del kernel.mutates
        counter.window(engine, min(k, cols.n_records - bi), seg, c_calls, columns)
        return seg

    def counting_predict(self, *args, **kwargs):
        counter.predicted()
        return predict(self, *args, **kwargs)

    SegmentEngine.run = counting_run
    ComposedPredictor.predict = counting_predict

    def undo():
        SegmentEngine.run = run
        ComposedPredictor.predict = predict

    return undo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="one data draw of two programs (CI smoke)"
    )
    parser.add_argument(
        "--src", type=Path, default=None, help="src/ of another tree to measure"
    )
    args = parser.parse_args(argv)
    src = args.src or ROOT / "src"
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(1, str(ROOT))
    from perfbench.suite import ReplaySparse
    from repro import presets
    from repro.backends import RunLimits, get_backend

    counter = CutCounter()
    with tempfile.TemporaryDirectory() as workdir:
        sweep = ReplaySparse(seed=0, workdir=Path(workdir))
        if args.quick:
            sweep.programs = sweep.programs[:2]
            sweep.variants = 1
        sweep.setup()
        backend = get_backend(sweep.backend)
        undo = instrument(counter)
        try:
            for preset, program in sweep.cells():
                counter.start_cell(preset)
                backend.run(presets.build(preset), sweep.sources[program], RunLimits())
        finally:
            undo()
    print(
        f"replay_sparse seed 0, {len(sweep.live)} programs x "
        f"{len(sweep.presets)} presets, engine on; src {src}"
    )
    print(counter.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
