"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cycle_fig10 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload replay_dense --trace 1 \\
        --breakdown perfbench/baseline/replay_dense.json
    python3 perfbench/run.py --write-reference

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` first times untraced passes, then installs the outside-in
wrappers of :mod:`perfbench.spans` for one traced set-up plus one traced
pass and reports the per-layer metrics, ``trace.other_s`` and the tracing
overhead.  Workloads, metrics and their meaning are listed by
``python3 perfbench/catalog.py``.

Every cell's simulated counts are checked against a reference: the
committed ``reference/seed0.json`` for the default seed, otherwise the
``trace`` backend's counts (and, where the backend models more than the
trace methodology can observe, the first pass).  A cell that raises or
mismatches counts as failed, and the run reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--breakdown", type=Path, help="with --trace 1: write every span here"
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="regenerate reference/seed0.json from the current program",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import suite

    if not args.write_reference and args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.write_reference:
            return write_reference(workdir)
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed cells against the expected outputs.

    ``expected`` maps cell keys to the counts a cell must reproduce; any
    count a cell reports beyond those must repeat exactly on every later
    pass (the first pass pins it).
    """

    def __init__(self, expected: Optional[Dict[str, dict]]):
        self.expected = {k: dict(v) for k, v in (expected or {}).items()}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, key: str, counts: dict, error: Optional[str]) -> bool:
        self.attempted += 1
        if error is not None:
            return self._fail(f"{key}: raised {error}")
        want = self.expected.setdefault(key, {})
        for name, value in counts.items():
            if name not in want:
                want[name] = value
            elif want[name] != value:
                return self._fail(
                    f"{key}: {name} {value!r} != reference {want[name]!r}"
                )
        return True

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
        return False


def check_pass(workload, checker: Checker, result) -> None:
    if workload.name != "explore_search":
        for cell in result.cells:
            checker.check(cell.key, cell.counts, cell.error)
        return
    by_phase = {cell.key: cell for cell in result.cells}
    cold, warm = by_phase.get("cold"), by_phase.get("warm")
    if cold is None or warm is None:
        for phase in ("cold", "warm"):
            cell = by_phase.get(phase)
            checker.check(phase, {}, cell.error if cell else "did not run")
        return
    front = {"front_digest": cold.counts["front_digest"]}
    checker.check("search", front, cold.error)
    if warm.error is not None or warm.counts["front_digest"] != front["front_digest"]:
        checker.check("warm", {}, warm.error or "warm front differs from cold")
    elif warm.counts["cold_evaluations"] != 0:
        checker.check("warm", {}, f"{warm.counts['cold_evaluations']} cold jobs")
    else:
        checker.check("warm", {}, None)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def prepare(args, workload):
    """Imports, repeated set-up and the reference: ``(setup_s, checker)``."""
    from perfbench import suite

    for module in workload.modules:
        importlib.import_module(module)
    setups = []
    for _ in range(SETUP_REPEATS):
        before = suite.host_speed()
        import_s = import_seconds(workload.modules)
        start = time.perf_counter()
        workload.setup()
        seconds = import_s + time.perf_counter() - start
        calibration = (before + suite.host_speed()) / 2
        setups.append(seconds * suite.CALIBRATION_REFERENCE_S / calibration)
    setup_s = statistics.median(setups)

    drift = suite.check_standins(workload.programs, workload.scale)
    if drift:
        print(f"error: kernel mixes differ from repro.workloads.specint for {drift}",
              file=sys.stderr)
        return None
    committed = None
    if args.seed == suite.DEFAULT_SEED:
        entry = suite.load_reference().get(workload.name)
        if entry is None or entry["config"] != workload.config():
            print("error: reference/seed0.json does not match this workload's "
                  "configuration; rerun with --write-reference", file=sys.stderr)
            return None
        committed = entry
    checker = Checker(workload.reference(committed))
    return setup_s, checker


def import_seconds(modules) -> float:
    """Time a fresh interpreter takes to import ``modules``."""
    code = (
        "import time; start = time.perf_counter(); import {}; "
        "print(time.perf_counter() - start)".format(", ".join(modules))
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


def run_passes(workload, seconds: float, checker: Checker) -> list:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        result = workload.run_pass()
        check_pass(workload, checker, result)
        passes.append(result)
    return passes


def warm_up(workload) -> None:
    """One untimed cell, so lazy imports and first-call costs are paid."""
    if hasattr(workload, "run_cell"):
        preset, program = workload.cells()[0]
        workload.run_cell(preset, program)


def measure(args, workdir: Path) -> Optional[dict]:
    from perfbench import suite

    workload = suite.WORKLOADS[args.workload](args.seed, workdir)
    prepared = prepare(args, workload)
    if prepared is None:
        return None
    setup_s, checker = prepared
    warm_up(workload)
    if args.trace:
        metrics = traced(args, workload, checker, workdir)
    else:
        passes = run_passes(workload, args.seconds, checker)
        metrics = end_to_end(workload, passes, setup_s)
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, plus the largest pool worker for explore.

    Only a pool's workers count as children: the import-timing
    interpreters that set-up starts are not part of the workload.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if getattr(workload, "jobs", 1) > 1:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(workload, passes, setup_s: float) -> Dict[str, dict]:
    from perfbench import catalog

    good = [p for p in passes if all(c.error is None for c in p.cells)]
    if not good:
        # Every pass failed (the run reports "correct": false); keep the
        # output valid JSON.
        values = {m.name: 0.0 for m in catalog.END_TO_END}
        values["setup_s"] = setup_s
        return _with_units(values, catalog.END_TO_END)
    median = statistics.median
    # Times are scaled to the reference host speed measured around each
    # unit; the noise left over only ever adds time, so each unit is
    # represented by its fastest repetition in the run.
    if workload.name == "explore_search":
        best = min(good, key=lambda p: p.cells[0].reference_seconds)
        search_s = best.cells[0].reference_seconds
        values = {
            "sim_kips": best.extra["cold_instructions"] / search_s / 1000.0,
            "cell_s_p50": search_s / best.extra["cold_cells"],
        }
    else:
        per_cell: Dict[str, List[float]] = {}
        for p in good:
            for cell in p.cells:
                per_cell.setdefault(cell.key, []).append(cell.reference_seconds)
        cell_best = {key: min(times) for key, times in per_cell.items()}
        instructions = sum(c.counts["instructions"] for c in good[0].cells)
        values = {
            "sim_kips": instructions / sum(cell_best.values()) / 1000.0,
            "cell_s_p50": median(cell_best.values()),
        }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb(workload)
    values["mpki"] = workload.summary(good[0].cells)["mpki"]
    return _with_units(values, catalog.END_TO_END)


def _with_units(values: Dict[str, float], metrics) -> Dict[str, dict]:
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced(args, workload, checker: Checker, workdir: Path) -> Dict[str, dict]:
    from perfbench import catalog, spans

    # Half the run times untraced passes; the traced set-up and pass follow.
    untraced = run_passes(workload, args.seconds / 2, checker)
    untraced_wall = statistics.median(p.wall_s for p in untraced)

    recorder = spans.Recorder()
    undo = spans.install(recorder, workdir)
    gc.collect()
    try:
        start = time.perf_counter()
        workload.setup()
        pass_start = time.perf_counter()
        result = workload.run_pass(wrap=lambda fn: recorder.wrap("explore.search", fn))
        end = time.perf_counter()
    finally:
        spans.uninstall(undo)
    check_pass(workload, checker, result)

    values = layer_values(recorder, workload, result)
    wall = end - start
    parent_self = sum(recorder.self_ns().values()) / 1e9
    values["trace.wall_s"] = wall
    values["trace.other_s"] = wall - parent_self
    values["trace.overhead_s"] = (end - pass_start) - untraced_wall
    values["trace.cells"] = len(result.cells)
    values["trace.calibration_ms"] = 1000 * statistics.mean(
        cell.calibration for p in untraced for cell in p.cells
    )
    if args.breakdown is not None:
        write_breakdown(args, recorder, workload, values)
    return _with_units(values, catalog.PER_LAYER)


def layer_values(rec, workload, result) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up plus pass."""
    from perfbench import catalog

    def total(name):
        return (rec.total_ns.get(name, 0) + rec.worker_total_ns.get(name, 0)) / 1e9

    def own(name):
        child = rec.child_ns.get(name, 0) + rec.worker_child_ns.get(name, 0)
        return total(name) - child / 1e9

    def calls(name):
        return rec.calls.get(name, 0) + rec.worker_calls.get(name, 0)

    def count(name):
        return rec.counters.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    v: Dict[str, float] = {
        "workloads.build_s": total("workloads.build"),
        "workloads.capture_s": total("workloads.capture"),
        "workloads.trace_load_s": total("workloads.trace_load"),
        "isa.interp_s": total("isa.interp"),
        "isa.instructions": calls("isa.interp"),
        "backends.trace_packets_s": total("backends.trace_packets"),
        "backends.replay.self_s": own("backends.replay.run"),
        "backends.trace.self_s": own("backends.trace.run"),
        "kernels.run_s": total("kernels.run"),
    }
    for backend in ("cycle", "trace", "replay"):
        v[f"backends.{backend}.run_s"] = total(f"backends.{backend}.run")
    for name in ("cells_engaged", "windows_attempted", "windows_accepted",
                 "impure_cuts", "records_offered", "records_accepted"):
        v[f"kernels.{name}"] = count(f"kernels.{name}")
    accepted = v["kernels.records_accepted"]
    v["kernels.accept_ratio"] = ratio(accepted, v["kernels.records_offered"])
    v["kernels.record_share"] = ratio(accepted, workload.branch_records)
    v["kernels.us_per_record"] = ratio(v["kernels.run_s"] * 1e6, accepted)

    composer = ("predict", "commit", "resolve", "squash")
    for what in composer:
        v[f"core.{what}_calls"] = calls(f"core.{what}")
        v[f"core.{what}_s"] = total(f"core.{what}")
    v["core.self_s"] = sum(own(f"core.{what}") for what in composer)
    v["core.useful_predict_ratio"] = ratio(
        v["core.commit_calls"], v["core.predict_calls"]
    )
    for unit in catalog.UNITS:
        v[f"components.{unit}.lookups"] = calls(f"components.{unit}.lookup")
        v[f"components.{unit}.lookup_s"] = total(f"components.{unit}.lookup")
        v[f"components.{unit}.update_s"] = total(f"components.{unit}.update")

    v["frontend.self_s"] = own("backends.cycle.run") + own("frontend.run")
    cycle_cells = [c for c in result.cells if "cycles" in c.counts]
    for name in ("cycles", "fetch_packets", "flushes", "fetch_bubble_cycles",
                 "repair_walk_cycles"):
        v[f"frontend.{name}"] = sum(c.counts[name] for c in cycle_cells)
    v["frontend.ipc"] = workload.summary(result.cells).get("ipc", 0.0) if (
        cycle_cells and len(cycle_cells) == len(result.cells)
    ) else 0.0

    jobs = getattr(workload, "jobs", 1)
    v.update({
        "eval.runner_calls": calls("eval.runner"),
        "eval.runner_s": total("eval.runner"),
        "eval.key_calls": calls("eval.key"),
        "eval.key_s": total("eval.key"),
        "eval.cache_hits": count("eval.cache_hits"),
        "eval.cache_misses": count("eval.cache_misses"),
        "eval.cache_get_s": total("eval.cache_get"),
        "eval.cache_puts": calls("eval.cache_put"),
        "eval.cache_put_s": total("eval.cache_put"),
        "eval.worker_busy_s": total("eval.worker_job"),
        "eval.designs_self_s": own("eval.designs"),
        "synthesis.area_calls": calls("synthesis.area"),
        "synthesis.area_s": total("synthesis.area"),
        "explore.evaluate_calls": calls("eval.designs"),
        "explore.breed_s": total("explore.breed"),
        "explore.archive_s": total("explore.archive"),
        "explore.self_s": own("explore.search"),
        "explore.cold_cells": result.extra.get("cold_cells", 0),
        "explore.hit_cells": sum(c.counts.get("cache_hits", 0) for c in result.cells),
        "explore.warm_rerun_s": sum(
            c.seconds for c in result.cells if c.key == "warm"
        ),
    })
    v["eval.worker_util"] = ratio(v["eval.worker_busy_s"], v["eval.runner_s"] * jobs)
    return v


def write_breakdown(args, rec, workload, values: Dict[str, float]) -> None:
    """Every span of the traced run, and the layer that dominates it."""

    def table(total, child, calls):
        rows = {
            name: {
                "total_s": total[name] / 1e9,
                "self_s": (total[name] - child.get(name, 0)) / 1e9,
                "calls": calls.get(name, 0),
            }
            for name in total
        }
        return dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))

    def by_layer(rows):
        layers: Dict[str, float] = {}
        for name, row in rows.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    parent = table(rec.total_ns, rec.child_ns, rec.calls)
    workers = table(rec.worker_total_ns, rec.worker_child_ns, rec.worker_calls)
    layers = by_layer(parent)
    payload = {
        "workload": workload.name,
        "seed": args.seed,
        "traced_wall_s": values["trace.wall_s"],
        "other_s": values["trace.other_s"],
        "tracing_overhead_s": values["trace.overhead_s"],
        "dominant_span": next(iter(parent), None),
        "dominant_layer": next(iter(layers), None),
        "self_s_by_layer": layers,
        "spans": parent,
    }
    if workers:
        worker_layers = by_layer(workers)
        payload["worker_dominant_layer"] = next(iter(worker_layers))
        payload["worker_self_s_by_layer"] = worker_layers
        payload["worker_spans"] = workers
    payload["metrics"] = values
    args.breakdown.parent.mkdir(parents=True, exist_ok=True)
    args.breakdown.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
def write_reference(workdir: Path) -> int:
    """Record the default seed's outputs of every workload.

    Replay cells store the ``trace`` backend's counts after checking that
    replay reproduces them; cycle cells store the cycle backend's counts
    after checking their architectural counts against ``trace``.
    """
    from perfbench import suite

    reference = {}
    for name, cls in suite.WORKLOADS.items():
        workload = cls(suite.DEFAULT_SEED, workdir)
        workload.setup()
        result = workload.run_pass()
        errors = [c for c in result.cells if c.error is not None]
        if errors:
            print(f"error: {name}: {errors}", file=sys.stderr)
            return 1
        if name == "explore_search":
            cells = {"search": {"front_digest": result.cells[0].counts["front_digest"]}}
        else:
            trace = suite.trace_reference(workload)
            cells = {}
            for cell in result.cells:
                for key, value in trace[cell.key].items():
                    if cell.counts[key] != value:
                        print(f"error: {name} {cell.key}: {key} {cell.counts[key]} "
                              f"!= trace {value}", file=sys.stderr)
                        return 1
                cells[cell.key] = cell.counts if workload.backend == "cycle" else trace[
                    cell.key
                ]
        reference[name] = {"config": workload.config(), "cells": cells}
        print(f"{name}: {len(cells)} reference cells", file=sys.stderr)
    suite.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    suite.REFERENCE_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
