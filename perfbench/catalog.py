"""What the benchmark measures, and why: the single source of its metadata.

``BENCHMARK.json`` at the repository root carries only the fields the
runner contract allows.  This catalog adds what that file cannot: whether
a metric is simulated (from the modelled hardware) or host (time or memory
of the simulator), which layers each workload loads or bypasses, and which
end-to-end metric and workload each per-layer metric is expected to move.
Every workload reports every metric (``--trace 0`` the end-to-end ones,
``--trace 1`` the per-layer ones); a layer a workload bypasses reads 0.

Run ``python3 perfbench/catalog.py`` to print the catalog,
``--write`` to regenerate ``BENCHMARK.json`` from it, and ``--check`` to
verify that the committed file matches.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Host times are reported in reference-host seconds: each timed unit's
#: seconds scaled by a calibration loop sampled around it (see
#: ``suite.calibration_sample``), which cancels the shared host's drift.
SWEEPS = ("cycle_fig10", "replay_sparse", "replay_dense")
ALL = SWEEPS + ("explore_search",)
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: Tuple[str, ...]
    bypasses: Tuple[str, ...]


WORKLOADS = (
    Workload(
        "cycle_fig10",
        "Fig. 10 on the cycle core: speculation, wrong-path predictions and "
        "repair through the scalar composer; the host-time cost of the "
        "reference methodology",
        loads=("workloads", "isa", "backends.cycle", "frontend", "core",
               "components"),
        bypasses=("kernels", "trace files", "eval", "synthesis", "explore"),
    ),
    Workload(
        "replay_sparse",
        "replay of low-MPKI traces with kernel-eligible presets, so the "
        "vectorized segment engine accepts long windows and does most work",
        loads=("workloads", "backends.replay", "kernels", "core", "components"),
        bypasses=("isa (except capture in set-up)", "frontend", "eval",
                  "synthesis", "explore"),
    ),
    Workload(
        "replay_dense",
        "replay of high-MPKI traces: mispredicts cut engine windows and "
        "tourney never engages it, so the scalar walker and composer dominate",
        loads=("workloads", "backends.replay", "core", "components",
               "kernels (rarely accepting)"),
        bypasses=("isa (except capture in set-up)", "frontend", "eval",
                  "synthesis", "explore"),
    ),
    Workload(
        "explore_search",
        "a fixed-seed design-space search on 2 workers with a fresh result "
        "cache, then its warm rerun: the Fig. 1 design-iteration loop",
        loads=("workloads", "isa", "backends.trace", "core", "components",
               "eval.parallel", "eval.cache", "synthesis", "explore"),
        bypasses=("backends.replay", "kernels", "frontend"),
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: ``"simulated"`` (modelled hardware) or ``"host"`` (the simulator).
    kind: str
    meaning: str
    bound: float = 0.0
    #: Per-layer metrics: the (end-to-end metric, workload) pairs moved.
    moves: Tuple[Tuple[str, str], ...] = ()


def _e2e(name, unit, better, bound, kind, meaning):
    return Metric(name, unit, better, kind, meaning, bound)


END_TO_END = (
    _e2e("setup_s", "s", "lower", 0.25, "host",
         "set-up before the timed region, median of five repetitions of: "
         "imports (timed in a fresh interpreter), program assembly, trace "
         "capture and save, and the pre-decode cache fill; reference-host "
         "seconds"),
    _e2e("sim_kips", "kinstr/s", "higher", 0.25, "host",
         "architectural instructions simulated per reference-host second; "
         "sweeps: over every cell at its fastest pass, explore: over the "
         "cold search"),
    _e2e("cell_s_p50", "s", "lower", 0.25, "host",
         "median reference-host seconds per cell, each cell timed by its "
         "fastest pass; sweeps: per (preset, program) cell, explore: "
         "cold-search time per cold (design, program) cell"),
    _e2e("peak_rss_mb", "MiB", "lower", 0.25, "host",
         "peak resident memory of the benchmark process plus its largest "
         "child (the explore pool workers)"),
    _e2e("mpki", "mpki", "lower", 0.25, "simulated",
         "mean direction MPKI over the cells (explore: over the three seeded "
         "presets on the full suite); a simulator-only change must leave it "
         "identical"),
)


def _layer(name, unit, better, kind, meaning, moves=()):
    return Metric(name, unit, better, kind, meaning, 0.0, moves)


def _on(metric, *workloads):
    return tuple((metric, w) for w in workloads)


_SWEEP_KIPS = _on("sim_kips", "cycle_fig10", "replay_dense")
UNITS = ("LOOP", "TAGE", "BTB", "BIM", "UBTB", "GTAG", "TOURNEY", "GBIM", "LBIM")

PER_LAYER = (
    # repro.workloads
    _layer("workloads.build_s", "s", "lower", "host",
           "time in assemble_workload", _on("setup_s", *ALL)),
    _layer("workloads.capture_s", "s", "lower", "host",
           "time in capture_trace plus BranchTrace.save",
           _on("setup_s", "replay_sparse", "replay_dense")),
    _layer("workloads.trace_load_s", "s", "lower", "host",
           "time in BranchTrace.load", _on("sim_kips", "replay_sparse")),
    # repro.isa
    _layer("isa.interp_s", "s", "lower", "host",
           "time inside Interpreter.run generators (every next())",
           _on("sim_kips", "cycle_fig10") + _on("cell_s_p50", "explore_search")),
    _layer("isa.instructions", "count", "lower", "host",
           "records the interpreter produced (oracle, trace walk and capture)",
           _on("sim_kips", "cycle_fig10") + _on("cell_s_p50", "explore_search")),
    # repro.backends
    _layer("backends.cycle.run_s", "s", "lower", "host",
           "time in the cycle backend's run", _on("cell_s_p50", "cycle_fig10")),
    _layer("backends.trace.run_s", "s", "lower", "host",
           "time in the trace backend's run (workers included)",
           _on("cell_s_p50", "explore_search")),
    _layer("backends.replay.run_s", "s", "lower", "host",
           "time in the replay backend's run",
           _on("cell_s_p50", "replay_sparse", "replay_dense")),
    _layer("backends.trace_packets_s", "s", "lower", "host",
           "time in trace_packets (packet-cache construction)",
           _on("sim_kips", "replay_sparse", "replay_dense")),
    _layer("backends.replay.self_s", "s", "lower", "host",
           "replay run minus its children: the columnar walker's own loop",
           _on("sim_kips", "replay_dense")),
    _layer("backends.trace.self_s", "s", "lower", "host",
           "trace run minus its children: the drive_stream walk",
           _on("cell_s_p50", "explore_search")),
    # repro.kernels
    _layer("kernels.run_s", "s", "lower", "host", "time in SegmentEngine.run",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.cells_engaged", "count", "higher", "host",
           "cells whose composition engine_for accepted",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.windows_attempted", "count", "lower", "host",
           "SegmentEngine.run calls", _on("sim_kips", "replay_sparse")),
    _layer("kernels.windows_accepted", "count", "higher", "host",
           "windows that committed at least one packet",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.impure_cuts", "count", "lower", "host",
           "windows that stopped at a known-impure packet",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.records_offered", "count", "lower", "host",
           "branch records handed to the engine", _on("sim_kips", "replay_sparse")),
    _layer("kernels.records_accepted", "count", "higher", "host",
           "branch records the engine committed", _on("sim_kips", "replay_sparse")),
    _layer("kernels.accept_ratio", "ratio", "higher", "host",
           "records accepted over records offered",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.record_share", "ratio", "higher", "host",
           "records accepted over all branch records replayed",
           _on("sim_kips", "replay_sparse")),
    _layer("kernels.us_per_record", "us", "lower", "host",
           "engine microseconds per accepted record",
           _on("sim_kips", "replay_sparse")),
    # repro.core
    _layer("core.predict_calls", "count", "lower", "host",
           "ComposedPredictor.predict calls", _SWEEP_KIPS),
    _layer("core.predict_s", "s", "lower", "host",
           "time in ComposedPredictor.predict", _SWEEP_KIPS),
    _layer("core.commit_calls", "count", "lower", "host",
           "ComposedPredictor.commit_packet calls", _SWEEP_KIPS),
    _layer("core.commit_s", "s", "lower", "host",
           "time in commit_packet", _SWEEP_KIPS),
    _layer("core.resolve_calls", "count", "lower", "host",
           "resolve_mispredict calls", _SWEEP_KIPS),
    _layer("core.resolve_s", "s", "lower", "host",
           "time in resolve_mispredict", _SWEEP_KIPS),
    _layer("core.squash_calls", "count", "lower", "host",
           "squash_after calls", _on("sim_kips", "cycle_fig10")),
    _layer("core.squash_s", "s", "lower", "host",
           "time in squash_after", _on("sim_kips", "cycle_fig10")),
    _layer("core.self_s", "s", "lower", "host",
           "composer time minus component hooks: history file, history "
           "providers, topology merge", _SWEEP_KIPS),
    _layer("core.useful_predict_ratio", "ratio", "higher", "host",
           "commits over predicts: predictions not wasted on the wrong path",
           _on("sim_kips", "cycle_fig10")),
) + tuple(
    _layer(f"components.{unit}.{what}", u, "lower", "host", text, _SWEEP_KIPS)
    for unit in UNITS
    for what, u, text in (
        ("lookups", "count", f"{unit} lookup calls"),
        ("lookup_s", "s", f"time in {unit} lookup"),
        ("update_s", "s", f"time in {unit} on_update"),
    )
) + (
    # repro.frontend
    _layer("frontend.self_s", "s", "lower", "host",
           "cycle-backend time minus composer and interpreter: the core model",
           _on("sim_kips", "cycle_fig10")),
    _layer("frontend.cycles", "count", "lower", "simulated",
           "simulated cycles, summed over cells", _on("mpki", "cycle_fig10")),
    _layer("frontend.ipc", "instr/cycle", "higher", "simulated",
           "harmonic-mean IPC over cells", _on("mpki", "cycle_fig10")),
    _layer("frontend.fetch_packets", "count", "lower", "simulated",
           "fetch packets, summed over cells", _on("mpki", "cycle_fig10")),
    _layer("frontend.flushes", "count", "lower", "simulated",
           "pipeline flushes, summed over cells", _on("mpki", "cycle_fig10")),
    _layer("frontend.fetch_bubble_cycles", "count", "lower", "simulated",
           "fetch bubble cycles, summed over cells", _on("mpki", "cycle_fig10")),
    _layer("frontend.repair_walk_cycles", "count", "lower", "simulated",
           "history repair walk cycles, summed over cells",
           _on("mpki", "cycle_fig10")),
    # repro.eval
    _layer("eval.runner_calls", "count", "lower", "host",
           "ParallelRunner.run calls", _on("cell_s_p50", "explore_search")),
    _layer("eval.runner_s", "s", "lower", "host", "time in ParallelRunner.run",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.key_calls", "count", "lower", "host", "job_cache_key calls",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.key_s", "s", "lower", "host", "time in job_cache_key",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.cache_hits", "count", "higher", "host", "ResultCache.get hits",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.cache_misses", "count", "lower", "host",
           "ResultCache.get misses", _on("cell_s_p50", "explore_search")),
    _layer("eval.cache_get_s", "s", "lower", "host", "time in ResultCache.get",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.cache_puts", "count", "lower", "host", "ResultCache.put calls",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.cache_put_s", "s", "lower", "host", "time in ResultCache.put",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.worker_busy_s", "s", "lower", "host",
           "job time inside the pool workers, summed over workers",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.worker_util", "ratio", "higher", "host",
           "worker busy time over (runner time x jobs)",
           _on("cell_s_p50", "explore_search")),
    _layer("eval.designs_self_s", "s", "lower", "host",
           "evaluate_designs minus the runner and the area model",
           _on("cell_s_p50", "explore_search")),
    # repro.synthesis
    _layer("synthesis.area_calls", "count", "lower", "host",
           "AreaModel.predictor_total calls", _on("cell_s_p50", "explore_search")),
    _layer("synthesis.area_s", "s", "lower", "host",
           "time in AreaModel.predictor_total", _on("cell_s_p50", "explore_search")),
    # repro.explore
    _layer("explore.evaluate_calls", "count", "lower", "host",
           "evaluate_designs calls from the search",
           _on("cell_s_p50", "explore_search")),
    _layer("explore.breed_s", "s", "lower", "host", "time in mutate and crossover",
           _on("cell_s_p50", "explore_search")),
    _layer("explore.archive_s", "s", "lower", "host",
           "time in ParetoArchive.offer", _on("cell_s_p50", "explore_search")),
    _layer("explore.self_s", "s", "lower", "host",
           "explore() minus its children", _on("cell_s_p50", "explore_search")),
    _layer("explore.cold_cells", "count", "lower", "host",
           "cells the cold search simulated", _on("cell_s_p50", "explore_search")),
    _layer("explore.hit_cells", "count", "higher", "host",
           "cells answered from the cache, cold search and warm rerun",
           _on("cell_s_p50", "explore_search")),
    _layer("explore.warm_rerun_s", "s", "lower", "host",
           "wall time of the identical search against the warm cache",
           _on("cell_s_p50", "explore_search")),
    # the traced run itself
    _layer("trace.wall_s", "s", "lower", "host",
           "traced wall time: one set-up plus one pass"),
    _layer("trace.other_s", "s", "lower", "host",
           "traced wall time minus the sum of every span's self time"),
    _layer("trace.overhead_s", "s", "lower", "host",
           "traced pass wall time minus the median untraced pass"),
    _layer("trace.cells", "count", "higher", "host",
           "cells in one pass (explore: cold plus warm search)"),
    _layer("trace.calibration_ms", "ms", "lower", "host",
           "mean calibration sample during the untraced passes: the host "
           "speed that end-to-end times are scaled from (reference 2 ms)"),
)


def benchmark_json() -> Dict[str, object]:
    """The contract-shaped ``BENCHMARK.json`` derived from the catalog."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe() -> str:
    lines = ["# Workloads", ""]
    for w in WORKLOADS:
        lines += [
            f"{w.name}: {w.why}",
            f"  loads:    {', '.join(w.loads)}",
            f"  bypasses: {', '.join(w.bypasses)}",
        ]
    lines += ["", "# End-to-end metrics (every workload)", ""]
    for m in END_TO_END:
        lines.append(
            f"{m.name} [{m.unit}, {m.better}, {m.kind}, bound {m.bound:g}]: "
            f"{m.meaning}"
        )
    lines += ["", "# Per-layer metrics (--trace 1, every workload)", ""]
    for m in PER_LAYER:
        moves = "; ".join(f"{e2e} on {w}" for e2e, w in m.moves) or "-"
        lines.append(f"{m.name} [{m.unit}, {m.kind}]: {m.meaning} -> {moves}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true", help="regenerate BENCHMARK.json")
    group.add_argument("--check", action="store_true", help="verify BENCHMARK.json")
    args = parser.parse_args(argv)
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if args.write:
        BENCHMARK_JSON.write_text(text)
    elif args.check:
        if BENCHMARK_JSON.read_text() != text:
            print("BENCHMARK.json is out of date: run catalog.py --write",
                  file=sys.stderr)
            return 1
    else:
        print(describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
