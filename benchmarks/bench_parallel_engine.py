"""Wall-clock benchmark of the parallel evaluation engine.

Measures the same preset x micro-workload suite that the seed-era serial
runner was timed on (``results/parallel_engine_baseline.json``) under three
execution modes, and checks the acceleration criteria of the parallel-engine
change:

1. ``serial`` — the default single-process path.  Target: >= 1.3x over the
   committed seed-era baseline wall clock.
2. ``jobs=4, cold cache`` — process fan-out against an empty cache.
3. ``jobs=4, warm cache`` — the same invocation again.  Target: >= 3x over
   the seed-era baseline (on a multi-core host the cold parallel run also
   beats serial; on a single-core CI box the cache carries the criterion).

``--quick`` skips the baseline and reports speedups against the serial run.
All three modes must produce identical result matrices — the benchmark
asserts this, so a speedup that changed any number would fail loudly.

Run directly (``python benchmarks/bench_parallel_engine.py [--quick]``) or
via pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.cache import ResultCache  # noqa: E402
from repro.eval.runner import run_suite  # noqa: E402
from repro.workloads.micro import build_micro  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "parallel_engine_baseline.json"

FULL_SYSTEMS = ["tage_l", "b2", "tourney"]
FULL_WORKLOADS = ["pattern_long", "dispatch", "counted_loops", "biased"]
QUICK_SYSTEMS = ["b2", "tourney"]
QUICK_WORKLOADS = ["biased", "dispatch"]


def _matrices_equal(a, b) -> bool:
    return all(
        a[system][workload] == b[system][workload]
        for system in a
        for workload in a[system]
    )


def run_benchmark(quick: bool = False, jobs: int = 4):
    """The results table and the acceptance floors it misses (a list of
    messages, empty when every floor holds or a quick run asserts none)."""
    if quick:
        systems, workload_names = QUICK_SYSTEMS, QUICK_WORKLOADS
        scale, max_instructions = 0.2, 4000
    else:
        systems, workload_names = FULL_SYSTEMS, FULL_WORKLOADS
        scale, max_instructions = 0.5, 30000
    programs = {n: build_micro(n, scale=scale) for n in workload_names}
    suite = dict(max_instructions=max_instructions)

    timings = {}

    def timed(label, **kwargs):
        t0 = time.perf_counter()
        result = run_suite(systems, programs, **suite, **kwargs)
        timings[label] = time.perf_counter() - t0
        return result

    serial = timed("serial")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cold = timed(f"jobs={jobs}, cold cache", jobs=jobs, cache=cache)
        warm = timed(f"jobs={jobs}, warm cache", jobs=jobs, cache=cache)
        cache_stats = (cache.hits, cache.misses)

    for label, other in [("cold parallel", cold), ("warm parallel", warm)]:
        assert _matrices_equal(serial, other), f"{label} diverged from serial"

    lines = []
    suite_desc = (
        f"{len(systems)} systems x {len(workload_names)} workloads, "
        f"scale={scale}, max_instructions={max_instructions}"
    )
    lines.append(f"suite: {suite_desc}")

    failures = []
    baseline_seconds = None
    if not quick and BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline_seconds = baseline["serial_seconds"]
        lines.append(
            f"seed-era serial baseline: {baseline_seconds:.2f} s "
            f"({baseline['note']})"
        )
    reference = baseline_seconds or timings["serial"]
    ref_name = "seed baseline" if baseline_seconds else "serial run"

    lines.append("")
    lines.append(f"{'mode':28s} {'wall (s)':>9s} {'vs ' + ref_name:>18s}")
    lines.append("-" * 58)
    for label, seconds in timings.items():
        speedup = reference / seconds if seconds > 0 else float("inf")
        lines.append(f"{label:28s} {seconds:9.2f} {speedup:17.2f}x")
    lines.append("")
    lines.append(
        f"cache: {cache_stats[0]} hits / {cache_stats[1]} misses over the "
        "cold+warm runs"
    )
    lines.append("result matrices identical across all three modes: yes")

    if not quick and baseline_seconds:
        serial_speedup = reference / timings["serial"]
        warm_speedup = reference / timings[f"jobs={jobs}, warm cache"]
        lines.append("")
        lines.append(
            f"acceptance: serial {serial_speedup:.2f}x (target >= 1.3x), "
            f"warm-cache {warm_speedup:.2f}x (target >= 3x)"
        )
        if serial_speedup < 1.3:
            failures.append(f"serial speedup {serial_speedup:.2f}x < 1.3x")
        if warm_speedup < 3.0:
            failures.append(f"warm-cache speedup {warm_speedup:.2f}x < 3x")
    return "\n".join(lines), failures


def test_parallel_engine(report):
    text, failures = run_benchmark(quick=False)
    report("parallel_engine", text)
    assert not failures, "; ".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small suite, no baseline comparison (CI smoke)",
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--no-write", action="store_true", help="print only, skip results/"
    )
    args = parser.parse_args()
    text, failures = run_benchmark(quick=args.quick, jobs=args.jobs)
    print(text)
    if not args.quick and not args.no_write:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "parallel_engine.txt").write_text(text + "\n")
    # Asserted after the write, so the results record a missed floor too.
    assert not failures, "; ".join(failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
