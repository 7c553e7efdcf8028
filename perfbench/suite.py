"""The benchmark's four workloads: inputs, one timed pass, output checks.

Every simulated program is built through the public
:func:`repro.workloads.generators.assemble_workload` from the kernel mix
of its named SPECint stand-in (:mod:`repro.workloads.specint`).  The
benchmark seed picks the data seed of every program, so a held-out seed
changes branch outcomes while keeping each stand-in's branch character;
seed 0 reproduces the registered stand-ins exactly (checked on every run).

A *pass* is one complete unit of user work: every (preset, program) cell
of a sweep, or one cold design-space search followed by its warm rerun.
Each cell builds a fresh predictor inside the timed region, because a
user pays that on every cell.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: ``name -> (stand-in seed, outer iterations at scale 1, kernel mix)``,
#: mirroring ``repro.workloads.specint`` builder for builder.
STANDINS: Dict[str, Tuple[int, int, Tuple[Tuple[str, dict], ...]]] = {
    "perlbench": (101, 26, (
        ("switch", {"n": 48, "n_cases": 8}),
        ("hammock", {"n": 48, "bias": 0.4}),
        ("correlated", {"n": 48, "period": 6}),
        ("data_branches", {"n": 32, "bias": 0.3}),
        ("recursive", {"depth": 6}),
    )),
    "mcf": (103, 34, (
        ("linked_list", {"n_nodes": 192, "spread": 16}),
        ("lcg_branches", {"n": 56, "threshold": 110}),
        ("data_branches", {"n": 40, "bias": 0.5}),
    )),
    "xalancbmk": (105, 30, (
        ("recursive", {"depth": 10}),
        ("switch", {"n": 40, "n_cases": 5}),
        ("correlated", {"n": 56, "period": 12}),
        ("string_ops", {"length": 14}),
    )),
    "x264": (106, 34, (
        ("nested_loops", {"trips": (4, 8, 4)}),
        ("stream", {"n": 96}),
        ("stream", {"tag": "k_stream2", "n": 64}),
        ("correlated", {"n": 32, "period": 4}),
        ("data_branches", {"n": 16, "bias": 0.8}),
    )),
    "deepsjeng": (107, 28, (
        ("recursive", {"depth": 12}),
        ("lcg_branches", {"n": 56, "threshold": 128}),
        ("lcg_branches", {"tag": "k_lcg2", "n": 40, "threshold": 80}),
        ("dense_branches", {"n": 24, "n_tests": 5}),
    )),
    "leela": (108, 28, (
        ("lcg_branches", {"n": 48, "threshold": 128}),
        ("linked_list", {"n_nodes": 80, "spread": 6}),
        ("recursive", {"depth": 8}),
        ("data_branches", {"n": 40, "bias": 0.45}),
    )),
    "exchange2": (109, 26, (
        ("nested_loops", {"trips": (6, 9, 5)}),
        ("nested_loops", {"tag": "k_nest2", "trips": (3, 4, 9)}),
        ("stream", {"n": 48}),
        ("correlated", {"n": 24, "period": 3}),
    )),
    "xz": (110, 28, (
        ("lcg_branches", {"n": 48, "threshold": 150}),
        ("correlated", {"n": 48, "period": 16}),
        ("data_branches", {"n": 48, "bias": 0.35}),
        ("stream", {"n": 32}),
    )),
}

#: The seed whose reference outputs are committed in ``reference/``.
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed0.json"

def program_seed(name: str, seed: int, variant: int = 0) -> int:
    """Data seed of stand-in ``name`` under benchmark seed ``seed``.

    Seed 0 (variant 0) keeps the stand-in's own seed.  Others are hashed:
    nearby integer seeds give visibly correlated kernel data.
    """
    if seed == DEFAULT_SEED and variant == 0:
        return STANDINS[name][0]
    text = f"{name}:{seed}:{variant}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def outer_iterations(name: str, scale: float) -> int:
    """``repro.workloads.specint``'s scale rule."""
    return max(1, int(round(STANDINS[name][1] * scale)))


def assemble(name: str, seed: int, scale: float, variant: int = 0):
    """Stand-in ``name`` with data drawn for ``seed`` (and ``variant``)."""
    from repro.workloads import generators

    _, _, kernels = STANDINS[name]
    return generators.assemble_workload(
        name,
        program_seed(name, seed, variant),
        kernels,
        outer_iterations(name, scale),
    )


def fill_predecode(programs) -> None:
    """Warm the shared pre-decode cache over every static instruction."""
    from repro.core.prediction import predecode_slot

    for program in programs:
        for instr in program.instructions:
            predecode_slot(instr)


def check_standins(names: Sequence[str], scale: float) -> List[str]:
    """Mismatches between the mixes above and the registered stand-ins."""
    from repro.eval.cache import program_digest
    from repro.workloads.specint import build

    return [
        name
        for name in names
        if program_digest(assemble(name, DEFAULT_SEED, scale))
        != program_digest(build(name, scale))
    ]


#: Duration of one :func:`calibration_sample` on the reference host.
CALIBRATION_REFERENCE_S = 0.002


def calibration_sample() -> float:
    """Host seconds of a fixed, small pure-Python loop (dict and int work).

    The benchmark host is shared: its speed drifts by tens of percent over
    seconds to minutes, and the simulator and this loop slow down together.
    Samples taken around each timed unit measure the host speed it ran at.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


def host_speed() -> float:
    """Mean of a few calibration samples."""
    return sum(calibration_sample() for _ in range(2)) / 2


@dataclass
class Cell:
    """One timed unit inside a pass and what it produced."""

    key: str
    seconds: float
    counts: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    #: Mean calibration sample around the unit (see :func:`calibration_sample`).
    calibration: float = CALIBRATION_REFERENCE_S

    @property
    def reference_seconds(self) -> float:
        """``seconds`` scaled to the reference host speed."""
        return self.seconds * CALIBRATION_REFERENCE_S / self.calibration


@dataclass
class PassResult:
    wall_s: float
    cells: List[Cell]
    #: Workload-specific extras (explore: the cold search's cells).
    extra: Dict[str, float] = field(default_factory=dict)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ----------------------------------------------------------------------
# Sweeps: cycle_fig10, replay_sparse, replay_dense
# ----------------------------------------------------------------------
class Sweep:
    """Every (preset, program) cell on one backend.

    ``variants`` data draws of each stand-in make the programs of a pass;
    more than one averages out how much a single draw's branch outcomes
    move the work a seed asks for.
    """

    name = ""
    backend = ""
    presets: Tuple[str, ...] = ()
    programs: Tuple[str, ...] = ()
    scale = 1.0
    variants = 1
    #: What set-up imports (``setup_s`` times it in a fresh interpreter).
    modules: Tuple[str, ...] = ("repro.backends", "repro.presets")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.sources: Dict[str, object] = {}
        self.live: Dict[str, object] = {}
        self.branch_records = 0

    def config(self) -> dict:
        return {
            "backend": self.backend,
            "presets": list(self.presets),
            "programs": list(self.programs),
            "scale": self.scale,
            "variants": self.variants,
        }

    def program_keys(self) -> Dict[str, Tuple[str, int]]:
        """``key -> (stand-in, variant)`` for every program of a pass."""
        if self.variants == 1:
            return {name: (name, 0) for name in self.programs}
        return {
            f"{name}.{variant}": (name, variant)
            for name in self.programs
            for variant in range(self.variants)
        }

    def setup(self) -> None:
        from repro.core.prediction import predecode_slot
        from repro.workloads.registry import WorkloadSource

        predecode_slot.cache_clear()
        self.live = {
            key: assemble(name, self.seed, self.scale, variant)
            for key, (name, variant) in self.program_keys().items()
        }
        self.sources = {
            key: WorkloadSource(name=key, program=program)
            for key, program in self.live.items()
        }
        fill_predecode(self.live.values())

    def cells(self) -> List[Tuple[str, str]]:
        return [(preset, key) for preset in self.presets for key in self.live]

    def run_cell(self, preset: str, program: str) -> Cell:
        from repro import presets
        from repro.backends import RunLimits, get_backend

        key = f"{preset}/{program}"
        start = time.perf_counter()
        try:
            predictor = presets.build(preset)
            result = get_backend(self.backend).run(
                predictor, self.sources[program], RunLimits()
            )
        except Exception as error:  # a failing cell is counted, not fatal
            return Cell(key, time.perf_counter() - start, error=repr(error))
        seconds = time.perf_counter() - start
        counts = {
            "instructions": result.instructions,
            "branches": result.branches,
            "mispredicts": result.branch_mispredicts,
        }
        if self.backend == "cycle":
            stats = result.stats
            counts.update(
                cycles=result.cycles,
                fetch_packets=stats.fetch_packets,
                flushes=stats.flushes,
                fetch_bubble_cycles=stats.fetch_bubble_cycles,
                repair_walk_cycles=stats.repair_walk_cycles,
            )
        return Cell(key, seconds, counts)

    def run_pass(self, wrap=None) -> PassResult:
        start = time.perf_counter()
        cells = []
        before = host_speed()
        for preset, program in self.cells():
            cell = self.run_cell(preset, program)
            after = host_speed()
            cell.calibration = (before + after) / 2
            before = after
            cells.append(cell)
        return PassResult(time.perf_counter() - start, cells)

    def reference(self, committed: Optional[dict]) -> Dict[str, dict]:
        """Expected counts per cell.

        The committed reference for the default seed; otherwise the
        ``trace`` backend's counts, computed here, outside the timed
        region.  Trace-driven replay must equal them exactly; the cycle
        backend shares only the architectural counts with them
        (instructions and branches), its mispredicts and cycles are held
        to the first pass instead.
        """
        if committed is not None:
            return committed["cells"]
        return trace_reference(self)

    def summary(self, cells: Sequence[Cell]) -> Dict[str, float]:
        """Simulated figures of one pass (cells all correct)."""
        mpkis = [
            1000.0 * c.counts["mispredicts"] / c.counts["instructions"] for c in cells
        ]
        out = {"mpki": sum(mpkis) / len(mpkis)}
        if self.backend == "cycle":
            ipcs = [c.counts["instructions"] / c.counts["cycles"] for c in cells]
            out["ipc"] = len(ipcs) / sum(1.0 / x for x in ipcs)
        return out


#: Worker processes that compute a held-out seed's reference.  The
#: reference runs before the timed region, so it may use both cores.
REFERENCE_JOBS = 2


def trace_reference(sweep: Sweep) -> Dict[str, dict]:
    """The ``trace`` backend's counts for every cell of ``sweep``.

    The cycle backend shares only the architectural counts with ``trace``,
    so a cycle sweep needs one run per program, not per cell.
    """
    from repro.eval.parallel import EvalJob, ParallelRunner

    programs = sweep.live
    cells = sweep.cells()
    if sweep.backend == "cycle":
        cells = [(sweep.presets[0], program) for program in programs]
    jobs = [
        EvalJob(system=preset, spec=preset, workload=program,
                program=programs[program], backend="trace")
        for preset, program in cells
    ]
    results = ParallelRunner(jobs=REFERENCE_JOBS).run(jobs)
    counts = {
        job.workload if sweep.backend == "cycle" else f"{job.system}/{job.workload}": {
            "instructions": result.instructions,
            "branches": result.branches,
            "mispredicts": result.branch_mispredicts,
        }
        for job, result in zip(jobs, results)
    }
    if sweep.backend != "cycle":
        return counts
    return {
        f"{preset}/{program}": {
            "instructions": counts[program]["instructions"],
            "branches": counts[program]["branches"],
        }
        for preset, program in sweep.cells()
    }


class CycleFig10(Sweep):
    name = "cycle_fig10"
    backend = "cycle"
    presets = ("tage_l", "b2", "tourney")
    programs = ("perlbench", "x264", "mcf", "leela")
    scale = 0.06


class ReplaySweep(Sweep):
    """Replay over npz traces captured (and saved) during set-up."""

    backend = "replay"
    modules = Sweep.modules + ("repro.kernels.engine",)

    def setup(self) -> None:
        from repro.workloads import traces
        from repro.workloads.registry import WorkloadSource

        super().setup()
        self.sources = {}
        self.branch_records = 0
        for name, program in self.live.items():
            trace = traces.capture_trace(program)
            path = self.workdir / f"{name}.npz"
            trace.save(path)
            self.sources[name] = WorkloadSource(name=name, trace_path=str(path))
            self.branch_records += len(trace) * len(self.presets)


class ReplaySparse(ReplaySweep):
    name = "replay_sparse"
    presets = ("tage_l", "b2")
    programs = ("x264", "exchange2", "xalancbmk", "perlbench")
    scale = 0.25
    # Engine acceptance swings with a single data draw's mispredicts.
    variants = 3


class ReplayDense(ReplaySweep):
    name = "replay_dense"
    presets = ("tage_l", "b2", "tourney")
    programs = ("mcf", "deepsjeng", "leela", "xz")
    scale = 0.1


# ----------------------------------------------------------------------
# explore_search
# ----------------------------------------------------------------------
class ExploreSearch:
    """A ``repro.explore`` search, cold then warm.

    The search seed stays at the default: another seed takes another
    trajectory through the design space, which changes how much work a
    search does far more than the programs' data does.
    """

    name = "explore_search"
    programs = ("x264", "perlbench", "mcf")
    scale = 0.2
    jobs = 2
    modules = ("repro.backends", "repro.explore")
    search = {
        "generations": 2,
        "population_size": 8,
        "rungs": 2,
        "max_instructions": 2500,
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.live: Dict[str, object] = {}
        self.branch_records = 0
        self.passes = 0

    def config(self) -> dict:
        return {
            "programs": list(self.programs),
            "scale": self.scale,
            "jobs": self.jobs,
            **self.search,
        }

    def setup(self) -> None:
        from repro.core.prediction import predecode_slot

        predecode_slot.cache_clear()
        self.live = {
            name: assemble(name, self.seed, self.scale) for name in self.programs
        }
        fill_predecode(self.live.values())

    def explore_config(self, cache_dir: Path):
        from repro.explore import ExploreConfig

        return ExploreConfig(
            seed=DEFAULT_SEED,
            workloads=tuple(self.live.values()),
            scale=self.scale,
            jobs=self.jobs,
            cache=str(cache_dir),
            **self.search,
        )

    def run_pass(self, wrap=None) -> PassResult:
        """Cold search into a fresh cache, then the identical warm rerun.

        ``wrap`` (traced runs) records the ``explore()`` calls as spans.
        """
        from repro.explore import explore
        from repro.explore.report import result_payload

        search = wrap(explore) if wrap is not None else explore
        self.passes += 1
        cache_dir = self.workdir / f"explore-cache-{self.passes}"
        start = time.perf_counter()
        cells: List[Cell] = []
        extra: Dict[str, float] = {}
        try:
            for phase in ("cold", "warm"):
                before = host_speed()
                t0 = time.perf_counter()
                try:
                    result = search(self.explore_config(cache_dir))
                except Exception as error:
                    seconds = time.perf_counter() - t0
                    cells.append(Cell(phase, seconds, error=repr(error)))
                    break
                seconds = time.perf_counter() - t0
                calibration = (before + host_speed()) / 2
                payload = result_payload(result, golden=True)
                baselines = result.seed_points
                counts = {
                    "front_digest": digest(payload),
                    "baseline_mpki": sum(p.mean_mpki for p in baselines)
                    / len(baselines),
                    "cold_evaluations": result.provenance["cold_evaluations"],
                    "cache_hits": result.provenance["cache_hits"],
                }
                cells.append(Cell(phase, seconds, counts, calibration=calibration))
            wall = time.perf_counter() - start
            extra.update(cold_cache_totals(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(wall, cells, extra)

    def reference(self, committed: Optional[dict]) -> Optional[Dict[str, dict]]:
        """The committed front for the default seed, else the first pass's."""
        return committed["cells"] if committed is not None else None

    def summary(self, cells: Sequence[Cell]) -> Dict[str, float]:
        return {"mpki": cells[0].counts["baseline_mpki"]}


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cold_cache_totals(cache_dir: Path) -> Dict[str, float]:
    """Cells a cold search simulated, and their architectural instructions."""
    cells = 0
    instructions = 0
    for path in cache_dir.glob("*.json"):
        payload = json.loads(path.read_text())
        instructions += payload["result"]["instructions"]
        cells += 1
    return {"cold_cells": cells, "cold_instructions": instructions}


WORKLOADS = {
    cls.name: cls for cls in (CycleFig10, ReplaySparse, ReplayDense, ExploreSearch)
}
