"""Design-space exploration utilities.

The composer's purpose is cheap design iteration (Fig. 1's loop).  This
module runs a set of candidate designs over a workload mix and computes the
accuracy/area Pareto frontier — the design-exploration workflow §V-A
sketches with its three points, generalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.composer import ComposedPredictor
from repro.eval.cache import ResultCache
from repro.eval.metrics import arithmetic_mean, harmonic_mean
from repro.eval.parallel import ParallelRunner
from repro.eval.runner import run_suite
from repro.frontend.config import CoreConfig
from repro.isa.program import Program
from repro.synthesis.area import AreaModel


@dataclass
class DesignPoint:
    """One evaluated design: costs and merits."""

    name: str
    topology: str
    mean_mpki: float
    harmean_ipc: float
    mean_accuracy: float
    area_um2: float
    direction_storage_kib: float
    per_workload_mpki: Dict[str, float]
    #: Pipeline depth in cycles (the slowest component's response stage) —
    #: the predict-latency objective ``repro explore`` trades against MPKI
    #: and area.  0 for points loaded from pre-explore artifacts.
    predict_latency: int = 0

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (accuracy up, area down)."""
        no_worse = (
            self.mean_accuracy >= other.mean_accuracy
            and self.area_um2 <= other.area_um2
        )
        strictly_better = (
            self.mean_accuracy > other.mean_accuracy
            or self.area_um2 < other.area_um2
        )
        return no_worse and strictly_better


def evaluate_designs(
    designs: Mapping[str, Callable[[], ComposedPredictor]],
    programs: Mapping[str, Program],
    core_config: Optional[CoreConfig] = None,
    area_model: Optional[AreaModel] = None,
    jobs: int = 1,
    cache: Union[None, str, Path, ResultCache] = None,
    telemetry: bool = False,
    backend: str = "cycle",
    max_instructions: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
) -> List[DesignPoint]:
    """Run every design over every workload; return one point per design.

    The (design × workload) matrix runs through
    :func:`~repro.eval.runner.run_suite`, so ``jobs``, ``cache`` and
    ``telemetry`` behave exactly as they do there: the cells fan over
    worker processes and replay from the deterministic result cache
    without changing any number.  ``runner`` (see ``run_suite``) takes the
    place of ``jobs`` and ``cache``, so a caller can keep one worker pool
    across calls.

    ``backend`` selects the execution methodology for every cell (see
    :mod:`repro.backends`).  Trace-driven backends report zero IPC, so
    ``harmean_ipc`` is forced to 0.0 for them rather than fed through the
    harmonic mean (which rejects zeros).  ``max_instructions`` bounds every
    cell's run (it is part of the cache fingerprint) — the search engine
    uses it to keep fitness evaluations cheap.
    """
    area_model = area_model or AreaModel()
    by_design = run_suite(
        [(name, factory, core_config) for name, factory in designs.items()],
        programs,
        max_instructions=max_instructions,
        jobs=jobs,
        cache=cache,
        telemetry=telemetry,
        backend=backend,
        runner=runner,
    )
    points: List[DesignPoint] = []
    for name, factory in designs.items():
        reference = factory()
        area = area_model.predictor_total(reference)
        storage = reference.direction_storage_kib()
        topology = reference.describe()
        mpki: Dict[str, float] = {}
        ipcs: List[float] = []
        accs: List[float] = []
        for workload_name in programs:
            result = by_design[name][workload_name]
            mpki[workload_name] = result.mpki
            ipcs.append(result.ipc)
            accs.append(result.branch_accuracy)
        points.append(
            DesignPoint(
                name=name,
                topology=topology,
                mean_mpki=arithmetic_mean(list(mpki.values())),
                harmean_ipc=harmonic_mean(ipcs) if backend == "cycle" else 0.0,
                mean_accuracy=arithmetic_mean(accs),
                area_um2=area,
                direction_storage_kib=storage,
                per_workload_mpki=mpki,
                predict_latency=reference.depth,
            )
        )
    return points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated designs, ordered by increasing area."""
    frontier = [
        p
        for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: p.area_um2)


def format_points(points: Sequence[DesignPoint]) -> str:
    header = (
        f"{'design':16s} {'MPKI':>7s} {'IPC':>6s} {'acc':>7s} "
        f"{'KiB':>7s} {'area um2':>10s}  topology"
    )
    lines = [header, "-" * len(header)]
    for p in sorted(points, key=lambda p: p.area_um2):
        lines.append(
            f"{p.name:16s} {p.mean_mpki:7.1f} {p.harmean_ipc:6.2f} "
            f"{p.mean_accuracy * 100:6.1f}% {p.direction_storage_kib:7.1f} "
            f"{p.area_um2:10.0f}  {p.topology}"
        )
    return "\n".join(lines)
