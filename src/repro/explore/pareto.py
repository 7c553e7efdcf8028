"""Exact non-dominated archive over (MPKI, area, predict latency).

The archive is the search's long-term memory: every candidate that
survives to a full-suite evaluation is offered to it, and the archive
keeps exactly the non-dominated, duplicate-free subset.  Minimization on
every objective; dominance is the usual "no worse everywhere, strictly
better somewhere".

:func:`non_dominated` is the brute-force O(n^2) reference the property
tests check the incremental archive against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.eval.sweep import DesignPoint

Objectives = Tuple[float, ...]


def dominates(a: Objectives, b: Objectives) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere, better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated(points: Sequence[Objectives]) -> List[Objectives]:
    """Brute-force reference: the non-dominated, duplicate-free subset."""
    unique = list(dict.fromkeys(points))
    return [p for p in unique if not any(dominates(q, p) for q in unique if q != p)]


@dataclass
class FrontPoint:
    """One archived design: identity, objectives, and full measurements."""

    name: str
    spec: str
    params: Tuple[Tuple[str, int], ...]
    origin: str
    mean_mpki: float
    area_um2: float
    predict_latency: int
    storage_kib: float
    mean_accuracy: float
    per_workload_mpki: Dict[str, float] = field(default_factory=dict)
    #: Generation the point first entered the archive.
    generation: int = 0

    @property
    def objectives(self) -> Objectives:
        return (self.mean_mpki, self.area_um2, float(self.predict_latency))

    @classmethod
    def from_design_point(
        cls,
        point: DesignPoint,
        *,
        params: Tuple[Tuple[str, int], ...] = (),
        origin: str = "",
        storage_kib: float = 0.0,
        generation: int = 0,
    ) -> "FrontPoint":
        return cls(
            name=point.name,
            spec=point.topology,
            params=params,
            origin=origin,
            mean_mpki=point.mean_mpki,
            area_um2=point.area_um2,
            predict_latency=point.predict_latency,
            storage_kib=storage_kib or point.direction_storage_kib,
            mean_accuracy=point.mean_accuracy,
            per_workload_mpki=dict(point.per_workload_mpki),
            generation=generation,
        )


class ParetoArchive:
    """Incrementally maintained exact non-dominated set.

    ``offer`` inserts a point iff nothing in the archive dominates it
    (or duplicates its objectives), evicting everything it dominates.
    The archive is therefore non-dominated and duplicate-free after
    every call — the invariant the property tests brute-force-check.
    """

    def __init__(self) -> None:
        self._points: List[FrontPoint] = []

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self.front())

    def offer(self, point: FrontPoint) -> bool:
        """Try to insert; returns True when the point joined the front."""
        for held in self._points:
            if dominates(held.objectives, point.objectives) or (
                held.objectives == point.objectives
            ):
                return False
        self._points = [
            held
            for held in self._points
            if not dominates(point.objectives, held.objectives)
        ]
        self._points.append(point)
        return True

    def front(self) -> List[FrontPoint]:
        """The archived points, ordered by increasing area then MPKI."""
        return sorted(self._points, key=lambda p: (p.area_um2, p.mean_mpki, p.name))
