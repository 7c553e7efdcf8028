"""The `repro explore` engine: budgeted evolutionary Pareto search.

One generation = seed/breed a population, promote it through the
successive-halving schedule (:mod:`repro.explore.halving`), offer the
full-suite survivors to the exact non-dominated archive
(:mod:`repro.explore.pareto`), then breed the next population from the
survivors with the grammar-aware operators
(:mod:`repro.explore.operators`).

Every fitness evaluation goes through
:func:`repro.eval.sweep.evaluate_designs` — i.e. the PR-1 parallel
engine and deterministic result cache — so a rerun with the same seed
and a warm cache directory replays every completed cell from disk and
executes **zero** cold jobs; the provenance block reports the counters
that prove it.  The search itself is a pure function of
``ExploreConfig.seed``: identical seeds produce identical fronts,
whatever the cache state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.eval import cache as result_cache
from repro.eval.parallel import ParallelRunner
from repro.eval.sweep import DesignPoint, evaluate_designs
from repro.explore import halving
from repro.explore.operators import (
    Candidate,
    candidate_storage_kib,
    crossover,
    mutate,
)
from repro.explore.pareto import FrontPoint, ParetoArchive, dominates
from repro.explore.population import (
    dedup,
    random_candidate,
    seed_candidates,
    seed_population,
)

ProgressFn = Callable[[str], None]

#: Default workload suite: a behaviour-diverse subset of the micros,
#: cheap-to-expensive so the halving prefixes stay cheap.
DEFAULT_WORKLOADS: Tuple[str, ...] = (
    "biased",
    "dispatch",
    "pattern_short",
    "counted_loops",
    "pattern_long",
)


@dataclass
class ExploreConfig:
    """Everything that determines a search run (and its cache keys)."""

    seed: int = 0
    generations: int = 3
    population_size: int = 12
    #: Storage budget per candidate (total KiB: direction + targets + meta).
    budget_kib: float = 96.0
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    scale: float = 0.2
    max_instructions: Optional[int] = 4000
    backend: str = "trace"
    jobs: int = 1
    cache: Union[None, str, Path, result_cache.ResultCache] = None
    #: Halving promotion factor: each rung keeps the best 1/eta.
    eta: int = 2
    rungs: int = 3
    max_units: int = 8
    crossover_rate: float = 0.3
    #: Fraction of each bred population reserved for fresh random draws.
    immigrant_rate: float = 0.15


@dataclass
class ExploreResult:
    """The search outcome: the front, the baselines, and provenance."""

    front: List[FrontPoint]
    seed_points: List[FrontPoint]
    provenance: Dict[str, Any] = field(default_factory=dict)

    def dominated_seeds(self) -> List[str]:
        """Seed presets strictly dominated by the front on (MPKI, area)."""
        names = []
        for seed in self.seed_points:
            seed_obj = (seed.mean_mpki, seed.area_um2)
            if any(dominates((p.mean_mpki, p.area_um2), seed_obj) for p in self.front):
                names.append(seed.origin.split(":", 1)[1])
        return names


def _build_programs(config: ExploreConfig) -> Dict[str, Any]:
    """Materialize the workload suite (live programs, cache-fingerprinted)."""
    from repro.workloads.registry import resolve_workload

    programs: Dict[str, Any] = {}
    for name in config.workloads:
        source = resolve_workload(name, config.scale)
        if source.program is None:
            raise ValueError(
                f"workload {name!r} is a stored trace; `repro explore` "
                "evaluates live programs (capture-based suites can be added "
                "as registered workloads)"
            )
        programs[source.name] = source.program
    return programs


def explore(
    config: ExploreConfig, progress: Optional[ProgressFn] = None
) -> ExploreResult:
    """Run the search to completion; deterministic in ``config.seed``."""
    if config.rungs < 1 or config.eta < 2:
        raise ValueError("need rungs >= 1 and eta >= 2")
    rng = random.Random(f"cobra-explore:{config.seed}")
    say = progress or (lambda line: None)
    cache = result_cache.resolve_cache(config.cache)
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0

    programs = _build_programs(config)
    schedule = halving.build_schedule(tuple(programs), config.rungs)
    archive = ParetoArchive()
    evaluated: set = set()
    scheduled_cells = 0
    cold_cells_planned = 0
    full_cells_planned = 0
    generation = 0

    runner = ParallelRunner(jobs=config.jobs, cache=cache)

    def evaluate(
        candidates: List[Candidate], workload_names: Tuple[str, ...]
    ) -> Dict[str, DesignPoint]:
        nonlocal scheduled_cells
        designs = {cand.name: cand.factory() for cand in candidates}
        subset = {name: programs[name] for name in workload_names}
        scheduled_cells += len(designs) * len(subset)
        for cand in candidates:
            evaluated.add(cand.key)
        points = evaluate_designs(
            designs,
            subset,
            backend=config.backend,
            max_instructions=config.max_instructions,
            runner=runner,
        )
        return {point.name: point for point in points}

    # One runner, so one worker pool, serves the baselines and every
    # halving rung; leaving the block joins its workers.
    with runner:
        # Baselines: the paper's three designs on the full suite, whatever
        # the budget admits into the population.  The front is asked to
        # beat these.
        seeds = seed_candidates()
        seed_point_map = evaluate(seeds, tuple(programs))
        seed_points = [
            FrontPoint.from_design_point(
                seed_point_map[cand.name],
                params=cand.params,
                origin=cand.origin,
                storage_kib=candidate_storage_kib(cand),
            )
            for cand in seeds
        ]

        population = seed_population(rng, config.population_size, config.budget_kib)
        say(
            f"seeded {len(population)} candidates "
            f"(budget {config.budget_kib:g} KiB, suite {list(programs)})"
        )

        for generation in range(1, config.generations + 1):
            cold_cells_planned += halving.cold_cost(
                len(population), schedule, config.eta
            )
            full_cells_planned += halving.full_cost(len(population), schedule)
            ranked = halving.run_halving(
                population, schedule, evaluate, eta=config.eta
            )
            admitted = 0
            for cand, point in ranked:
                front_point = FrontPoint.from_design_point(
                    point,
                    params=cand.params,
                    origin=cand.origin or "search",
                    storage_kib=candidate_storage_kib(cand),
                    generation=generation,
                )
                if archive.offer(front_point):
                    admitted += 1
            say(
                f"generation {generation}: {len(ranked)} survivors, "
                f"{admitted} joined the front (archive size {len(archive)})"
            )
            if generation == config.generations:
                break
            population = _breed(rng, config, ranked, archive)

    cache_hits = (cache.hits - hits0) if cache is not None else 0
    cache_misses = (cache.misses - misses0) if cache is not None else 0
    result = ExploreResult(
        front=archive.front(),
        seed_points=seed_points,
        provenance={
            "seed": config.seed,
            "generations": generation,
            "population_size": config.population_size,
            "budget_kib": config.budget_kib,
            "workloads": list(programs),
            "scale": config.scale,
            "max_instructions": config.max_instructions,
            "backend": config.backend,
            "eta": config.eta,
            "rungs": len(schedule),
            "unique_candidates": len(evaluated),
            "scheduled_cells": scheduled_cells,
            "halving_cold_cells": cold_cells_planned,
            "halving_full_cells": full_cells_planned,
            "evals_saved_by_halving": full_cells_planned - cold_cells_planned,
            "cache_hits": cache_hits,
            "cold_evaluations": cache_misses,
            "cache_enabled": cache is not None,
            "code_version": result_cache.CODE_VERSION,
        },
    )
    result.provenance["dominated_seeds"] = result.dominated_seeds()
    return result


def _breed(
    rng: random.Random,
    config: ExploreConfig,
    ranked: List[Tuple[Candidate, DesignPoint]],
    archive: ParetoArchive,
) -> List[Candidate]:
    """The next population: elites plus operator children plus immigrants."""
    parents = [cand for cand, _ in ranked]
    # Front members persist as elites: spec+params round-trip losslessly
    # through the archive, so re-evaluating them costs only cache hits.
    elites = [
        Candidate(spec=p.spec, params=p.params, origin=p.origin)
        for p in archive.front()
    ]
    children: List[Candidate] = list(elites)

    def pick_parent() -> Candidate:
        # Rank-biased binary tournament over the halving survivors.
        a, b = rng.randrange(len(parents)), rng.randrange(len(parents))
        return parents[min(a, b)]

    immigrants = max(1, int(config.population_size * config.immigrant_rate))
    attempts = 0
    while (
        len(children) < config.population_size - immigrants
        and attempts < config.population_size * 10
    ):
        attempts += 1
        if rng.random() < config.crossover_rate and len(parents) > 1:
            child = crossover(
                rng,
                pick_parent(),
                pick_parent(),
                config.budget_kib,
                max_units=config.max_units,
            )
        else:
            child = mutate(
                rng,
                pick_parent(),
                config.budget_kib,
                max_units=config.max_units,
            )
        children.append(child)
        children = dedup(children)
    fill_attempts = 0
    while len(children) < config.population_size and fill_attempts < 50:
        fill_attempts += 1
        candidate = random_candidate(rng)
        if candidate_storage_kib(candidate) <= config.budget_kib:
            children.append(candidate)
            children = dedup(children)
    return children[: config.population_size]
