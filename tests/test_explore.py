"""Design-space exploration (`repro explore`) tests.

Tier-1 coverage of the evolutionary search stack: seeded end-to-end
determinism (same seed, same front), warm-cache resume with zero cold
executions (proved by the cache counters in the provenance block),
grammar-aware operator properties (every mutated/crossed-over candidate
is check-clean and within the storage budget), the exact archive checked
against brute-force dominance, the committed golden snapshot, and the
`explore` fuzz oracle.
"""

import random
from pathlib import Path

import pytest

from repro.analysis.diagnostics import ERROR
from repro.analysis.topology_check import check_spec
from repro.cli import main as cli_main
from repro.eval.cache import ResultCache
from repro.explore import (
    GOLDEN_EXPLORE_CONFIG,
    Candidate,
    ParetoArchive,
    build_schedule,
    candidate_storage_kib,
    check_explore_golden,
    crossover,
    dominates,
    explore,
    load_artifact,
    mutate,
    non_dominated,
    result_payload,
    seed_candidates,
    seed_population,
)
from repro.explore.grammar import parse, units
from repro.explore.halving import promote_count
from repro.explore.pareto import FrontPoint
from repro.explore.population import random_candidate
from repro.fuzz import FuzzConfig, case_for_iteration, run_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "goldens" / "golden_explore.json"


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold golden-config search with a fresh cache, shared module-wide."""
    cache_dir = tmp_path_factory.mktemp("explore-cache")
    cache = ResultCache(cache_dir)
    result = explore(GOLDEN_EXPLORE_CONFIG, progress=None)
    # Re-run with the cache attached so the warm-resume test has a primed
    # directory; provenance of this second run records the cold fill.
    import dataclasses

    config = dataclasses.replace(GOLDEN_EXPLORE_CONFIG, cache=cache)
    cached_result = explore(config)
    return result, cached_result, cache_dir


# ----------------------------------------------------------------------
# End-to-end: determinism, resume, golden
# ----------------------------------------------------------------------
def test_same_seed_identical_fronts(cold_run):
    """Two runs with the same seed produce identical Pareto fronts."""
    uncached, cached, _ = cold_run
    assert result_payload(uncached, golden=True) == result_payload(cached, golden=True)
    assert len(uncached.front) > 0


def test_warm_cache_resume_zero_cold_evaluations(cold_run):
    """A resumed run against a warm cache executes zero cold jobs."""
    _, cached, cache_dir = cold_run
    # The priming run had to fill the cache.
    assert cached.provenance["cold_evaluations"] > 0
    import dataclasses

    warm_cache = ResultCache(cache_dir)
    config = dataclasses.replace(GOLDEN_EXPLORE_CONFIG, cache=warm_cache)
    warm = explore(config)
    assert warm.provenance["cold_evaluations"] == 0
    assert warm.provenance["cache_hits"] == warm.provenance["scheduled_cells"]
    assert warm_cache.misses == 0
    assert result_payload(warm, golden=True) == result_payload(cached, golden=True)


def test_golden_snapshot_matches(cold_run):
    """The committed snapshot matches a fresh run of the frozen config."""
    uncached, _, _ = cold_run
    ok, messages = check_explore_golden(GOLDEN_PATH, result=uncached)
    assert ok, "\n".join(messages)


def test_front_dominates_a_seeded_preset(cold_run):
    uncached, _, _ = cold_run
    assert uncached.dominated_seeds(), (
        "fixed-seed search should beat at least one seeded preset "
        "on MPKI-vs-area"
    )
    assert uncached.provenance["dominated_seeds"] == uncached.dominated_seeds()


def test_halving_saves_evaluations(cold_run):
    uncached, _, _ = cold_run
    prov = uncached.provenance
    assert prov["evals_saved_by_halving"] > 0
    assert prov["halving_cold_cells"] < prov["halving_full_cells"]


def _tiny_config(jobs, **overrides):
    """A search small enough that the two-worker path costs seconds."""
    import dataclasses

    config = dataclasses.replace(
        GOLDEN_EXPLORE_CONFIG,
        generations=2,
        population_size=4,
        rungs=2,
        workloads=("biased", "dispatch"),
        scale=0.15,
        max_instructions=400,
        jobs=jobs,
    )
    return dataclasses.replace(config, **overrides)


def test_two_worker_search_matches_serial(tmp_path, pool_starts, new_children):
    """jobs=2 fans the seeds batch and every halving rung over one pool and
    must return the serial search's result, leaving no worker behind."""
    serial = explore(_tiny_config(jobs=1))
    assert pool_starts == []
    fanned = explore(_tiny_config(jobs=2, cache=tmp_path / "cache"))
    assert pool_starts == [2]
    assert not new_children()
    assert fanned.provenance["cold_evaluations"] > 0
    assert result_payload(fanned, golden=True) == result_payload(serial, golden=True)


def test_search_that_raises_leaves_no_worker(monkeypatch, pool_starts, new_children):
    """A search failing after its pool started still joins the workers."""
    import repro.explore.search as search_mod

    def broken_breed(*args):
        raise RuntimeError("breeding failed")

    monkeypatch.setattr(search_mod, "_breed", broken_breed)
    with pytest.raises(RuntimeError, match="breeding failed"):
        explore(_tiny_config(jobs=2))
    assert pool_starts == [2]
    assert not new_children()


# ----------------------------------------------------------------------
# Operator properties: check-clean and budget-respecting by construction
# ----------------------------------------------------------------------
def _assert_admissible(child: Candidate, budget_kib: float, max_units: int):
    diagnostics = check_spec(child.spec)
    errors = [d for d in diagnostics if d.severity == ERROR]
    assert not errors, (
        f"operator output {child.spec!r} has error diagnostics: "
        + "; ".join(d.format() for d in errors)
    )
    assert candidate_storage_kib(child) <= budget_kib
    assert len(units(parse(child.spec))) <= max_units
    # describe() is a fixed point: re-parsing it reproduces itself.
    described = child.build().describe()
    rebuilt = Candidate(spec=described, params=child.params)
    assert rebuilt.build().describe() == described


def test_mutations_stay_check_clean_and_in_budget():
    rng = random.Random("explore-test-mutate")
    budget, max_units = 96.0, 8
    pool = seed_population(rng, 8, budget)
    for i in range(40):
        parent = pool[i % len(pool)]
        child = mutate(rng, parent, budget, max_units=max_units)
        _assert_admissible(child, budget, max_units)
        pool.append(child)  # mutate the mutants too


def test_crossovers_stay_check_clean_and_in_budget():
    rng = random.Random("explore-test-crossover")
    budget, max_units = 96.0, 8
    pool = seed_population(rng, 8, budget)
    for i in range(25):
        first = pool[i % len(pool)]
        second = pool[(i * 3 + 1) % len(pool)]
        child = crossover(rng, first, second, budget, max_units=max_units)
        _assert_admissible(child, budget, max_units)
        pool.append(child)


def test_mutate_falls_back_to_parent_under_impossible_budget():
    rng = random.Random("explore-test-tiny-budget")
    parent = seed_candidates()[0]
    child = mutate(rng, parent, budget_kib=0.001)
    assert child.key == parent.key


def test_seed_population_is_deduped_and_in_budget():
    rng = random.Random("explore-test-seeds")
    population = seed_population(rng, 12, 96.0)
    keys = [c.key for c in population]
    assert len(keys) == len(set(keys))
    assert all(candidate_storage_kib(c) <= 96.0 for c in population)
    # Presets lead the population.
    assert population[0].origin.startswith("seed:")


# ----------------------------------------------------------------------
# Archive vs brute-force dominance
# ----------------------------------------------------------------------
def _random_points(rng: random.Random, n: int):
    # Small discrete grids force duplicates and dominance chains.
    return [
        (
            round(rng.uniform(0.0, 8.0), 1),
            float(rng.choice((100, 250, 400, 650, 900))),
            float(rng.randint(1, 4)),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_archive_matches_brute_force(seed):
    rng = random.Random(f"explore-test-archive:{seed}")
    points = _random_points(rng, 150)
    archive = ParetoArchive()
    for i, objectives in enumerate(points):
        archive.offer(
            FrontPoint(
                name=f"p{i}",
                spec="BIM1",
                params=(),
                origin="test",
                mean_mpki=objectives[0],
                area_um2=objectives[1],
                predict_latency=int(objectives[2]),
                storage_kib=0.0,
                mean_accuracy=0.0,
            )
        )
    got = sorted(p.objectives for p in archive.front())
    want = sorted(non_dominated(points))
    assert got == want
    # Duplicate-free and mutually non-dominated.
    assert len(got) == len(set(got))
    front = archive.front()
    for a in front:
        for b in front:
            if a is not b:
                assert not dominates(a.objectives, b.objectives)


def test_dominance_relation():
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert not dominates((1.0, 3.0), (1.0, 2.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))  # equal: not strict
    assert not dominates((0.5, 3.0), (1.0, 2.0))  # trade-off


def test_halving_schedule_shape():
    workloads = ("a", "b", "c", "d", "e")
    schedule = build_schedule(workloads, rungs=3)
    assert schedule[-1] == workloads
    sizes = [len(rung) for rung in schedule]
    assert sizes == sorted(sizes) and sizes[0] >= 1
    # Rungs are prefixes of the full suite (cache-friendly supersets).
    for rung in schedule:
        assert rung == workloads[: len(rung)]
    assert promote_count(8, 2) == 4
    assert promote_count(1, 2) == 1
    assert build_schedule(workloads, rungs=1) == [workloads]


# ----------------------------------------------------------------------
# Fuzz oracle and CLI
# ----------------------------------------------------------------------
def test_explore_oracle_clean_on_campaign_cases(tmp_path):
    config = FuzzConfig(seed=0, iterations=8)
    for i in range(8):  # includes the preset-topology cadence
        case = case_for_iteration(config, i)
        mismatches = run_oracle("explore", case, tmp_path)
        assert mismatches == [], [m.format() for m in mismatches]


def test_cli_explore_writes_artifact(tmp_path, capsys):
    out = tmp_path / "pareto.json"
    code = cli_main(
        [
            "explore",
            "--seed",
            "3",
            "--generations",
            "1",
            "--population",
            "4",
            "--workloads",
            "biased",
            "dispatch",
            "--scale",
            "0.15",
            "--max-instructions",
            "2000",
            "--rungs",
            "2",
            "--cache",
            str(tmp_path / "cache"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = load_artifact(out)
    assert payload["schema"] == 1
    assert payload["front"], "front must be non-empty"
    assert payload["provenance"]["seed"] == 3
    text = capsys.readouterr().out
    assert "Pareto front" in text and "provenance:" in text


def test_random_candidate_is_parseable():
    rng = random.Random("explore-test-random")
    for _ in range(20):
        candidate = random_candidate(rng)
        described = candidate.build().describe()
        rebuilt = Candidate(spec=described, params=candidate.params)
        assert rebuilt.build().describe() == described
