"""Differential oracles: equivalence contracts a fuzz case must satisfy.

Each oracle runs one generated (predictor, workload) case through two or
more execution paths that the framework guarantees agree exactly, and
reports every disagreement as a :class:`Mismatch`.  The catalog:

``backends``
    Bit-identity of the trace-driven family against the reference
    commit-order walk (:func:`repro.fuzz.reference.drive_stream` over the
    interpreter stream, one query per packet): the ``trace`` backend over
    a live capture, a save/load ``replay`` of the captured
    :class:`~repro.workloads.traces.BranchTrace`, and the columnar walker
    driven both ways — scalar and, when the composition is eligible,
    through the batch-kernel segment engine (``repro.kernels``).  The
    ``cycle`` backend is deliberately *not* in this oracle: its wrong-path
    predictor pollution makes its mispredict counts differ from the
    trace-driven methodology by design (§II-B, ``docs/backends.md``).
``parallel``
    ``run_suite`` with ``jobs=2`` must reproduce the serial reference run
    payload-for-payload (results, stats, everything).
``cache``
    A result served from the deterministic result cache must equal both
    the run that populated it and a fresh uncached run.
``telemetry``
    Attaching a telemetry collector must not change any measured count, on
    the cycle backend and on replay (where telemetry turns the branchless
    skip and the segment engine off on the same walker — so this doubles
    as a skip-versus-full-walk check).
``check``
    ``repro check`` on the generated topology must report zero
    error-severity diagnostics (warnings are legal for random designs).
``spec``
    ``repro check --spec`` semantics over the composed predictor, seeded
    with the case's seed: every instantiated component — including ones
    built from fuzz-drawn library sizings — must conform to its
    declarative :class:`repro.spec.ComponentSpec` (zero error-severity
    SPEC diagnostics).  SPEC009 makes this the fuzz-scale twin drive too:
    a component in a spec-derived family (HBIM, the two-level variants,
    GTag) must be bit-identical, step for step, to its frozen
    pre-refactor reference (:mod:`repro.derive.reference`).
``explore``
    The `repro explore` search operators applied to the case's topology
    (at its fuzz-drawn library sizings) must produce children that
    round-trip through ``parse_topology(describe())``, stay check-clean
    (zero error-severity topology diagnostics), and respect the storage
    budget the operator was invoked with — the check-clean-by-construction
    claim the optimizer rests on, fuzzed over the same topology
    distribution the other oracles see.

Any exception inside an oracle is itself a finding (subject ``crash``):
generated inputs must never crash the framework.
"""

from __future__ import annotations

import dataclasses
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.backends import RunLimits, get_backend
from repro.backends.replay import drive_columns, trace_packets
from repro.eval.cache import ResultCache, result_to_payload
from repro.eval.metrics import RunResult
from repro.eval.parallel import EvalJob, ParallelRunner, build_predictor
from repro.eval.runner import run_suite, run_workload
from repro.frontend.config import CoreConfig
from repro.fuzz.generate import ProgramSpec, TopologyFactory, build_program
from repro.fuzz.reference import reference_walk
from repro.kernels.engine import engine_for
from repro.isa.program import Program
from repro.workloads.registry import WorkloadSource
from repro.workloads.traces import capture_trace

#: Predictor spec a case carries: a preset name or a picklable factory.
PredictorSpec = Union[str, TopologyFactory]

#: Instruction budget for the cycle-backend oracles (the cycle core is an
#: order of magnitude slower than the trace-driven walkers, so they run a
#: shorter prefix of the same program).
CYCLE_BUDGET = 1_500


@dataclasses.dataclass(frozen=True)
class Mismatch:
    """One oracle disagreement (or crash) on one case."""

    oracle: str
    subject: str
    expected: Dict[str, Any]
    actual: Dict[str, Any]
    detail: str = ""

    def payload(self) -> Dict[str, Any]:
        """The identity-bearing part (``detail`` may carry tracebacks)."""
        return {
            "oracle": self.oracle,
            "subject": self.subject,
            "expected": self.expected,
            "actual": self.actual,
        }

    def format(self) -> str:
        lines = [
            f"[{self.oracle}] {self.subject}:",
            f"  expected {self.expected}",
            f"  actual   {self.actual}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


@dataclasses.dataclass
class FuzzCase:
    """One generated (predictor, workload) input to the oracle battery."""

    case_id: int
    seed: int
    label: str
    predictor_spec: PredictorSpec
    topology: str
    program_spec: ProgramSpec
    max_instructions: int = 4_000
    #: Authoritative program columns decoded from a reproducer artifact.
    #: Normally None: the program is rebuilt from ``program_spec``.  Set
    #: only when a stored artifact's columns no longer match what the
    #: generators produce (generator drift after the artifact was saved).
    program_override: Optional[Program] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def is_preset(self) -> bool:
        return isinstance(self.predictor_spec, str)

    def build_predictor(self):
        """A power-on-fresh predictor for this case."""
        return build_predictor(self.predictor_spec)

    def program(self) -> Program:
        if self.program_override is not None:
            return self.program_override
        return build_program(self.program_spec)

    def describe(self) -> str:
        return (
            f"case {self.case_id} [{self.label}] {self.topology} :: "
            f"{self.program_spec.describe()} (<= {self.max_instructions} instrs)"
        )


def run_signature(result: RunResult) -> Dict[str, Any]:
    """The comparable measurement fields of a run."""
    return {
        "instructions": result.instructions,
        "branches": result.branches,
        "branch_mispredicts": result.branch_mispredicts,
        "target_mispredicts": result.target_mispredicts,
        "cycles": result.cycles,
        "flushes": result.flushes,
    }


def _walk_signature(counts) -> Dict[str, Any]:
    return {
        "instructions": counts.instructions,
        "branches": counts.branches,
        "branch_mispredicts": counts.mispredicts,
        "target_mispredicts": 0,
        "cycles": 0,
        "flushes": 0,
    }


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_backends(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Every trace-driven path against the reference commit-order walk."""
    program = case.program()
    limits = RunLimits(max_instructions=case.max_instructions)
    expected = _walk_signature(
        reference_walk(case.build_predictor(), program, case.max_instructions)
    )
    legs = []

    # Both backend names: ``trace`` over a live capture, ``replay`` over a
    # save/load round trip of the same capture (the branchless skip only
    # when the composition is branchless-inert).
    live = WorkloadSource(name=program.name, program=program)
    traced = get_backend("trace").run(case.build_predictor(), live, limits)
    legs.append(("trace-vs-capture", run_signature(traced), "trace backend"))
    trace = capture_trace(program, max_instructions=case.max_instructions)
    npz = scratch / f"case{case.case_id}.npz"
    trace.save(npz)
    stored = WorkloadSource(name=program.name, trace_path=npz)
    replayed = get_backend("replay").run(case.build_predictor(), stored, limits)
    legs.append(("trace-vs-replay", run_signature(replayed), "stored-trace replay"))

    # The columnar walker both ways: scalar (engine disabled) and with the
    # batch-kernel segment engine, pinned independently of how the
    # backends build their engine.  The walker decides the branchless skip
    # itself, so the scalar leg also covers non-inert compositions; the
    # kernel leg needs every component to advertise a columnar kernel.
    scalar_pred = case.build_predictor()
    skipped = drive_columns(
        scalar_pred,
        trace,
        trace_packets(trace, scalar_pred.config.fetch_width),
        case.max_instructions,
        engine=None,
    )
    legs.append(
        (
            "trace-vs-columnar-skip",
            _walk_signature(skipped),
            "columnar walker (scalar, no kernels)",
        )
    )
    kernel_pred = case.build_predictor()
    engine = engine_for(kernel_pred)
    if engine is not None:
        batched = drive_columns(
            kernel_pred,
            trace,
            trace_packets(trace, kernel_pred.config.fetch_width),
            case.max_instructions,
            engine=engine,
        )
        legs.append(
            (
                "trace-vs-columnar-kernel",
                _walk_signature(batched),
                "columnar walker with batch kernels",
            )
        )
    return [
        Mismatch(
            "backends",
            subject,
            expected,
            actual,
            f"{path} diverged from the reference commit-order walk",
        )
        for subject, actual, path in legs
        if actual != expected
    ]


def oracle_parallel(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Serial ``run_suite`` is the reference; ``jobs=2`` must match it."""
    program = case.program()
    budget = min(case.max_instructions, CYCLE_BUDGET)
    # Two systems make two picklable jobs, so the pool genuinely fans out.
    systems = [(case.label, case.predictor_spec, None), "b2"]
    programs = {program.name: program}
    serial = run_suite(systems, programs, max_instructions=budget, jobs=1)
    fanned = run_suite(systems, programs, max_instructions=budget, jobs=2)
    mismatches: List[Mismatch] = []
    for system, rows in serial.items():
        for workload, result in rows.items():
            expected = result_to_payload(result)
            actual = result_to_payload(fanned[system][workload])
            if actual != expected:
                mismatches.append(
                    Mismatch(
                        "parallel",
                        f"{system}/{workload}",
                        run_signature(result),
                        run_signature(fanned[system][workload]),
                        "jobs=2 result payload differs from the serial run",
                    )
                )
    return mismatches


def oracle_cache(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Cache round trip: computed == cached == fresh uncached."""
    program = case.program()
    budget = min(case.max_instructions, CYCLE_BUDGET)
    job = EvalJob(
        system=case.label,
        spec=case.predictor_spec,
        workload=program.name,
        program=program,
        core_config=CoreConfig(),
        max_instructions=budget,
        backend="cycle",
    )
    cache_dir = scratch / f"cache{case.case_id}"
    first = ParallelRunner(cache=ResultCache(cache_dir)).run([job])[0]
    second_cache = ResultCache(cache_dir)
    second = ParallelRunner(cache=second_cache).run([job])[0]
    mismatches: List[Mismatch] = []
    if second_cache.hits != 1:
        mismatches.append(
            Mismatch(
                "cache",
                "vacuous",
                {"hits": 1},
                {"hits": second_cache.hits},
                "second run did not hit the cache; the oracle tested nothing",
            )
        )
    fresh = ParallelRunner().run([job])[0]
    for name, result in (("cached", second), ("fresh", fresh)):
        if result_to_payload(result) != result_to_payload(first):
            mismatches.append(
                Mismatch(
                    "cache",
                    f"first-vs-{name}",
                    run_signature(first),
                    run_signature(result),
                    f"{name} result payload diverged from the computed run",
                )
            )
    return mismatches


def oracle_telemetry(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Attaching a telemetry collector must not change any count."""
    program = case.program()
    mismatches: List[Mismatch] = []
    for backend, budget in (
        ("cycle", min(case.max_instructions, CYCLE_BUDGET)),
        ("replay", case.max_instructions),
    ):
        bare = run_workload(
            case.build_predictor(),
            program,
            max_instructions=budget,
            backend=backend,
            system_name=case.label,
        )
        with_telemetry = run_workload(
            case.build_predictor(),
            program,
            max_instructions=budget,
            backend=backend,
            system_name=case.label,
            telemetry=True,
        )
        if with_telemetry.telemetry is None:
            mismatches.append(
                Mismatch(
                    "telemetry",
                    f"{backend}-vacuous",
                    {"telemetry": "summary"},
                    {"telemetry": None},
                    "telemetry run produced no summary; the oracle tested "
                    "nothing",
                )
            )
        if run_signature(with_telemetry) != run_signature(bare):
            mismatches.append(
                Mismatch(
                    "telemetry",
                    f"{backend}-attach",
                    run_signature(bare),
                    run_signature(with_telemetry),
                    f"telemetry attach changed {backend} backend counts",
                )
            )
    return mismatches


def oracle_check(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Static analysis must report zero error-severity diagnostics."""
    from repro.analysis.diagnostics import ERROR
    from repro.analysis.topology_check import check_spec, check_topology

    if case.is_preset:
        predictor = case.build_predictor()
        diags = check_topology(
            predictor.topology, predictor.config, subject=case.label
        )
    else:
        diags = check_spec(case.topology)
    errors = [d for d in diags if d.severity == ERROR]
    if not errors:
        return []
    return [
        Mismatch(
            "check",
            "topology-errors",
            {"errors": []},
            {"errors": [f"{d.code}: {d.message}" for d in errors]},
            "generated topology fails static analysis",
        )
    ]


def oracle_spec(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Every composed component must conform to its declarative spec.

    Runs ``repro check --spec`` semantics over the case's instantiated
    components rather than the shipped library, so fuzz-drawn sizings
    (:func:`repro.fuzz.generate.random_library_params`) are covered too,
    and seeds the probes and the SPEC009 twin drive with the case's seed.
    """
    from repro.analysis.diagnostics import ERROR
    from repro.analysis.spec_check import check_component_spec

    predictor = case.build_predictor()
    errors = []
    for component in predictor.components:
        diags = check_component_spec(
            component, subject=component.name, seed=case.seed
        )
        errors.extend(d for d in diags if d.severity == ERROR)
    if not errors:
        return []
    return [
        Mismatch(
            "spec",
            "component-spec",
            {"errors": []},
            {"errors": [f"{d.code}: {d.message}" for d in errors]},
            "a composed component diverges from its declarative spec",
        )
    ]


def oracle_explore(case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Search-operator outputs must stay legal, check-clean, and budgeted.

    Applies the `repro explore` mutation operators (and one crossover
    against a fresh random mate) to the case's topology at its fuzz-drawn
    library sizings, then asserts for every child: the rendered spec
    composes and round-trips through ``parse_topology(describe())``
    unchanged; ``repro check`` reports zero error-severity diagnostics;
    and total storage respects the budget the operator was given.
    """
    import random

    from repro.analysis.diagnostics import ERROR
    from repro.analysis.topology_check import check_topology
    from repro.explore.operators import (
        Candidate,
        candidate_storage_kib,
        crossover,
        mutate,
    )
    from repro.fuzz.generate import random_topology_spec

    params = (
        case.predictor_spec.library_params
        if isinstance(case.predictor_spec, TopologyFactory)
        else ()
    )
    parent = Candidate(spec=case.topology, params=params)
    # Generous headroom over the parent so structural growth is exercised;
    # the oracle then holds children to exactly this bound.
    budget_kib = candidate_storage_kib(parent) * 2.0 + 64.0
    rng = random.Random(f"cobra-explore-oracle:{case.seed}:{case.case_id}")
    children = [mutate(rng, parent, budget_kib) for _ in range(3)]
    mate = Candidate(spec=random_topology_spec(rng), params=params)
    children.append(crossover(rng, parent, mate, budget_kib))

    mismatches: List[Mismatch] = []
    for child in children:
        predictor = child.build()
        described = predictor.describe()
        re_described = TopologyFactory(described, child.params)().describe()
        if re_described != described:
            mismatches.append(
                Mismatch(
                    "explore",
                    f"roundtrip:{child.origin or 'parent'}",
                    {"describe": described},
                    {"describe": re_described},
                    f"operator output {child.spec!r} does not round-trip "
                    "through parse_topology(describe())",
                )
            )
            continue
        errors = [
            d
            for d in check_topology(predictor.topology, predictor.config)
            if d.severity == ERROR
        ]
        if errors:
            mismatches.append(
                Mismatch(
                    "explore",
                    f"check:{child.origin or 'parent'}",
                    {"errors": []},
                    {"errors": [f"{d.code}: {d.message}" for d in errors]},
                    f"operator output {child.spec!r} fails static analysis",
                )
            )
        storage = predictor.total_storage_kib()
        if storage > budget_kib:
            mismatches.append(
                Mismatch(
                    "explore",
                    f"budget:{child.origin or 'parent'}",
                    {"storage_kib_within": budget_kib},
                    {"storage_kib": storage},
                    f"operator output {child.spec!r} busts the storage "
                    "budget it was constructed under",
                )
            )
    return mismatches


#: Oracle registry, in default execution order.
ORACLES: Dict[str, Callable[[FuzzCase, Path], List[Mismatch]]] = {
    "backends": oracle_backends,
    "parallel": oracle_parallel,
    "cache": oracle_cache,
    "telemetry": oracle_telemetry,
    "check": oracle_check,
    "spec": oracle_spec,
    "explore": oracle_explore,
}

DEFAULT_ORACLES = tuple(ORACLES)


def run_oracle(name: str, case: FuzzCase, scratch: Path) -> List[Mismatch]:
    """Run one oracle; an exception becomes a ``crash`` mismatch."""
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise KeyError(f"unknown oracle {name!r}; have {sorted(ORACLES)}") from None
    try:
        return oracle(case, scratch)
    except Exception as exc:
        return [
            Mismatch(
                name,
                "crash",
                {"outcome": "completes"},
                {"outcome": f"{type(exc).__name__}: {exc}"},
                traceback.format_exc(),
            )
        ]


def run_oracles(
    names, case: FuzzCase, scratch: Path, stop_on_first: bool = False
) -> List[Mismatch]:
    found: List[Mismatch] = []
    for name in names:
        found.extend(run_oracle(name, case, scratch))
        if found and stop_on_first:
            break
    return found
