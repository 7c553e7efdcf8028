"""Seeded generation of random topologies and branch-heavy programs.

Everything here is a pure function of a :class:`random.Random` stream (or
of a frozen spec), so a campaign seed fully determines every case the
fuzzer runs — the property the reproducer format and the minimizer both
rest on.  Two generators ship:

- :func:`random_topology_spec` draws well-formed topology strings in the
  paper notation, over the same component bases the shipped library
  registers.  Generated specs are *check-clean by construction* for the
  error-severity topology rules (an arbitration selector is never faster
  than its children, history components never get latency 1), so the
  ``check`` oracle can demand zero errors without false positives.
- :func:`random_program_spec` draws a :class:`ProgramSpec` — a declarative
  list of kernel invocations over
  :data:`repro.workloads.generators.KERNEL_EMITTERS` plus a data seed.
  :func:`build_program` turns a spec into a bit-identical
  :class:`~repro.isa.program.Program`; the minimizer shrinks the spec
  (delete kernels, drop iterations, halve sizes), never raw instructions,
  so every shrunk candidate is still a well-formed program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.components.library import standard_library
from repro.core.composer import ComposedPredictor, ComposerConfig, compose
from repro.isa.program import Program
from repro.spec import LEGAL_SIZINGS
from repro.workloads.generators import assemble_workload

#: Component bases that only see the PC and may respond in one cycle.
FAST_BASES = ("BIM", "BTB", "UBTB")
#: Component bases that consume a history register (latency >= 2, Fig. 2).
HISTORY_BASES = ("GSHARE", "GBIM", "LBIM", "PSHARE", "GSELECT", "GTAG", "TAGE")

#: Kernel parameter domains the generator samples (and the minimizer
#: shrinks toward each range's lower bound).  Integer ranges are inclusive.
KERNEL_PARAM_DOMAINS: Dict[str, Dict[str, Tuple[int, int]]] = {
    "stream": {"n": (8, 96)},
    "data_branches": {"n": (8, 96)},
    "lcg_branches": {"n": (8, 64)},
    "correlated": {"n": (16, 96)},
    "nested_loops": {},
    "linked_list": {"n_nodes": (8, 64)},
    "switch": {"n": (8, 48)},
    "recursive": {"depth": (2, 16)},
    "dense_branches": {"n": (8, 48)},
    "hammock": {"n": (8, 48)},
    "string_ops": {"length": (4, 16)},
}


def campaign_rng(seed: int, iteration: int) -> random.Random:
    """The per-iteration RNG: stable across platforms and oracle sets."""
    return random.Random(f"cobra-fuzz:{seed}:{iteration}")


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def _max_latency(spec: str) -> int:
    """Largest trailing latency digit in a generated spec (ours are 1-9)."""
    return max(int(ch) for ch in spec if ch.isdigit())


def random_unit(rng: random.Random) -> Tuple[str, int]:
    """Draw one (base, latency) pair, check-clean by construction.

    Fast (PC-only) bases may respond at cycle 1; history consumers start
    at cycle 2 (the Fig. 2 timing rule CON003 enforces).  Shared with the
    ``repro.explore`` mutation operators so searched and fuzzed designs
    draw components from the same pool.
    """
    if rng.random() < 0.4:
        return rng.choice(FAST_BASES), rng.randint(1, 4)
    return rng.choice(HISTORY_BASES), rng.randint(2, 4)


def random_topology_spec(rng: random.Random, depth: int = 0) -> str:
    """A random well-formed, check-clean topology spec in paper notation."""

    def unit() -> str:
        base, latency = random_unit(rng)
        return f"{base}{latency}"

    roll = rng.random()
    if depth < 2 and roll < 0.25:
        # TOURNEY takes exactly two predict_in inputs, so exactly two
        # children; the selector must be at least as slow as what it
        # arbitrates (TOP002), so its latency is drawn at or above the
        # slowest child.
        children = [random_topology_spec(rng, depth + 1) for _ in range(2)]
        floor = max(2, max(_max_latency(child) for child in children))
        latency = rng.randint(floor, max(floor, 4))
        return f"TOURNEY{latency} > [{', '.join(children)}]"
    if depth < 3 and roll < 0.75:
        return f"{unit()} > {random_topology_spec(rng, depth + 1)}"
    return unit()


def random_library_params(
    rng: random.Random, max_params: int = 3
) -> Tuple[Tuple[str, int], ...]:
    """Draw component sizings from the spec-declared legal ranges.

    Each drawn parameter is a ``standard_library`` keyword whose value
    comes from :data:`repro.spec.LEGAL_SIZINGS`, so every generated
    library is one the declarative specs vouch for — the spec oracle can
    demand a clean ``repro check --spec`` on every case without false
    positives.  An empty draw (the default sizing) stays common so the
    Table I configuration keeps getting fuzzed too.
    """
    count = rng.randint(0, max_params)
    names = sorted(rng.sample(sorted(LEGAL_SIZINGS), count))
    return tuple((name, rng.choice(LEGAL_SIZINGS[name])) for name in names)


@dataclass(frozen=True)
class TopologyFactory:
    """Picklable zero-argument predictor factory for a sized topology.

    ``library_params`` (``standard_library`` keyword/value pairs, usually
    drawn by :func:`random_library_params`) resizes the component library
    the topology is composed over; empty means the shipped defaults, which
    build the same predictor as the bare topology string does through
    :func:`repro.eval.parallel.build_predictor`.  Jobs ship to worker
    processes, so the factory must survive pickling — a closure over
    ``compose`` would silently fall back to the serial path.
    """

    spec: str
    library_params: Tuple[Tuple[str, int], ...] = ()

    def __call__(self) -> ComposedPredictor:
        library = (
            standard_library(**dict(self.library_params))
            if self.library_params
            else None
        )
        return compose(self.spec, library=library, config=ComposerConfig())


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """One kernel invocation: registry name plus frozen parameters."""

    kernel: str
    params: Tuple[Tuple[str, int], ...] = ()

    def as_mapping(self) -> Dict[str, int]:
        return dict(self.params)


@dataclass(frozen=True)
class ProgramSpec:
    """A declarative, replayable recipe for one fuzz workload."""

    seed: int
    outer_iterations: int
    kernels: Tuple[KernelSpec, ...]
    name: str = "fuzzcase"

    def describe(self) -> str:
        parts = ", ".join(k.kernel for k in self.kernels)
        return f"{self.name}(seed={self.seed}, outer={self.outer_iterations}: {parts})"


def build_program(spec: ProgramSpec) -> Program:
    """Materialize a spec; same spec in, bit-identical program out."""
    return assemble_workload(
        spec.name,
        spec.seed,
        [(k.kernel, k.as_mapping()) for k in spec.kernels],
        outer_iterations=spec.outer_iterations,
    )


def random_kernel_spec(rng: random.Random, kernel: Optional[str] = None) -> KernelSpec:
    name = kernel or rng.choice(sorted(KERNEL_PARAM_DOMAINS))
    params = tuple(
        (param, rng.randint(lo, hi))
        for param, (lo, hi) in sorted(KERNEL_PARAM_DOMAINS[name].items())
    )
    return KernelSpec(kernel=name, params=params)


def random_program_spec(
    rng: random.Random,
    max_kernels: int = 4,
    max_outer_iterations: int = 4,
) -> ProgramSpec:
    n_kernels = rng.randint(1, max_kernels)
    return ProgramSpec(
        seed=rng.randrange(1, 1 << 30),
        outer_iterations=rng.randint(1, max_outer_iterations),
        kernels=tuple(random_kernel_spec(rng) for _ in range(n_kernels)),
    )


def shrink_param(spec: KernelSpec, param: str, value: int) -> KernelSpec:
    """A copy of ``spec`` with one parameter replaced."""
    params = tuple(
        (name, value if name == param else old) for name, old in spec.params
    )
    return replace(spec, params=params)


def param_floor(kernel: str, param: str) -> int:
    """The smallest legal value the minimizer may shrink ``param`` to."""
    return KERNEL_PARAM_DOMAINS[kernel][param][0]


# Re-exported for reproducer metadata: a spec as plain JSON-able data.
def spec_to_payload(spec: ProgramSpec) -> Dict[str, object]:
    return {
        "name": spec.name,
        "seed": spec.seed,
        "outer_iterations": spec.outer_iterations,
        "kernels": [
            {"kernel": k.kernel, "params": dict(k.params)} for k in spec.kernels
        ],
    }


def spec_from_payload(payload: Mapping[str, object]) -> ProgramSpec:
    kernels = tuple(
        KernelSpec(
            kernel=entry["kernel"],
            params=tuple(sorted((str(k), int(v)) for k, v in entry["params"].items())),
        )
        for entry in payload["kernels"]
    )
    return ProgramSpec(
        seed=int(payload["seed"]),
        outer_iterations=int(payload["outer_iterations"]),
        kernels=kernels,
        name=str(payload.get("name", "fuzzcase")),
    )
