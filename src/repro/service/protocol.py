"""Wire types for the evaluation service: job specs, states, and views.

A job spec is the JSON body a client POSTs to ``/jobs`` — the declarative
description of one (predictor, workload, backend, limits) evaluation.  This
module owns its schema: :func:`parse_job_spec` validates a decoded JSON
payload into a :class:`JobSpec`, and :meth:`JobSpec.prepare` normalizes the
spec into the *existing* evaluation vocabulary — an
:class:`~repro.eval.parallel.EvalJob` plus the deterministic result-cache
key from :func:`~repro.eval.parallel.job_cache_key`.  Everything downstream
(dedup of in-flight duplicates, warm-cache hits, worker execution) keys off
that normalization, so an HTTP submission and a CLI ``sweep --cache`` run
of the same cell share one cache entry.

Schema (``docs/service.md`` has the full catalog)::

    {
      "predictor": "tage_l" | "<topology string>",   # required
      "workload":  "<registered name>" | "x.npz",    # required
      "backend":   "cycle" | "trace" | "replay",     # default "cycle"
      "scale":     0.5,                              # workload scale
      "max_instructions": 200000,                    # optional bound
      "max_cycles": null,                            # optional bound
      "sfb":       false,                            # CoreConfig.sfb_enabled
      "telemetry": false                             # attach a collector
    }

Validation failures raise :class:`ProtocolError` with a client-facing
message (the server turns it into a 400); nothing in this module touches
the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.eval.cache import result_to_payload
from repro.eval.metrics import RunResult
from repro.eval.parallel import EvalJob, build_predictor, job_cache_key
from repro.frontend.config import CoreConfig

#: Job lifecycle states, in order.  ``queued`` covers both jobs waiting for
#: a worker and followers coalesced onto an identical in-flight leader.
JOB_STATES = ("queued", "running", "done", "failed")

_SPEC_FIELDS = frozenset(
    {
        "predictor",
        "workload",
        "backend",
        "scale",
        "max_instructions",
        "max_cycles",
        "sfb",
        "telemetry",
    }
)


class ProtocolError(ValueError):
    """A malformed or unsatisfiable job spec (client error, HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated evaluation request (still unnormalized — see prepare)."""

    predictor: str
    workload: str
    backend: str = "cycle"
    scale: float = 0.5
    max_instructions: Optional[int] = None
    max_cycles: Optional[int] = None
    sfb: bool = False
    telemetry: bool = False

    def normalized(self) -> Tuple:
        """Hashable identity used to memoize spec -> (EvalJob, cache key).

        Two specs with equal tuples describe byte-identical runs: every
        field below feeds :meth:`prepare` deterministically (workload
        builders are pure functions of (name, scale)).
        """
        return (
            self.predictor,
            self.workload,
            self.backend,
            self.scale,
            self.max_instructions,
            self.max_cycles,
            self.sfb,
            self.telemetry,
        )

    def prepare(self) -> "PreparedJob":
        """Normalize to the eval layer: build the EvalJob and its cache key.

        Raises :class:`ProtocolError` for anything the eval layer would
        reject later (unknown workload, unparsable topology, a stored
        trace handed to an instruction-executing backend), so clients get
        a 400 at submission time instead of a failed job.
        """
        from repro.backends import backend_names
        from repro.workloads.registry import resolve_workload

        if self.backend not in backend_names():
            raise ProtocolError(
                f"unknown backend {self.backend!r}; "
                f"have {sorted(backend_names())}"
            )

        try:
            build_predictor(self.predictor)
        except Exception as error:
            raise ProtocolError(
                f"unparsable topology {self.predictor!r}: {error}"
            ) from None

        if self.workload.endswith(".npz") and not Path(self.workload).is_file():
            raise ProtocolError(f"stored trace not found: {self.workload}")
        try:
            source = resolve_workload(self.workload, self.scale)
        except KeyError as error:
            raise ProtocolError(str(error)) from None
        if source.program is None and self.backend != "replay":
            raise ProtocolError(
                f"workload {self.workload!r} is a stored trace; only the "
                f"replay backend accepts .npz workloads "
                f"(got backend={self.backend!r})"
            )

        job = EvalJob(
            system=self.predictor,
            spec=self.predictor,
            workload=source.name,
            program=source.program,
            core_config=CoreConfig(sfb_enabled=self.sfb, telemetry=self.telemetry),
            max_instructions=self.max_instructions,
            max_cycles=self.max_cycles,
            backend=self.backend,
            trace_path=(
                str(source.trace_path) if source.trace_path is not None else None
            ),
        )
        return PreparedJob(spec=self, eval_job=job, cache_key=job_cache_key(job))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "predictor": self.predictor,
            "workload": self.workload,
            "backend": self.backend,
            "scale": self.scale,
            "max_instructions": self.max_instructions,
            "max_cycles": self.max_cycles,
            "sfb": self.sfb,
            "telemetry": self.telemetry,
        }


@dataclass(frozen=True)
class PreparedJob:
    """A spec normalized into the eval layer's terms (memoizable)."""

    spec: JobSpec
    eval_job: EvalJob
    cache_key: str


def _require(payload: Mapping[str, Any], name: str) -> Any:
    if name not in payload or payload[name] is None:
        raise ProtocolError(f"job spec missing required field {name!r}")
    return payload[name]


def _typed(payload: Mapping[str, Any], name: str, kind, default):
    value = payload.get(name, default)
    if value is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ProtocolError(
            f"job spec field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate one decoded JSON object into a :class:`JobSpec`."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"job spec must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _SPEC_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown job spec field(s) {unknown}; have {sorted(_SPEC_FIELDS)}"
        )
    predictor = _require(payload, "predictor")
    workload = _require(payload, "workload")
    if not isinstance(predictor, str) or not isinstance(workload, str):
        raise ProtocolError("'predictor' and 'workload' must be strings")
    spec = JobSpec(
        predictor=predictor,
        workload=workload,
        backend=_typed(payload, "backend", str, "cycle"),
        scale=_typed(payload, "scale", float, 0.5),
        max_instructions=_typed(payload, "max_instructions", int, None),
        max_cycles=_typed(payload, "max_cycles", int, None),
        sfb=_typed(payload, "sfb", bool, False),
        telemetry=_typed(payload, "telemetry", bool, False),
    )
    for name in ("max_instructions", "max_cycles"):
        bound = getattr(spec, name)
        if bound is not None and bound <= 0:
            raise ProtocolError(f"job spec field {name!r} must be positive")
    if spec.scale is None or spec.scale <= 0:
        raise ProtocolError("job spec field 'scale' must be positive")
    return spec


def parse_jobs_body(payload: Any) -> Tuple[JobSpec, ...]:
    """Parse a ``POST /jobs`` body: one spec object or ``{"jobs": [...]}``."""
    if isinstance(payload, Mapping) and "jobs" in payload:
        jobs = payload["jobs"]
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError("'jobs' must be a non-empty JSON array")
        extra = sorted(set(payload) - {"jobs"})
        if extra:
            raise ProtocolError(f"unknown batch field(s) {extra}")
        return tuple(parse_job_spec(item) for item in jobs)
    return (parse_job_spec(payload),)


# ----------------------------------------------------------------------
# Result views
# ----------------------------------------------------------------------
#: RunResult fields echoed in the compact wire view (stats and telemetry
#: payloads stay server-side; fetch the cache entry for the full record).
_RESULT_FIELDS = (
    "system",
    "workload",
    "backend",
    "instructions",
    "cycles",
    "ipc",
    "mpki",
    "total_mpki",
    "branch_accuracy",
    "branches",
    "branch_mispredicts",
    "target_mispredicts",
    "flushes",
)


def result_view(result: RunResult) -> Dict[str, Any]:
    """Compact JSON view of a run result for job-status responses."""
    payload = result_to_payload(result)
    return {name: payload[name] for name in _RESULT_FIELDS}


@dataclass
class JobView:
    """What ``GET /jobs/<id>`` reports (see docs/service.md)."""

    id: str
    state: str
    spec: JobSpec
    cache_hit: bool = False
    coalesced: bool = False
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    submitted_at: float = 0.0
    latency_seconds: Optional[float] = None
    queue_depth: int = 0

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_payload(),
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "queue_depth": self.queue_depth,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        if self.latency_seconds is not None:
            payload["latency_seconds"] = self.latency_seconds
        return payload
