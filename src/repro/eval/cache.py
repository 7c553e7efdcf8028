"""Deterministic on-disk result caching for evaluation runs.

Sweeps re-run the same (predictor, workload, core) triples constantly —
design iteration loops re-evaluate unchanged baselines, CI re-runs the
whole matrix on every push.  Simulated runs are pure functions of their
inputs (power-on-fresh predictor state, fixed workload generator seeds), so
results can be keyed by a content hash of everything that determines the
outcome and replayed from disk.

The fingerprint deliberately hashes *behaviour-bearing state*, not just
names:

- the topology string **plus** per-component storage reports and the
  :class:`~repro.core.composer.ComposerConfig` fields, so two predictors
  that print the same topology but differ in sizing (``tage_sets``,
  history lengths, ...) get different keys;
- a digest of the program's instructions, initial data, and entry point —
  not the workload's name — so regenerating a workload with a different
  seed or scale invalidates the entry;
- every :class:`~repro.frontend.config.CoreConfig` field and the run
  bounds (``max_instructions``/``max_cycles``) — including the
  ``telemetry`` flag, so telemetry-on entries (whose stats carry a summary
  payload) never alias telemetry-off entries;
- the execution backend name and, for ``replay`` jobs, a content hash of
  the npz trace file, so cycle/trace/replay runs of the same design never
  alias each other and editing a stored trace invalidates its entries;
- :data:`CODE_VERSION`, bumped whenever simulator semantics change, so a
  stale cache can never leak results across incompatible versions.

Entries are one JSON file per key, written atomically (temp file +
``os.replace``).  A corrupt or truncated entry is treated as a miss and
recomputed; the cache never raises on read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.composer import ComposedPredictor
from repro.eval.metrics import RunResult
from repro.frontend.config import CoreConfig
from repro.frontend.core import CoreStats
from repro.isa.program import Program

#: Bump when a change to the simulator alters results for identical inputs.
CODE_VERSION = 1

#: Result-neutral fields removed from :class:`CoreConfig`, at the value
#: their runs carried.  They stay in the fingerprint so entries written
#: before the removal keep hitting; drop them at the next CODE_VERSION bump.
_RETIRED_CORE_FIELDS = {"fetch_memoization": True}

#: ``CoreStats`` dicts keyed by int (stage index / branch PC); JSON turns
#: the keys into strings, so loading must convert them back for dataclass
#: equality to hold across a round trip.
_INT_KEYED_STATS = ("stage_redirects", "mispredicts_by_pc", "executions_by_pc")


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def program_digest(program: Program) -> str:
    """Content hash of a workload: instructions, initial data, entry point."""
    h = hashlib.sha256()
    h.update(program.name.encode())
    h.update(str(program.entry).encode())
    for instr in program.instructions:
        h.update(repr(instr).encode())
    for addr in sorted(program.data):
        h.update(f"{addr}:{program.data[addr]};".encode())
    return h.hexdigest()


def predictor_fingerprint(predictor: ComposedPredictor) -> Dict[str, Any]:
    """Everything that determines a predictor's behaviour from power-on."""
    storage = {}
    for name, report in predictor.storage_reports().items():
        storage[name] = {
            "sram_bits": report.sram_bits,
            "flop_bits": report.flop_bits,
            "access_bits": report.access_bits,
            "breakdown": dict(sorted(report.breakdown.items())),
        }
    return {
        "topology": predictor.describe(),
        "depth": predictor.depth,
        "composer_config": dataclasses.asdict(predictor.config),
        "storage": storage,
    }


def trace_file_digest(path: Union[str, Path]) -> str:
    """Content hash of a stored trace file (npz bytes, chunked read)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def job_fingerprint(
    predictor: ComposedPredictor,
    program: Optional[Program],
    core_config: Optional[CoreConfig],
    max_instructions: Optional[int],
    max_cycles: Optional[int] = None,
    backend: str = "cycle",
    trace_digest: Optional[str] = None,
    workload: Optional[str] = None,
) -> Dict[str, Any]:
    """The full cache-key payload for one (predictor, workload, core) run.

    ``program`` may be None for replay jobs driven purely from a stored
    trace; such jobs must supply ``trace_digest`` (and ``workload`` for the
    human-readable name) instead.
    """
    if program is None and trace_digest is None:
        raise ValueError("job_fingerprint needs a program or a trace digest")
    return {
        "code_version": CODE_VERSION,
        "predictor": predictor_fingerprint(predictor),
        "program": program_digest(program) if program is not None else None,
        "workload": workload or (program.name if program is not None else ""),
        "core_config": {
            **dataclasses.asdict(core_config or CoreConfig()),
            **_RETIRED_CORE_FIELDS,
        },
        "max_instructions": max_instructions,
        "max_cycles": max_cycles,
        "backend": backend,
        "trace": trace_digest,
    }


def fingerprint_key(fingerprint: Mapping[str, Any]) -> str:
    """Stable hex key for a fingerprint payload."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _stats_to_payload(stats: CoreStats) -> Dict[str, Any]:
    return dataclasses.asdict(stats)


def _stats_from_payload(payload: Dict[str, Any]) -> CoreStats:
    fields = dict(payload)
    for name in _INT_KEYED_STATS:
        if name in fields and isinstance(fields[name], dict):
            fields[name] = {int(k): v for k, v in fields[name].items()}
    return CoreStats(**fields)


def result_to_payload(result: RunResult) -> Dict[str, Any]:
    payload = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(RunResult)
        if f.name != "stats"
    }
    payload["stats"] = (
        _stats_to_payload(result.stats) if result.stats is not None else None
    )
    return payload


def result_from_payload(payload: Dict[str, Any]) -> RunResult:
    fields = dict(payload)
    stats = fields.pop("stats", None)
    return RunResult(
        stats=_stats_from_payload(stats) if stats is not None else None, **fields
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ResultCache:
    """One-JSON-file-per-key store of :class:`RunResult` records.

    ``get`` is tolerant by construction: any failure to read, parse, or
    reconstruct an entry (missing file, truncated write from a killed
    process, hand-edited JSON, schema drift) counts as a miss and the
    caller recomputes.  ``put`` is atomic, so a concurrent reader never
    observes a half-written entry.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        try:
            payload = json.loads(self.path_for(key).read_text())
            result = result_from_payload(payload["result"])
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "result": result_to_payload(result)}
        text = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


def resolve_cache(
    cache: Union[None, str, Path, ResultCache]
) -> Optional[ResultCache]:
    """Accept a cache instance, a directory path, or None (caching off)."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
