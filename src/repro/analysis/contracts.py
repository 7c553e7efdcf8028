"""Dynamic contract checking of predictor sub-components (CON rules).

Drives every component the library can build through a seeded stimulus and
checks the §III interface invariants that static inspection cannot see:
metadata widths, predict_in pass-through, latency-1 history isolation
(Fig. 2), fire/repair round-trips, storage accounting, and same-seed
determinism.

Rules
-----
======  ========================================================
code    finding (all errors)
======  ========================================================
CON001  metadata does not fit the declared meta_bits
CON002  predict_in slots not predicted are not passed through
CON003  latency-1 component's output depends on a history
CON005  fire followed by on_repair does not round-trip state
CON006  storage() breakdown does not sum to declared totals
CON007  same seed, different behavior (non-determinism)
CON008  branchless packet changes state despite branchless_inert
CON009  columnar kernel lookup diverges from the scalar lookup
======  ========================================================

CON008 guards the trace-driven walker's fast path: packets with no control-flow
instruction are skipped entirely (:mod:`repro.backends.replay`), which is
only exact if lookup + fire + on_update on such a packet leave the
component's state untouched.  Components that do learn on branchless
packets must override ``branchless_inert = False`` (the composed predictor
then disables the skip).

CON009 guards the batch-kernel fast path the same way: a component that
advertises a ``columnar_kernel`` promises the kernel's batched ``lookup``
reproduces the scalar ``lookup`` slot for slot against the same frozen
tables.  The check sweeps a seeded batch of packets (mostly the drive's
pooled contexts, whose rows it trained, with random input vectors)
through both paths on the stimulus-warmed instance and compares every
produced slot.

Determinism, repair and branchless inertness are checked with *state
fingerprints*: a canonical hash over the component's full object graph
(numpy arrays by dtype, shape and bytes; containers recursively; plain
objects by attribute).  Two instances built the same way and fed the same
stimulus fingerprint identically.

The stimulus tells a component when it was wrong.  About three lookups in
four revisit a seeded pool of contexts (a few fetch PCs, each under a few
history tuples), so trained rows are read back.  Each branch lane resolves
against a seeded per-PC bias, independent of the prediction; the first
lane whose outcome differs from the predicted direction mispredicts
(``on_mispredict`` at once, ``mispredicted``/``mispredict_idx`` on its
commit bundle), and commit-time ``on_update`` lands behind up to two
younger lookups, as it does in the pipeline.

Stimulus dimensions are derived from each component's declarative
:class:`repro.spec.ComponentSpec` when it provides one (see
:func:`dims_for`): fetch PCs span every table's index plus tag width, and
history widths cover at least the spec's declared demand.  Components
without a spec fall back to the historical fixed dimensions.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import InterfaceError, PredictorComponent
from repro.core.parser import ComponentLibrary
from repro.core.prediction import (
    EMPTY_SLOT,
    PredictionVector,
    SlotPrediction,
    packet_span,
)

DEFAULT_SEED = 0xC0B7A
DEFAULT_STEPS = 48
_FETCH_WIDTH = 4
_TARGET_BITS = 30
_MAX_PC_BITS = 30


@dataclass(frozen=True)
class StimulusDims:
    """Dimensions of the seeded stimulus the harness drives.

    The defaults are the historical hand-coded constants; :func:`dims_for`
    widens them per component from its declarative spec so deep tables and
    long histories are actually exercised end to end.
    """

    fetch_width: int = _FETCH_WIDTH
    pc_bits: int = 20
    ghist_bits: int = 64
    lhist_bits: int = 32
    phist_bits: int = 32


DEFAULT_DIMS = StimulusDims()


def dims_for(component: PredictorComponent) -> StimulusDims:
    """Derive stimulus dimensions from a component's declarative spec.

    Fetch PCs must be wide enough that every spec table sees distinct
    indices *and* distinct tags (otherwise a narrow stimulus masks
    aliasing bugs), and each history must be at least as wide as the
    spec's declared demand.  Packets are as wide as the component's own
    ``fetch_width`` where it has one.  Components without a spec get the
    defaults.
    """
    spec = component.spec
    if spec is None:
        return DEFAULT_DIMS
    fetch_width = DEFAULT_DIMS.fetch_width
    pc_bits = DEFAULT_DIMS.pc_bits
    for table in spec.tables:
        if table.index is None:
            continue
        fetch_width = max(fetch_width, table.index.fetch_width)
        tag_bits = sum(
            f.bits for f in table.fields if f.name == "tag"
        )
        pc_bits = max(pc_bits, table.index.index_bits + tag_bits)
    return StimulusDims(
        # A component sized to its own fetch width gets packets of that
        # width; wider packets would run past its per-lane rows.
        fetch_width=getattr(component, "fetch_width", fetch_width),
        pc_bits=min(pc_bits, _MAX_PC_BITS),
        ghist_bits=max(DEFAULT_DIMS.ghist_bits, spec.ghist_bits),
        lhist_bits=max(DEFAULT_DIMS.lhist_bits, spec.lhist_bits),
        phist_bits=max(DEFAULT_DIMS.phist_bits, spec.phist_bits),
    )


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------
def _feed(digest, obj, seen) -> None:
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        digest.update(repr(obj).encode())
        return
    if isinstance(obj, np.ndarray):
        digest.update(b"ndarray")
        digest.update(str(obj.dtype).encode())
        digest.update(str(obj.shape).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
        return
    if isinstance(obj, np.generic):
        digest.update(repr(obj.item()).encode())
        return
    marker = id(obj)
    if marker in seen:
        digest.update(b"cycle")
        return
    seen.add(marker)
    try:
        if isinstance(obj, (list, tuple, deque)):
            digest.update(f"seq{len(obj)}".encode())
            for item in obj:
                _feed(digest, item, seen)
        elif isinstance(obj, dict):
            digest.update(f"map{len(obj)}".encode())
            for key in sorted(obj, key=repr):
                digest.update(repr(key).encode())
                _feed(digest, obj[key], seen)
        elif isinstance(obj, (set, frozenset)):
            digest.update(f"set{len(obj)}".encode())
            for item in sorted(obj, key=repr):
                digest.update(repr(item).encode())
        elif callable(obj) and not hasattr(obj, "__dict__"):
            digest.update(getattr(obj, "__qualname__", repr(type(obj))).encode())
        else:
            digest.update(type(obj).__name__.encode())
            attrs = {}
            if hasattr(obj, "__dict__"):
                attrs.update(vars(obj))
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    attrs[slot] = getattr(obj, slot)
            for key in sorted(attrs):
                if callable(attrs[key]) and not isinstance(
                    attrs[key], PredictorComponent
                ):
                    continue
                digest.update(key.encode())
                _feed(digest, attrs[key], seen)
    finally:
        seen.discard(marker)


def state_fingerprint(obj) -> str:
    """Canonical hash of an object graph's architectural state."""
    digest = hashlib.sha256()
    _feed(digest, obj, set())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Stimulus
# ----------------------------------------------------------------------
#: Lookups revisit a seeded pool of contexts so trained rows are read
#: back: ``_POOL_PCS`` fetch PCs, each under ``_POOL_HISTORIES``
#: (ghist, lhist, phist) tuples.  ``_POOL_SHARE`` of the lookups come
#: from the pool; the rest are fresh random contexts.
_POOL_PCS = 8
_POOL_HISTORIES = 4
_POOL_SHARE = 0.75
#: A commit-time ``on_update`` lands behind up to this many younger
#: lookups, as it does behind the in-flight packets of the pipeline.
_COMMIT_LAG = 2
#: Share of correctly predicted packets that are squashed (``on_repair``)
#: instead of committed, for components that speculate in ``fire``.
_SQUASH_SHARE = 0.15

#: One pooled context: a fetch PC and the history tuples it is seen under.
_Context = Tuple[int, Tuple[Tuple[int, int, int], ...]]


def _histories(rng: random.Random, dims: StimulusDims) -> Tuple[int, int, int]:
    return (
        rng.getrandbits(dims.ghist_bits),
        rng.getrandbits(dims.lhist_bits),
        rng.getrandbits(dims.phist_bits),
    )


def _pool(seed: int, dims: StimulusDims) -> List[_Context]:
    """The seeded context pool of a drive (the same for every rule)."""
    rng = random.Random(f"contract-pool:{seed}")
    return [
        (
            rng.getrandbits(dims.pc_bits),
            tuple(_histories(rng, dims) for _ in range(_POOL_HISTORIES)),
        )
        for _ in range(_POOL_PCS)
    ]


def _random_vector(
    rng: random.Random, fetch_pc: int, width: int
) -> PredictionVector:
    slots = []
    for _ in range(width):
        roll = rng.random()
        if roll < 0.45:
            slots.append(
                SlotPrediction(
                    hit=True,
                    is_branch=True,
                    taken=rng.random() < 0.5,
                    target=rng.getrandbits(_TARGET_BITS)
                    if rng.random() < 0.5
                    else None,
                )
            )
        elif roll < 0.6:
            slots.append(
                SlotPrediction(
                    hit=True,
                    is_jump=True,
                    taken=True,
                    target=rng.getrandbits(_TARGET_BITS),
                )
            )
        else:
            slots.append(EMPTY_SLOT)
    return PredictionVector(fetch_pc, tuple(slots))


def _stimulus(
    rng: random.Random,
    n_inputs: int,
    dims: StimulusDims = DEFAULT_DIMS,
    pool: Sequence[_Context] = (),
) -> Tuple[PredictRequest, List[PredictionVector]]:
    if pool and rng.random() < _POOL_SHARE:
        fetch_pc, contexts = rng.choice(pool)
        ghist, lhist, phist = rng.choice(contexts)
    else:
        fetch_pc = rng.getrandbits(dims.pc_bits)
        ghist, lhist, phist = _histories(rng, dims)
    width = packet_span(fetch_pc, dims.fetch_width)
    req = PredictRequest(fetch_pc, width, ghist=ghist, lhist=lhist, phist=phist)
    inputs = [_random_vector(rng, fetch_pc, width) for _ in range(n_inputs)]
    return req, inputs


class _Outcomes:
    """Seeded per-PC behaviour: each branch PC's taken bias and target.

    A branch PC draws its bias and target the first time it is seen, so
    the pooled PCs resolve the same way again and again, independent of
    what the component predicted.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._branches = {}

    def resolve(self, branch_pc: int) -> Tuple[bool, int]:
        rng = self._rng
        branch = self._branches.get(branch_pc)
        if branch is None:
            branch = (rng.random(), rng.getrandbits(_TARGET_BITS))
            self._branches[branch_pc] = branch
        bias, target = branch
        return rng.random() < bias, target


def _bundle(
    req: PredictRequest,
    meta: int,
    br_mask: Sequence[bool],
    taken_mask: Sequence[bool],
    cfi_idx: Optional[int],
    cfi_target: Optional[int],
    mispredict_idx: Optional[int] = None,
) -> UpdateBundle:
    return UpdateBundle(
        fetch_pc=req.fetch_pc,
        width=req.width,
        ghist=req.ghist,
        lhist=req.lhist,
        phist=req.phist,
        meta=meta,
        br_mask=tuple(br_mask),
        taken_mask=tuple(taken_mask),
        cfi_idx=cfi_idx,
        cfi_taken=cfi_idx is not None,
        cfi_target=cfi_target,
        cfi_is_br=cfi_idx is not None,
        mispredicted=mispredict_idx is not None,
        mispredict_idx=mispredict_idx,
    )


def _resolve(
    outcomes: _Outcomes,
    req: PredictRequest,
    out: PredictionVector,
    inputs: Sequence[PredictionVector],
    meta: int,
) -> Tuple[UpdateBundle, UpdateBundle]:
    """The packet's speculative bundle and its resolved bundle.

    Mirrors the composer: the speculative packet (``fire``/``repair``)
    carries the predicted directions and ends at the first branch
    predicted taken.  Resolution gives every branch lane of that packet
    its actual outcome; the first lane whose outcome differs from the
    prediction mispredicts, and the resolved packet ends there
    (``mispredict``/``update``).
    """
    width = req.width
    br_mask = [False] * width
    predicted = [False] * width
    cfi_idx = cfi_target = None
    for i in range(width):
        if any(v.slots[i].is_branch for v in inputs):
            br_mask[i] = True
            predicted[i] = bool(out.slots[i].taken)
            if predicted[i]:
                cfi_idx = i
                cfi_target = out.slots[i].target
                break
    speculative = _bundle(req, meta, br_mask, predicted, cfi_idx, cfi_target)

    actual = list(predicted)
    for i in range(width):
        if not br_mask[i]:
            continue
        taken, target = outcomes.resolve(req.fetch_pc + i)
        if taken == predicted[i]:
            if taken:
                cfi_target = target
            continue
        actual[i] = taken
        for j in range(i + 1, width):
            br_mask[j] = actual[j] = False
        cfi_idx, cfi_target = (i, target) if taken else (None, None)
        return speculative, _bundle(
            req, meta, br_mask, actual, cfi_idx, cfi_target, mispredict_idx=i
        )
    return speculative, _bundle(req, meta, br_mask, actual, cfi_idx, cfi_target)


def _branchless_bundle(req: PredictRequest, meta: int) -> UpdateBundle:
    """The commit bundle of a packet containing no control flow at all.

    This is exactly the update the composed pipeline issues for a packet
    the replay fast path would skip (all-False ``br_mask``, no CFI), so
    CON008 exercises the skip's soundness condition directly.
    """
    return UpdateBundle(
        fetch_pc=req.fetch_pc,
        width=req.width,
        ghist=req.ghist,
        lhist=req.lhist,
        phist=req.phist,
        meta=meta,
        br_mask=(False,) * req.width,
        taken_mask=(False,) * req.width,
        cfi_idx=None,
        cfi_taken=False,
        cfi_target=None,
        cfi_is_br=False,
        mispredicted=False,
        mispredict_idx=None,
    )


# ----------------------------------------------------------------------
# Per-component checks
# ----------------------------------------------------------------------
class _Reporter:
    def __init__(self, subject: str):
        self.subject = subject
        self.diags: List[Diagnostic] = []
        self._seen_codes = set()

    def report(self, code: str, message: str) -> None:
        # One diagnostic per (component, rule): the first failing step is
        # enough to act on, and repeats would drown the report.
        if code in self._seen_codes:
            return
        self._seen_codes.add(code)
        self.diags.append(diagnostic(code, message, self.subject))


def _check_lookup_contract(
    component: PredictorComponent,
    req: PredictRequest,
    inputs: List[PredictionVector],
    out: PredictionVector,
    meta: int,
    report: _Reporter,
    step: int,
) -> None:
    """CON001 (meta width) and CON002 (pass-through, selector directions)."""
    try:
        component.check_meta(meta)
    except InterfaceError as exc:
        report.report("CON001", f"step {step}: {exc}")

    if component.n_inputs == 1 and not component.provides_targets:
        # Direction predictors must not disturb incoming jump predictions:
        # the slot's kind, direction, and target pass through (§III-F).
        for i, in_slot in enumerate(inputs[0].slots):
            out_slot = out.slots[i]
            if in_slot.is_jump and (
                not out_slot.is_jump
                or out_slot.target != in_slot.target
                or out_slot.taken != in_slot.taken
            ):
                report.report(
                    "CON002",
                    f"step {step}: jump slot {i} came in as "
                    f"{tuple(in_slot)} and left as {tuple(out_slot)}; "
                    f"unpredicted fields must pass through verbatim",
                )
                break
    if component.n_inputs > 1:
        # A selector's directions must come from its inputs: it chooses
        # among predictions, it does not invent them (§III-F).
        for i, out_slot in enumerate(out.slots):
            if not out_slot.hit or out_slot.is_jump:
                continue
            candidates = {v.slots[i].taken for v in inputs if v.slots[i].hit}
            candidates.add(inputs[0].slots[i].taken)  # pass-through default
            if out_slot.taken not in candidates:
                report.report(
                    "CON002",
                    f"step {step}: selector produced direction "
                    f"{out_slot.taken} on slot {i}, matching none of its "
                    f"predict_in vectors",
                )
                break


def _drive(
    component: PredictorComponent,
    seed: int,
    steps: int,
    report: Optional[_Reporter] = None,
    check_fire_repair: bool = False,
    dims: Optional[StimulusDims] = None,
) -> List[tuple]:
    """Run the stimulus; optionally check contracts; return an output log.

    Each lookup's packet resolves against seeded per-PC outcomes
    (:class:`_Outcomes`): a mispredicted packet gets ``on_mispredict`` at
    once, some correctly predicted ones are squashed (``on_repair``), and
    the rest commit (``on_update``) behind up to :data:`_COMMIT_LAG`
    younger lookups.  Updates still pending at the end are committed.
    """
    if dims is None:
        dims = dims_for(component)
    rng = random.Random(seed)
    pool = _pool(seed, dims)
    outcomes = _Outcomes(rng)
    pending: deque = deque()
    log: List[tuple] = []
    overrides_fire = type(component).fire is not PredictorComponent.fire
    for step in range(steps):
        req, inputs = _stimulus(rng, component.n_inputs, dims, pool)
        out, meta = component.lookup(req, inputs)
        if report is not None:
            _check_lookup_contract(component, req, inputs, out, meta, report, step)
        log.append((req.fetch_pc, meta, out.slots))

        speculative, resolved = _resolve(outcomes, req, out, inputs, meta)
        if overrides_fire:
            if check_fire_repair and report is not None:
                before = state_fingerprint(component)
                component.fire(speculative)
                component.on_repair(speculative)
                if state_fingerprint(component) != before:
                    report.report(
                        "CON005",
                        f"step {step}: state after fire + on_repair differs "
                        f"from the state before fire; repair must undo the "
                        f"speculative update exactly",
                    )
            component.fire(speculative)
        if resolved.mispredicted:
            component.on_mispredict(resolved)
            pending.append(resolved)
        elif overrides_fire and rng.random() < _SQUASH_SHARE:
            component.on_repair(speculative)
        else:
            pending.append(resolved)
        lag = rng.randint(0, _COMMIT_LAG)
        while len(pending) > lag:
            component.on_update(pending.popleft())
    while pending:
        component.on_update(pending.popleft())
    return log


def check_component(
    factory: Callable[[str, int], PredictorComponent],
    base: str,
    latency: int = 2,
    seed: int = DEFAULT_SEED,
    steps: int = DEFAULT_STEPS,
) -> List[Diagnostic]:
    """Run the full CON rule set against one component factory.

    A factory that raises, or a component hook (``lookup``, ``fire``,
    ``on_mispredict``, ``on_repair``, ``on_update``) that raises while the
    rules drive it, ends the check with a CON007 error naming the failure
    and the exception, so ``check_library`` and ``repro check
    --components`` report it instead of aborting with a traceback.
    """
    subject = f"{base}{latency}"
    try:
        component = factory(f"{base.lower()}_a", latency)
        twin = factory(f"{base.lower()}_a", latency)
    except Exception as exc:
        return [
            diagnostic(
                "CON007",
                f"factory raised while instantiating at latency {latency}: "
                f"{exc}",
                subject,
            )
        ]
    report = _Reporter(subject)
    try:
        _apply_rules(
            lambda name, lat: _guard(factory(name, lat)),
            base,
            latency,
            seed,
            steps,
            _guard(component),
            _guard(twin),
            report,
        )
    except _HookRaised as raised:
        error = raised.__cause__
        report.diags.append(
            diagnostic(
                "CON007",
                f"{raised.hook} raised while the rules drove the component: "
                f"{type(error).__name__}: {error}",
                subject,
            )
        )
    return report.diags


#: The interface hooks the rules call; :func:`_guard` names whichever raises.
_HOOKS = ("lookup", "fire", "on_mispredict", "on_repair", "on_update")


class _HookRaised(Exception):
    """A component hook raised; the original error is ``__cause__``."""

    def __init__(self, hook: str):
        super().__init__(hook)
        self.hook = hook


def _guard(component: PredictorComponent) -> PredictorComponent:
    """Shadow ``component``'s hooks with ones that name themselves on error.

    The shadows are instance attributes: the class (which decides which
    hooks a component overrides) and the state fingerprint (which skips
    callables) do not see them.
    """
    for hook in _HOOKS:
        method = getattr(component, hook)

        def guarded(*args, _method=method, _hook=hook):
            try:
                return _method(*args)
            except _HookRaised:
                raise
            except Exception as error:
                raise _HookRaised(_hook) from error

        setattr(component, hook, guarded)
    return component


def _apply_rules(
    factory: Callable[[str, int], PredictorComponent],
    base: str,
    latency: int,
    seed: int,
    steps: int,
    component: PredictorComponent,
    twin: PredictorComponent,
    report: _Reporter,
) -> None:
    """Every CON rule over two built instances; diagnostics go to ``report``."""
    # CON006: storage accounting (static — check before driving).
    storage = component.storage()
    declared = storage.sram_bits + storage.flop_bits
    if storage.breakdown and sum(storage.breakdown.values()) != declared:
        report.report(
            "CON006",
            f"storage breakdown sums to {sum(storage.breakdown.values())} "
            f"bits but sram_bits + flop_bits = {declared}",
        )
    if storage.sram_bits < 0 or storage.flop_bits < 0 or storage.access_bits < 0:
        report.report("CON006", "storage report contains negative bit counts")

    # CON001/CON002/CON005 + stimulus drive.  Stimulus dimensions come
    # from the component's declarative spec (index + tag reach, history
    # demand) rather than hand-coded constants.
    dims = dims_for(component)
    log_a = _drive(component, seed, steps, report, check_fire_repair=True, dims=dims)

    # CON007: same seed, same behavior.  The twin replays the identical
    # stimulus; outputs, metadata, and the final fingerprint must match.
    log_b = _drive(twin, seed, steps, report=None, check_fire_repair=False, dims=dims)
    replay = factory(f"{base.lower()}_a", latency)
    log_c = _drive(replay, seed, steps, report=None, check_fire_repair=False, dims=dims)
    if log_b != log_c or state_fingerprint(twin) != state_fingerprint(replay):
        report.report(
            "CON007",
            "two instances fed the identical seeded stimulus diverged; "
            "component behavior must be a pure function of its inputs",
        )
    del log_a

    # CON008: if the component claims branchless_inert, a branchless
    # packet's full lookup + fire + on_update cycle must leave its state
    # bit-identical — the trace-driven walker skips such packets.  The
    # check runs on the stimulus-warmed ``replay`` instance so populated
    # tables are covered, not just power-on zeros.  Its packets are fresh
    # contexts, not pooled ones: a pooled PC held branches in the drive,
    # and a committed stream never finds that code branchless later.
    if component.branchless_inert:
        rng = random.Random(seed ^ 0xB8)
        overrides_fire = type(replay).fire is not PredictorComponent.fire
        for step in range(8):
            before = state_fingerprint(replay)
            req, inputs = _stimulus(rng, replay.n_inputs, dims)
            _out, meta = replay.lookup(req, inputs)
            bundle = _branchless_bundle(req, meta)
            if overrides_fire:
                replay.fire(bundle)
            replay.on_update(bundle)
            if state_fingerprint(replay) != before:
                report.report(
                    "CON008",
                    f"step {step}: a branchless packet (all-False br_mask, "
                    f"no CFI) changed component state, but the component "
                    f"claims branchless_inert; the replay fast path would "
                    f"skip this packet — override branchless_inert = False",
                )
                break

    # CON009: a component advertising a columnar kernel promises the
    # kernel's batched lookup matches the scalar lookup slot for slot
    # against the same frozen tables.  The sweep runs on the
    # stimulus-warmed ``replay`` instance (same rationale as CON008: cover
    # populated tables, not just power-on zeros); the kernel batch runs
    # first so both paths read the identical table snapshot.
    kernel = replay.columnar_kernel()
    if kernel is not None and replay.n_inputs == 1:
        from repro.kernels.engine import (
            state_from_vectors,
            state_matches_vector,
            stimulus_context,
        )

        rng = random.Random(seed ^ 0xC9)
        pool = _pool(seed, dims)  # the contexts the drive trained
        reqs = []
        vectors = []
        for _ in range(16):
            req, inputs = _stimulus(rng, 1, dims, pool)
            reqs.append(req)
            vectors.append(inputs[0])
        ctx = stimulus_context(
            [r.fetch_pc for r in reqs], [r.ghist for r in reqs], dims.fetch_width
        )
        batch = state_from_vectors(vectors, ctx)
        try:
            batch = kernel.lookup(ctx, batch)
        except Exception as exc:
            report.report(
                "CON009",
                f"columnar kernel lookup raised on the stimulus sweep: "
                f"{type(exc).__name__}: {exc}",
            )
            batch = None
        if batch is not None:
            for p, (req, vector) in enumerate(zip(reqs, vectors)):
                out, _meta = replay.lookup(req, [vector])
                ok, why = state_matches_vector(
                    batch, p, int(ctx.offset[p]), out
                )
                if not ok:
                    report.report(
                        "CON009",
                        f"packet {p} (fetch_pc {req.fetch_pc:#x}): columnar "
                        f"kernel lookup diverged from the scalar lookup — "
                        f"{why}; the batch-kernel replay path would predict "
                        f"differently than the scalar walker",
                    )
                    break

    # CON003: if the component can be built at latency 1, its output must
    # not depend on any history field — histories only arrive at the end of
    # cycle 1 (Fig. 2), so a latency-1 response physically cannot see them.
    try:
        fast = factory(f"{base.lower()}_a", 1)
    except Exception:
        fast = None  # construction rejects latency 1: contract upheld
    if fast is not None:
        fast_dims = dims_for(fast)
        hist_bits = {
            "ghist": fast_dims.ghist_bits,
            "lhist": fast_dims.lhist_bits,
            "phist": fast_dims.phist_bits,
        }
        rng = random.Random(seed)
        violated = False
        for step in range(steps // 2):
            if violated:
                break
            req, inputs = _stimulus(rng, fast.n_inputs, fast_dims)
            out_a, meta_a = fast.lookup(req, inputs)
            # Perturb each history independently, single-bit and full-width
            # flips both, so neither parity tricks nor wide hashes escape.
            for field in ("ghist", "lhist", "phist"):
                for flip in (1, (1 << hist_bits[field]) - 1):
                    shifted = PredictRequest(
                        req.fetch_pc,
                        req.width,
                        ghist=req.ghist ^ (flip if field == "ghist" else 0),
                        lhist=req.lhist ^ (flip if field == "lhist" else 0),
                        phist=req.phist ^ (flip if field == "phist" else 0),
                    )
                    out_b, meta_b = fast.lookup(shifted, inputs)
                    if meta_a != meta_b or out_a.slots != out_b.slots:
                        report.report(
                            "CON003",
                            f"step {step}: at latency 1 the output changed "
                            f"when only {field} changed; histories are not "
                            f"available to latency-1 components (Fig. 2)",
                        )
                        violated = True
                        break
                if violated:
                    break


def check_library(
    library: Optional[ComponentLibrary] = None,
    seed: int = DEFAULT_SEED,
    steps: int = DEFAULT_STEPS,
) -> List[Diagnostic]:
    """Run the contract harness over every base name in the library."""
    if library is None:
        from repro.components.library import standard_library

        library = standard_library()
    diags: List[Diagnostic] = []
    for base in library.known():
        diags.extend(
            check_component(library.factory(base), base, seed=seed, steps=steps)
        )
    return diags
