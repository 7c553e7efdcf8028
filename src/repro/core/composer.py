"""The COBRA predictor composer (§IV).

Given a topological representation of a predictor design, the composer
builds a complete predictor pipeline from sub-components and synthesizes the
predictor management structures: history providers, the history file, and
the predict/update/repair state machine.  The result,
:class:`ComposedPredictor`, is a drop-in prediction pipeline for a host
core's fetch unit (§IV-C) — the frontend model in :mod:`repro.frontend`
plays the role BOOM plays in the paper.

Protocol with the host frontend
-------------------------------
- ``predict(fetch_pc, slots, ras_top)`` — query at Fetch-0.  Returns staged
  per-cycle final predictions plus the pre-decode-corrected final packet.
  Allocates a history-file entry, fires speculative updates, and advances
  the speculative histories.
- ``squash_after(ftq_id)`` — internal pipeline redirect or flush: younger
  entries are squashed and repaired.
- ``resolve_mispredict(ftq_id, slot, taken, target)`` — backend-detected
  misprediction: squash + repair younger state, restore histories from the
  entry snapshot, issue the fast ``mispredict`` event.
- ``commit_packet(ftq_id)`` — the packet's last instruction committed:
  dequeue the entry and issue commit-time ``update`` events.

Pre-decode and history timing
-----------------------------
The speculative global history must advance at query time (the next packet
is queried one cycle later), using the packet's *final* predicted
directions at its *true* branch locations.  Hardware achieves this with
per-stage history registers fixed up by pre-decode at Fetch-3; we model the
steady-state result directly: the frontend supplies pre-decoded slot kinds
(it owns instruction memory, as BOOM's fetch unit owns its I-cache data)
and the composer applies them to the final-stage prediction.  Components
never observe pre-decode information at lookup time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._util import shift_in
from repro.core.events import PredictRequest, dispatch_event
from repro.core.history import (
    GlobalHistoryProvider,
    LocalHistoryProvider,
    PathHistoryProvider,
)
from repro.core.history_file import HistoryFile
from repro.core.interface import InterfaceError, PredictorComponent, StorageReport
from repro.core.parser import ComponentLibrary, parse_topology
from repro.core.prediction import (
    PREDECODE_BRANCH,
    PREDECODE_JAL,
    PREDECODE_NONE,
    PREDECODE_RET,
    PredictionVector,
    PreDecodedSlot,
    SlotPrediction,
)
from repro.core.repair import RepairStateMachine, bundle_fields
from repro.core.topology import EvaluationPlan, TopologyNode, validate_topology

_new_tuple = tuple.__new__

#: The final prediction of every slot pre-decode finds no CFI in.  Shared:
#: final vectors are read-only, like every vector the composer hands out.
_NO_PREDICTION = SlotPrediction()


@dataclass
class ComposerConfig:
    """Parameters of the generated management structures (§IV-B)."""

    fetch_width: int = 4
    global_history_bits: int = 64
    local_history_entries: int = 256
    local_history_bits: int = 32
    ftq_entries: int = 32
    #: Path-history register length (§IV-B3); built only when a component
    #: declares ``uses_path_history``.
    path_history_bits: int = 32
    repair_walk_width: int = 2
    #: "replay" refetches after a mispredict once the repaired history is
    #: available (extra bubbles, accurate history); "no_replay" lets the
    #: first post-redirect queries predict with the corrupted history
    #: (§VI-B).
    ghist_repair_mode: str = "replay"
    #: Replay mode: extra fetch bubbles per mispredict while the snapshot
    #: restore reaches the predictor.
    ghist_repair_bubbles: int = 2
    #: No-replay mode: number of post-redirect queries that still see the
    #: corrupted history (the corruption persists until the repair
    #: percolates through the prediction pipeline).
    ghist_corruption_window: int = 8
    #: Serialize the instruction stream behind branches: the fetch packet
    #: is cut at the first control-flow instruction regardless of its
    #: predicted direction (§I measures the cost of this on a 4-wide core).
    serialize_cfi: bool = False

    def __post_init__(self):
        if self.ghist_repair_mode not in ("replay", "no_replay"):
            raise ValueError(
                f"unknown ghist repair mode {self.ghist_repair_mode!r}"
            )
        if self.ghist_repair_bubbles < 0:
            raise ValueError(
                f"ghist_repair_bubbles must be >= 0, got "
                f"{self.ghist_repair_bubbles} (a mispredict cannot repay "
                f"fetch cycles)"
            )
        if self.ghist_corruption_window < 0:
            raise ValueError(
                f"ghist_corruption_window must be >= 0, got "
                f"{self.ghist_corruption_window}"
            )


@dataclass(slots=True)
class PredictResult:
    """Everything the fetch unit learns from one predictor query."""

    ftq_id: int
    fetch_pc: int
    width: int
    fetched_len: int
    staged: List[PredictionVector]
    final: PredictionVector
    cut: Optional[int]
    next_fetch_pc: int


@dataclass
class MispredictResponse:
    """Latency feedback from a mispredict resolution."""

    walk_cycles: int
    extra_redirect_bubbles: int


@dataclass
class ComposerStats:
    predictions: int = 0
    committed_packets: int = 0
    committed_branches: int = 0
    committed_jumps: int = 0
    direction_mispredicts: int = 0
    target_mispredicts: int = 0
    stale_history_queries: int = 0

    @property
    def mispredicts(self) -> int:
        return self.direction_mispredicts + self.target_mispredicts


class ComposedPredictor:
    """A complete predictor pipeline with generated management structures."""

    def __init__(self, topology: TopologyNode, config: Optional[ComposerConfig] = None):
        self.config = config or ComposerConfig()
        self.topology = topology
        self.components: Tuple[PredictorComponent, ...] = validate_topology(topology)
        self.depth = max(c.latency for c in self.components)
        self._uses_local = any(c.uses_local_history for c in self.components)
        self._uses_path = any(
            getattr(c, "uses_path_history", False) for c in self.components
        )
        self._global = GlobalHistoryProvider(self.config.global_history_bits)
        self._path = (
            PathHistoryProvider(self.config.path_history_bits)
            if self._uses_path
            else None
        )
        self._local = (
            LocalHistoryProvider(
                self.config.local_history_entries,
                self.config.local_history_bits,
                self.config.fetch_width,
            )
            if self._uses_local
            else None
        )
        self.history_file = HistoryFile(self.config.ftq_entries)
        self._repair = RepairStateMachine(
            self.components,
            self._local if self._local is not None else LocalHistoryProvider(1, 1),
            self.config.repair_walk_width,
        )
        self.stats = ComposerStats()
        # What the composition fixes is resolved here, once: the topology's
        # evaluation steps, the packet geometry, and the event-dispatch
        # lists.  Many components leave an event hook as the base-class
        # no-op; building a bundle per component per packet just to call it
        # dominates the event loops, so events go only to components that
        # override the hook.
        self._plan = EvaluationPlan(topology, self.depth)
        self._fetch_width = self.config.fetch_width
        self._serialize_cfi = self.config.serialize_cfi
        self._fire_components = _overriding(self.components, "fire")
        self._mispredict_components = _overriding(self.components, "on_mispredict")
        self._update_components = _overriding(self.components, "on_update")
        # No-replay staleness window state (§VI-B).
        self._stale_queries_remaining = 0
        self._stale_ghist = 0
        #: Optional telemetry observer (see :mod:`repro.telemetry`); None
        #: keeps every hook a single attribute test on the hot path.
        self._telemetry = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The attached telemetry collector, or None."""
        return self._telemetry

    def attach_telemetry(self, collector) -> None:
        """Subscribe ``collector`` to this pipeline's prediction events.

        The collector observes predict/fire/mispredict/repair/update
        dispatches and the attribution of final-prediction slots to
        sub-components; it never influences predictions, so attaching
        telemetry cannot change simulation results.
        """
        self._telemetry = collector
        collector.bind(self)

    def detach_telemetry(self) -> None:
        self._telemetry = None

    # ------------------------------------------------------------------
    @property
    def can_predict(self) -> bool:
        """False when the history file is full (fetch must stall)."""
        return not self.history_file.full

    @property
    def stale_window_active(self) -> bool:
        """True while post-mispredict queries still see the stale history.

        Only ever True in ``ghist_repair_mode="no_replay"`` (§VI-B): the
        corruption window decrements on every ``predict()`` call, so
        execution backends that elide queries (the replay fast path) must
        check this before skipping a packet.
        """
        return self._stale_queries_remaining > 0

    @property
    def branchless_inert(self) -> bool:
        """True when every component is inert on branchless packets.

        The trace-driven walker may then skip packets without
        control-flow instructions entirely (see
        :mod:`repro.backends.replay`): the composed pipeline's state after
        predicting, firing, and committing such a packet is identical to its
        state before (histories shift in zero outcomes, components see an
        all-False ``br_mask``).
        """
        return all(c.branchless_inert for c in self.components)

    def describe(self) -> str:
        return self.topology.describe()

    # ------------------------------------------------------------------
    # Predict
    # ------------------------------------------------------------------
    def predict(
        self,
        fetch_pc: int,
        slots: Sequence[PreDecodedSlot],
        ras_top: Optional[int] = None,
    ) -> PredictResult:
        width = len(slots)
        fetch_width = self._fetch_width
        aligned_next = fetch_pc - fetch_pc % fetch_width + fetch_width
        if width != aligned_next - fetch_pc:
            raise InterfaceError(
                f"packet at pc {fetch_pc} must span {aligned_next - fetch_pc} "
                f"slots, got {width}"
            )
        history_file = self.history_file
        if history_file.full:
            raise InterfaceError("predict() called while the history file is full")

        chain_ghist = self._global.read()
        used_stale = self._stale_queries_remaining > 0
        if used_stale:
            req_ghist = self._stale_ghist
            self._stale_queries_remaining -= 1
            self.stats.stale_history_queries += 1
        else:
            req_ghist = chain_ghist
        if self._local is not None:
            lhist_index, lhist = self._local.read(fetch_pc)
        else:
            lhist_index = lhist = 0
        phist = self._path.read() if self._path is not None else 0

        # tuple.__new__ skips the named tuple's Python-level constructor.
        req = _new_tuple(PredictRequest, (fetch_pc, width, req_ghist, lhist, phist))
        metas: Dict[str, int] = {}
        telemetry = self._telemetry
        attribution = {} if telemetry is not None else None
        values = self._plan.run(req, metas, attribution)
        staged = [values[i] for i in self._plan.filled_stages]
        predicted = staged[-1]

        # Pre-decode (see the module docstring) builds the final vector
        # without copying the predicted one: a fresh slot per decoded CFI,
        # the shared empty slot elsewhere.  The packet ends at the first
        # slot that redirects fetch (or, serialized, at the first CFI);
        # branch lanes up to and including it enter the history and masks.
        final_slots = []
        br_mask = []
        taken_mask = []
        outcomes = []
        cut = cfi_idx = None
        serialize = self._serialize_cfi
        for info, raw in zip(slots, predicted.slots):
            kind = info.predecode_kind
            if kind == PREDECODE_NONE:
                # Bogus predictions on non-CFI slots are dropped.
                slot = _NO_PREDICTION
                redirects = False
            elif kind == PREDECODE_BRANCH:
                # Direct targets come from the instruction bits.
                redirects = raw.taken
                slot = SlotPrediction(
                    hit=raw.hit,
                    is_branch=True,
                    taken=redirects,
                    target=info.direct_target if redirects else None,
                )
            else:
                # Unconditional jumps are taken; returns take the RAS
                # target, other indirect targets come from the BTB.
                redirects = True
                if kind == PREDECODE_JAL:
                    target = info.direct_target
                elif kind == PREDECODE_RET and ras_top is not None:
                    target = ras_top
                else:
                    target = raw.target
                slot = SlotPrediction(
                    hit=raw.hit, is_jump=True, taken=True, target=target
                )
            final_slots.append(slot)
            if cut is None:
                if info.counts_branch:
                    br_mask.append(True)
                    taken_mask.append(slot.taken)
                    outcomes.append(slot.taken)
                else:
                    br_mask.append(False)
                    taken_mask.append(False)
                if redirects:
                    cut = cfi_idx = len(final_slots) - 1
                elif serialize and info.is_cfi:
                    cut = len(final_slots) - 1
        final = PredictionVector(fetch_pc, final_slots)
        if cut is None:
            fetched_len = width
            next_pc = aligned_next
        else:
            fetched_len = cut + 1
            padding = [False] * (width - fetched_len)
            br_mask += padding
            taken_mask += padding
            if cfi_idx is None:
                next_pc = fetch_pc + fetched_len  # serialized not-taken CFI
            else:
                # A taken slot without a target cannot redirect fetch.
                target = final_slots[cut].target
                next_pc = aligned_next if target is None else target

        slot_providers = None
        if telemetry is not None:
            final_providers = attribution.get(id(predicted))
            slot_providers = (
                tuple(final_providers)
                if final_providers is not None
                else (None,) * width
            )
        # A packet ending in a redirect records that slot as its taken CFI.
        if cfi_idx is None:
            cfi_target = None
            cfi_is_br = cfi_is_jal = cfi_is_jalr = False
        else:
            cfi_target = final_slots[cfi_idx].target
            cfi_info = slots[cfi_idx]
            cfi_is_br = bool(cfi_info.is_cond_branch)
            cfi_is_jal = bool(cfi_info.is_jal)
            cfi_is_jalr = bool(cfi_info.is_jalr)
        entry = history_file.allocate(
            fetch_pc=fetch_pc,
            width=width,
            req_ghist=req_ghist,
            chain_ghist=chain_ghist,
            lhist_index=lhist_index,
            lhist_snapshot=lhist,
            metas=metas,
            br_mask=tuple(br_mask),
            taken_mask=tuple(taken_mask),
            cfi_idx=cfi_idx,
            cfi_taken=cfi_idx is not None,
            cfi_target=cfi_target,
            phist_snapshot=phist,
            cfi_is_br=cfi_is_br,
            cfi_is_jal=cfi_is_jal,
            cfi_is_jalr=cfi_is_jalr,
            slot_providers=slot_providers,
        )

        if self._fire_components:
            dispatch_event("fire", self._fire_components, bundle_fields(entry), metas)

        self._global.speculate(outcomes)
        if used_stale:
            for taken in outcomes:
                self._stale_ghist = shift_in(
                    self._stale_ghist, taken, self.config.global_history_bits
                )
        if self._local is not None:
            self._local.speculate(lhist_index, outcomes)
        if self._path is not None and cfi_idx is not None and cfi_target is not None:
            self._path.speculate_taken(cfi_target)

        if telemetry is not None:
            telemetry.on_predict(entry, staged, attribution, len(history_file))

        self.stats.predictions += 1
        return PredictResult(
            entry.ftq_id, fetch_pc, width, fetched_len, staged, final, cut, next_pc
        )

    # ------------------------------------------------------------------
    # Squash / repair / resolve
    # ------------------------------------------------------------------
    def squash_after(self, ftq_id: int) -> int:
        """Squash entries younger than ``ftq_id``; return walk cycles."""
        squashed = self.history_file.squash_after(ftq_id)
        if not squashed:
            return 0
        self._global.restore(squashed[0].chain_ghist)
        if self._path is not None:
            self._path.restore(squashed[0].phist_snapshot)
        walk_cycles = self._repair.repair(squashed)
        if self._telemetry is not None:
            self._telemetry.on_repair(len(squashed), walk_cycles)
        return walk_cycles

    def resolve_mispredict(
        self,
        ftq_id: int,
        slot: int,
        actual_taken: bool,
        actual_target: Optional[int],
        is_direction_mispredict: bool = True,
    ) -> MispredictResponse:
        """A backend-resolved misprediction for ``slot`` of entry ``ftq_id``."""
        entry = self.history_file.get(ftq_id)
        squashed = self.history_file.squash_after(ftq_id)
        walk_cycles = self._repair.repair(squashed)
        if self._telemetry is not None and squashed:
            self._telemetry.on_repair(len(squashed), walk_cycles)

        corrupted_ghist = self._global.read()

        width = entry.width
        new_br = tuple(entry.br_mask[i] if i <= slot else False for i in range(width))
        new_taken = tuple(
            (actual_taken if i == slot else entry.taken_mask[i]) if i <= slot else False
            for i in range(width)
        )
        entry.br_mask = new_br
        entry.taken_mask = new_taken
        entry.mispredicted = True
        entry.mispredict_idx = slot
        entry.resolved_cfi_target = actual_target
        if entry.cfi_is_br or is_direction_mispredict:
            if actual_taken:
                entry.cfi_idx = slot
                entry.cfi_taken = True
                entry.cfi_target = actual_target
                entry.cfi_is_br = True
                entry.cfi_is_jal = False
                entry.cfi_is_jalr = False
            elif entry.cfi_idx is not None and entry.cfi_idx == slot:
                # Predicted taken, actually not taken: the packet no longer
                # ends in a taken CFI.
                entry.cfi_idx = None
                entry.cfi_taken = False
                entry.cfi_target = None
                entry.cfi_is_br = False
        else:
            # Indirect-target mispredict: direction stands, target corrected.
            entry.cfi_target = actual_target

        # Restore the speculative histories from the snapshot plus the
        # packet's corrected outcomes.
        outcomes = [new_taken[i] for i in range(width) if new_br[i]]
        ghist = entry.chain_ghist
        for taken in outcomes:
            ghist = shift_in(ghist, taken, self.config.global_history_bits)
        self._global.restore(ghist)
        if self._local is not None:
            lhist = entry.lhist_snapshot
            for taken in outcomes:
                lhist = shift_in(lhist, taken, self.config.local_history_bits)
            self._local.write(entry.lhist_index, lhist)
        if self._path is not None:
            self._path.restore(entry.phist_snapshot)
            if entry.cfi_taken and actual_target is not None:
                self._path.speculate_taken(actual_target)

        extra_bubbles = 0
        if self.config.ghist_repair_mode == "replay":
            # Fetch replays only once the corrected history is available.
            extra_bubbles = self.config.ghist_repair_bubbles
        else:
            # The original design: the first post-redirect queries see the
            # corrupted history while the repair propagates (§VI-B).
            self._stale_ghist = corrupted_ghist
            self._stale_queries_remaining = self.config.ghist_corruption_window

        if self._mispredict_components:
            dispatch_event(
                "on_mispredict",
                self._mispredict_components,
                bundle_fields(entry, mispredicted=True),
                entry.metas,
            )

        if is_direction_mispredict:
            self.stats.direction_mispredicts += 1
        else:
            self.stats.target_mispredicts += 1
        if self._telemetry is not None:
            self._telemetry.on_resolve(
                entry, slot, actual_taken, is_direction_mispredict
            )
        return MispredictResponse(walk_cycles, extra_bubbles)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit_packet(self, ftq_id: int) -> None:
        """Dequeue the head entry and issue commit-time updates (§IV-B2)."""
        head = self.history_file.head()
        if head is None or head.ftq_id != ftq_id:
            raise InterfaceError(
                f"commit_packet({ftq_id}) but history-file head is "
                f"{head.ftq_id if head else None}"
            )
        entry = self.history_file.dequeue()
        if self._update_components:
            dispatch_event(
                "on_update", self._update_components, bundle_fields(entry), entry.metas
            )
        stats = self.stats
        stats.committed_packets += 1
        stats.committed_branches += entry.br_mask.count(True)
        if entry.cfi_is_jal or entry.cfi_is_jalr:
            stats.committed_jumps += 1
        if self._telemetry is not None:
            self._telemetry.on_commit(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_reports(self) -> Dict[str, StorageReport]:
        """Per-structure storage, components plus management ("Meta")."""
        reports: Dict[str, StorageReport] = {}
        total_meta_bits = 0
        for component in self.components:
            reports[component.name] = component.storage()
            total_meta_bits += component.meta_bits
        meta = self.history_file.storage(
            total_meta_bits,
            self.config.global_history_bits,
            self.config.local_history_bits if self._uses_local else 0,
        )
        meta = meta.merged(self._global.storage(), "meta")
        if self._local is not None:
            meta = meta.merged(self._local.storage(), "meta")
        if self._path is not None:
            meta = meta.merged(self._path.storage(), "meta")
        reports["meta"] = meta
        return reports

    def direction_storage_kib(self) -> float:
        """Direction-prediction storage: Table I's "Storage" column.

        Counts counter/tag/weight state of direction-predicting
        sub-components plus the history providers; excludes BTB/uBTB target
        arrays and the history file (the paper accounts those separately).
        """
        bits = 0
        for component in self.components:
            if component.provides_targets:
                continue
            bits += component.storage().total_bits
        bits += self._global.storage().total_bits
        if self._local is not None:
            bits += self._local.storage().total_bits
        if self._path is not None:
            bits += self._path.storage().total_bits
        return bits / 8 / 1024

    def total_storage_kib(self, include_meta: bool = True) -> float:
        reports = self.storage_reports()
        total = 0
        for name, report in reports.items():
            if name == "meta" and not include_meta:
                continue
            total += report.total_bits
        return total / 8 / 1024

    @property
    def repair_stats(self):
        return self._repair.stats


def _overriding(
    components: Sequence[PredictorComponent], hook: str
) -> Tuple[PredictorComponent, ...]:
    """The components whose class overrides the base-class no-op ``hook``."""
    base = getattr(PredictorComponent, hook)
    return tuple(c for c in components if getattr(type(c), hook) is not base)


def compose(
    topology: Union[str, TopologyNode],
    library: Optional[ComponentLibrary] = None,
    config: Optional[ComposerConfig] = None,
) -> ComposedPredictor:
    """Build a complete predictor pipeline from a topology (Fig. 5).

    ``topology`` may be a topology string in the paper's notation
    (``"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"``) or an explicitly constructed
    :class:`~repro.core.topology.TopologyNode`.
    """
    if isinstance(topology, str):
        if library is None:
            from repro.components.library import standard_library

            library = standard_library(
                fetch_width=(config.fetch_width if config else 4)
            )
        topology = parse_topology(topology, library)
    return ComposedPredictor(topology, config)
