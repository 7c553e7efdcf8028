"""The telemetry collector: per-component and per-site attribution.

Attribution model
-----------------
During a telemetry-enabled predict, the topology evaluation records which
sub-component supplied each slot of every prediction vector it produced
(see ``EvaluationPlan.run``'s ``attribution`` parameter).  The provider
of a final-prediction slot is:

- the component whose ``lookup`` produced the slot's value, when it formed
  a prediction for that slot (``hit``);
- resolved transitively through pass-through and ``merge_by_hit`` muxing,
  so an untouched ``predict_in`` slot keeps its original provider;
- ``None`` when no component predicted the slot (the fall-through
  default), reported under the ``"(none)"`` key.

The composer stores the final-stage provider tuple in the history-file
entry, which makes resolve- and commit-time attribution exact: the
component charged with a wrong (or credited with a right) direction is the
one whose prediction the frontend actually followed for that slot.

Override accounting compares consecutive pipeline stages of the staged
final prediction: when stage ``d`` changes a slot's decision relative to
stage ``d - 1``, the stage-``d`` provider scores ``overrides_won`` and the
displaced provider scores ``overrides_lost`` — the Alpha-21264-style
late-override traffic §IV-B's generated muxing creates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Bump when the summary payload's field set changes incompatibly.
SUMMARY_SCHEMA_VERSION = 1

#: Summary key for slots no component predicted (fall-through defaults).
UNATTRIBUTED = "(none)"

_COUNTER_FIELDS = (
    "lookups",
    "fire_events",
    "mispredict_events",
    "repair_events",
    "update_events",
    "provided_slots",
    "provided_branches",
    "overrides_won",
    "overrides_lost",
    "direction_right",
    "direction_wrong",
    "target_wrong",
)


class ComponentCounters:
    """Event and attribution counters for one sub-component.

    Attributes
    ----------
    lookups:
        Predict queries observed (one per fetch packet).
    fire_events, mispredict_events, repair_events, update_events:
        Interface-event dispatches this component actually received
        (components that leave a hook as the base-class no-op receive
        nothing; ``repair_events`` counts squashed entries walked).
    provided_slots, provided_branches:
        Final-prediction slots (and the conditional-branch subset)
        attributed to this component at predict time.
    overrides_won, overrides_lost:
        Late-stage decision changes won against (or lost to) another
        provider across consecutive pipeline stages.
    direction_right, direction_wrong:
        Resolved conditional-branch directions this component supplied.
    target_wrong:
        Indirect-target mispredicts on slots this component supplied.
    """

    __slots__ = _COUNTER_FIELDS

    def __init__(self) -> None:
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)

    def to_payload(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in _COUNTER_FIELDS
            if getattr(self, name)
        )
        return f"ComponentCounters({inner})"


def _decision_changed(a, b) -> bool:
    """Did slot prediction ``b`` change the packet's behaviour vs ``a``?"""
    return (
        a.taken != b.taken
        or a.target != b.target
        or a.is_branch != b.is_branch
        or a.is_jump != b.is_jump
    )


class TelemetryCollector:
    """Accumulates telemetry from one composed predictor's event stream.

    Bind with :meth:`repro.core.composer.ComposedPredictor.attach_telemetry`
    (or construct the core with ``CoreConfig(telemetry=True)``, which does
    it for you).  ``trace`` is an optional
    :class:`~repro.telemetry.trace.EventTrace` receiving one record per
    observed event.
    """

    def __init__(self, trace=None) -> None:
        self.trace = trace
        self.packets = 0
        self.occupancy_samples = 0
        self.occupancy_total = 0
        self.occupancy_max = 0
        self.repair_walks = 0
        self.repair_entries = 0
        self.repair_cycles = 0
        self.repair_depths: Dict[int, int] = {}
        self.components: Dict[str, ComponentCounters] = {}
        self.unattributed = ComponentCounters()
        #: pc -> provider -> [direction_right, direction_wrong]
        self.sites: Dict[int, Dict[str, List[int]]] = {}
        self._component_names: Tuple[str, ...] = ()
        self._fire_names: Tuple[str, ...] = ()
        self._mispredict_names: Tuple[str, ...] = ()
        self._repair_names: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def bind(self, predictor) -> None:
        """Capture the component roster of the predictor being observed."""
        self._component_names = tuple(c.name for c in predictor.components)
        self._fire_names = tuple(c.name for c in predictor._fire_components)
        self._mispredict_names = tuple(
            c.name for c in predictor._mispredict_components
        )
        self._repair_names = tuple(
            c.name for c in predictor._repair._repair_components
        )
        for name in self._component_names:
            self.components.setdefault(name, ComponentCounters())

    def _counters(self, provider: Optional[str]) -> ComponentCounters:
        if provider is None:
            return self.unattributed
        counters = self.components.get(provider)
        if counters is None:
            counters = self.components[provider] = ComponentCounters()
        return counters

    def _site(self, pc: int, provider: Optional[str]) -> List[int]:
        by_provider = self.sites.get(pc)
        if by_provider is None:
            by_provider = self.sites[pc] = {}
        key = provider if provider is not None else UNATTRIBUTED
        cell = by_provider.get(key)
        if cell is None:
            cell = by_provider[key] = [0, 0]
        return cell

    # ------------------------------------------------------------------
    # Event hooks (called by the composer)
    # ------------------------------------------------------------------
    def on_predict(self, entry, staged, stage_providers, occupancy: int) -> None:
        """One predict event: the packet was queried and fired.

        ``stage_providers`` holds, per staged vector, its per-slot
        provider names (None when no component provided it).
        """
        self.packets += 1
        self.occupancy_samples += 1
        self.occupancy_total += occupancy
        if occupancy > self.occupancy_max:
            self.occupancy_max = occupancy
        for name in self._component_names:
            self.components[name].lookups += 1
        for name in self._fire_names:
            self.components[name].fire_events += 1

        providers = entry.slot_providers or ()
        for index, provider in enumerate(providers):
            if provider is None:
                continue
            counters = self.components[provider]
            counters.provided_slots += 1
            if entry.br_mask[index]:
                counters.provided_branches += 1

        previous = prev_providers = None
        for vector, this_providers in zip(staged, stage_providers):
            if vector is None:
                continue
            if previous is not None and vector is not previous:
                for index in range(len(vector.slots)):
                    if not _decision_changed(
                        previous.slots[index], vector.slots[index]
                    ):
                        continue
                    winner = this_providers[index] if this_providers else None
                    loser = prev_providers[index] if prev_providers else None
                    self._counters(winner).overrides_won += 1
                    self._counters(loser).overrides_lost += 1
            previous, prev_providers = vector, this_providers

        if self.trace is not None:
            self.trace.emit(
                "predict",
                pc=entry.fetch_pc,
                ftq=entry.ftq_id,
                cfi=entry.cfi_idx,
                taken=list(entry.taken_mask),
                providers=[p if p is not None else UNATTRIBUTED for p in providers],
            )
            if self._fire_names:
                self.trace.emit(
                    "fire", ftq=entry.ftq_id, components=list(self._fire_names)
                )

    def on_resolve(
        self, entry, slot: int, actual_taken: bool, is_direction: bool
    ) -> None:
        """One mispredict event: the backend corrected this entry."""
        providers = entry.slot_providers
        provider = providers[slot] if providers else None
        counters = self._counters(provider)
        if is_direction:
            counters.direction_wrong += 1
            self._site(entry.fetch_pc + slot, provider)[1] += 1
        else:
            counters.target_wrong += 1
        for name in self._mispredict_names:
            self.components[name].mispredict_events += 1
        if self.trace is not None:
            self.trace.emit(
                "mispredict",
                pc=entry.fetch_pc + slot,
                ftq=entry.ftq_id,
                direction=is_direction,
                taken=actual_taken,
                provider=provider if provider is not None else UNATTRIBUTED,
            )

    def on_repair(self, entries: int, cycles: int) -> None:
        """One repair walk over ``entries`` squashed history-file entries."""
        self.repair_walks += 1
        self.repair_entries += entries
        self.repair_cycles += cycles
        self.repair_depths[entries] = self.repair_depths.get(entries, 0) + 1
        for name in self._repair_names:
            self.components[name].repair_events += entries
        if self.trace is not None:
            self.trace.emit("repair", entries=entries, cycles=cycles)

    def on_commit(self, entry) -> None:
        """One update event: the packet committed and updated components."""
        for name in self._component_names:
            self.components[name].update_events += 1
        providers = entry.slot_providers
        for index, is_branch in enumerate(entry.br_mask):
            if not is_branch:
                continue
            if entry.mispredicted and entry.mispredict_idx == index:
                continue  # charged at resolve time
            provider = providers[index] if providers else None
            self._counters(provider).direction_right += 1
            self._site(entry.fetch_pc + index, provider)[0] += 1
        if self.trace is not None:
            self.trace.emit("update", pc=entry.fetch_pc, ftq=entry.ftq_id)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-canonical payload: string keys, ints, and lists only.

        The payload round-trips byte-identically through ``json`` (and
        therefore through the result cache and artifact files), which the
        golden-stats gate relies on.
        """
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "packets": self.packets,
            "occupancy": {
                "samples": self.occupancy_samples,
                "total": self.occupancy_total,
                "max": self.occupancy_max,
            },
            "repair": {
                "walks": self.repair_walks,
                "entries": self.repair_entries,
                "cycles": self.repair_cycles,
                "depths": {
                    str(depth): count
                    for depth, count in sorted(self.repair_depths.items())
                },
            },
            "components": {
                name: self.components[name].to_payload()
                for name in sorted(self.components)
            },
            "unattributed": self.unattributed.to_payload(),
            "sites": {
                str(pc): {
                    provider: list(cell)
                    for provider, cell in sorted(by_provider.items())
                }
                for pc, by_provider in sorted(self.sites.items())
            },
        }

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_total / self.occupancy_samples
