"""Prediction events of the COBRA interface (§III-E).

The interface defines five events a sub-component may observe:

- ``predict``: begin generating a prediction for a fetch PC (the
  :class:`PredictRequest` passed to ``lookup``).
- ``fire``: speculatively update local state for a prior predict PC.
- ``mispredict``: "fast" immediate update from a mispredicted branch.
- ``repair``: restore misspeculated local state for a given predict PC.
- ``update``: "slow" commit-time update from a committing branch.

``mispredict``, ``repair`` and ``update`` all carry the fetch PC and the
histories provided at predict time (so components can regenerate indices),
the resolved/misspeculated directions, and the component's own metadata
produced at predict time (§III-D/E).  :class:`UpdateBundle` is that common
payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

#: The five interface events, in pipeline order.  Telemetry trace records
#: (:mod:`repro.telemetry.trace`) use these names, with commit-time
#: ``update`` closing each packet's lifetime.
EVENT_NAMES = ("predict", "fire", "mispredict", "repair", "update")


class PredictRequest(NamedTuple):
    """Inputs available to a sub-component during prediction.

    ``ghist`` and ``lhist`` are provided only at the end of the first cycle
    (§III-B, Fig. 2); the composer enforces that single-cycle components do
    not consume them.  ``phist`` is the optional path history (§IV-B3),
    provided on the same timing.

    An immutable named tuple: the composer builds one per fetch packet, and
    a tuple costs a third of a frozen dataclass to construct.
    """

    fetch_pc: int
    width: int
    ghist: int = 0
    lhist: int = 0
    phist: int = 0


@dataclass(slots=True)
class UpdateBundle:
    """Common payload of the fire / mispredict / repair / update events.

    Slotted: the composer builds one per component per event, and
    components read its fields many times, so construction and field
    reads both stay cheap.

    Attributes
    ----------
    fetch_pc, width, ghist, lhist:
        Exactly as provided at predict time.
    meta:
        The metadata value this component's ``lookup`` returned at
        predict time, exactly as returned (each component sees only its
        own): a positional tuple for library components, whatever a
        hand-written component chose otherwise.
    br_mask:
        Per-slot flags: slot holds a conditional branch.  At ``fire`` time
        this reflects the *predicted* packet contents; at resolve time it
        reflects the decoded truth.
    taken_mask:
        Per-slot directions.  Speculative (predicted) at ``fire``/``repair``
        time, resolved at ``mispredict``/``update`` time.
    cfi_idx:
        Slot index of the control-flow instruction that (speculatively or
        actually) ended the packet, or None when the packet fell through.
    cfi_taken, cfi_target:
        Direction and target of that CFI.
    cfi_is_br, cfi_is_jal, cfi_is_jalr:
        Kind of that CFI.
    mispredicted:
        True on ``mispredict`` events and on ``update`` events for packets
        that were mispredicted.
    mispredict_idx:
        Slot index of the instruction that mispredicted (valid when
        ``mispredicted``); components use it to key allocations.
    """

    fetch_pc: int
    width: int
    ghist: int = 0
    lhist: int = 0
    phist: int = 0
    meta: object = 0
    br_mask: Tuple[bool, ...] = ()
    taken_mask: Tuple[bool, ...] = ()
    cfi_idx: Optional[int] = None
    cfi_taken: bool = False
    cfi_target: Optional[int] = None
    cfi_is_br: bool = False
    cfi_is_jal: bool = False
    cfi_is_jalr: bool = False
    mispredicted: bool = False
    mispredict_idx: Optional[int] = None


_new_bundle = object.__new__


def dispatch_event(
    hook: str,
    components: Iterable[object],
    fields: Tuple[object, ...],
    metas: Dict[str, object],
) -> None:
    """Call ``component.<hook>`` with a fresh bundle for each component.

    Each component gets its own :class:`UpdateBundle` carrying ``fields``
    (every bundle field in declaration order, as
    :func:`repro.core.repair.bundle_fields` builds them once per event)
    and its own predict-time metadata from ``metas`` (0 if it has none).
    Runs for every event of every fetch packet, so it skips the generated
    ``__init__`` and fills the slots from the field tuple directly.
    """
    for component in components:
        bundle = _new_bundle(UpdateBundle)
        (
            bundle.fetch_pc,
            bundle.width,
            bundle.ghist,
            bundle.lhist,
            bundle.phist,
            bundle.meta,
            bundle.br_mask,
            bundle.taken_mask,
            bundle.cfi_idx,
            bundle.cfi_taken,
            bundle.cfi_target,
            bundle.cfi_is_br,
            bundle.cfi_is_jal,
            bundle.cfi_is_jalr,
            bundle.mispredicted,
            bundle.mispredict_idx,
        ) = fields
        bundle.meta = metas.get(component.name, 0)
        getattr(component, hook)(bundle)
