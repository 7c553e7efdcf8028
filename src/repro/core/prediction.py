"""Prediction datatypes for the COBRA interface.

The unit of prediction is the *fetch packet*: up to ``fetch_width``
instructions starting at a fetch PC.  A sub-component produces a
:class:`PredictionVector` — one :class:`SlotPrediction` per instruction slot
(§III-C, superscalar prediction) — and the composer merges vectors from all
sub-components into per-stage *final* predictions (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode

_new_tuple = tuple.__new__


def packet_span(fetch_pc: int, fetch_width: int) -> int:
    """Number of instruction slots in the packet fetched at ``fetch_pc``.

    Fetch packets are aligned to ``fetch_width`` boundaries, so a fetch that
    starts mid-packet (after a redirect into the middle of a block) covers
    only the slots up to the next boundary.
    """
    return fetch_width - (fetch_pc % fetch_width)


@dataclass(frozen=True)
class PreDecodedSlot:
    """Instruction-kind information for one slot, known by Fetch-3.

    ``is_sfb`` marks short-forwards branches the decoder converts to
    predicated micro-ops (§VI-C): they are invisible to the predictor.
    """

    valid: bool = True
    is_cond_branch: bool = False
    is_jal: bool = False
    is_jalr: bool = False
    is_call: bool = False
    is_ret: bool = False
    direct_target: Optional[int] = None
    is_sfb: bool = False

    def __post_init__(self):
        # Derived once per (interned) slot for the composer's per-packet
        # pre-decode loop; plain attributes, not dataclass fields, so they
        # take no part in equality, hashing or the constructor.
        counts_branch = self.is_cond_branch and not self.is_sfb
        if not self.valid or self.is_sfb or not self.is_cfi:
            kind = PREDECODE_NONE
        elif self.is_cond_branch:
            kind = PREDECODE_BRANCH
        elif self.is_jal:
            kind = PREDECODE_JAL
        elif self.is_ret:
            kind = PREDECODE_RET
        else:
            kind = PREDECODE_JALR
        #: How pre-decode corrects this slot's prediction (``PREDECODE_*``).
        object.__setattr__(self, "predecode_kind", kind)
        #: The slot holds a conditional branch the predictor sees (an SFB
        #: is predicated away): its outcome enters the branch masks.
        object.__setattr__(self, "counts_branch", counts_branch)

    @property
    def is_cfi(self) -> bool:
        return (self.is_cond_branch and not self.is_sfb) or self.is_jal or self.is_jalr


#: Pre-decode classes of a slot: not a CFI the predictor sees (invalid,
#: SFB, or not control flow), conditional branch, direct jump, indirect
#: jump, and return.
PREDECODE_NONE, PREDECODE_BRANCH, PREDECODE_JAL, PREDECODE_JALR, PREDECODE_RET = (
    range(5)
)


#: Canonical slots for the two cases that dominate every instruction stream.
INVALID_SLOT = PreDecodedSlot(valid=False)
PLAIN_SLOT = PreDecodedSlot()


class PacketCache:
    """Memoized pre-decoded fetch packets, keyed by fetch PC.

    The single packet-assembly rule shared by every execution backend (the
    cycle-level frontend and both trace-driven backends — see
    :mod:`repro.backends`): ``slot_fn`` maps a PC to its
    :class:`PreDecodedSlot`, and the cache builds aligned packets with
    :func:`packet_span`.  Valid because the instruction image is immutable
    during a run.
    """

    __slots__ = ("slot_fn", "fetch_width", "_packets")

    def __init__(self, slot_fn, fetch_width: int):
        self.slot_fn = slot_fn
        self.fetch_width = fetch_width
        self._packets = {}

    def packet(self, fetch_pc: int) -> Tuple[PreDecodedSlot, ...]:
        """The slots of the packet fetched at ``fetch_pc``."""
        slots = self._packets.get(fetch_pc)
        if slots is None:
            slot_fn = self.slot_fn
            slots = tuple(
                slot_fn(fetch_pc + i)
                for i in range(packet_span(fetch_pc, self.fetch_width))
            )
            self._packets[fetch_pc] = slots
        return slots


@lru_cache(maxsize=65536)
def predecode_slot(
    instr: Optional[Instruction], is_sfb: bool = False
) -> PreDecodedSlot:
    """Pre-decode one fetched instruction into its slot-kind summary.

    This is the single pre-decode rule shared by the cycle-level frontend
    (:class:`repro.frontend.core.Core`) and the ``trace`` backend
    (:mod:`repro.backends.trace`), so the two evaluation paths cannot
    diverge on instruction classification.  The function is
    pure (``Instruction`` is a frozen value type) and memoized: the same
    static instruction is re-decoded millions of times over a run, and the
    cache also interns the returned slots so identical instructions share
    one ``PreDecodedSlot`` instance.
    """
    if instr is None:
        return INVALID_SLOT
    if instr.is_cond_branch:
        return PreDecodedSlot(
            is_cond_branch=True, direct_target=instr.target, is_sfb=is_sfb
        )
    if instr.op is Opcode.JAL:
        return PreDecodedSlot(
            is_jal=True, is_call=instr.is_call, direct_target=instr.target
        )
    if instr.op is Opcode.JALR:
        return PreDecodedSlot(is_jalr=True, is_ret=instr.is_ret)
    return PLAIN_SLOT


class SlotPrediction(NamedTuple):
    """Prediction for a single instruction slot within a fetch packet.

    An immutable value: a component overrides a slot by building a new one
    and passes every slot it does not predict on as the same object
    (§III-F).

    Attributes
    ----------
    hit:
        Some sub-component formed a real prediction for this slot.  The
        composer uses this to implement structural overriding: in a topology
        where a fast component is ordered above a slower one (e.g.
        ``uBTB1 > PHT2``), the fast component cannot consume the slow
        component's output as ``predict_in``, so the composer muxes on
        ``hit`` instead (§IV-A).
    is_branch:
        The predictor believes this slot holds a conditional branch.
    is_jump:
        The predictor believes this slot holds an unconditional jump.
    taken:
        Predicted direction (meaningful when ``is_branch``; jumps are
        always taken).
    target:
        Predicted target PC, or None when no target-providing component
        (BTB/uBTB) hit for this slot.
    """

    hit: bool = False
    is_branch: bool = False
    is_jump: bool = False
    taken: bool = False
    target: Optional[int] = None

    @property
    def redirects(self) -> bool:
        """True when this slot, as predicted, ends the fetch packet."""
        return self.is_jump or (self.is_branch and self.taken)

    def with_direction(self, taken: bool) -> "SlotPrediction":
        """This slot predicted ``taken`` by a direction predictor.

        The result is a hit; kind and target pass through (§III-F).
        """
        return _new_tuple(
            SlotPrediction, (True, self.is_branch, self.is_jump, taken, self.target)
        )


#: The slot no component has predicted.
EMPTY_SLOT = SlotPrediction()


class PredictionVector(NamedTuple):
    """A superscalar prediction: one slot per instruction in the packet.

    Immutable like its slots: ``slots`` is a tuple, so vectors and their
    slots can be shared between stages and queries.
    """

    fetch_pc: int
    slots: Tuple[SlotPrediction, ...]

    @classmethod
    def fallthrough(cls, fetch_pc: int, width: int) -> "PredictionVector":
        """The default prediction: no branches, fall through to next packet."""
        return cls(fetch_pc, (EMPTY_SLOT,) * width)

    @property
    def width(self) -> int:
        return len(self.slots)

    def with_slot(self, index: int, slot: SlotPrediction) -> "PredictionVector":
        """This vector with slot ``index`` replaced.

        The other slots are passed on as the same objects.
        """
        slots = self.slots
        return _new_tuple(
            PredictionVector,
            (self.fetch_pc, slots[:index] + (slot,) + slots[index + 1 :]),
        )

    def cfi_index(self) -> Optional[int]:
        """Index of the first slot predicted to redirect, or None."""
        # ``SlotPrediction.redirects`` spelled out: the cycle core asks this
        # of every fetch stage's vector, and a property call per slot costs
        # more than the test.
        for index, (_hit, is_branch, is_jump, taken, _target) in enumerate(
            self.slots
        ):
            if is_jump or (is_branch and taken):
                return index
        return None

    def next_fetch_pc(self, fetch_width: int) -> int:
        """The fetch PC this prediction directs the frontend to next.

        A predicted-taken slot with a known target redirects there.  A
        predicted-taken slot *without* a target cannot redirect fetch (there
        is nowhere to go), so fetch falls through; the pre-decode stage or
        backend corrects it later.
        """
        cfi = self.cfi_index()
        if cfi is not None:
            target = self.slots[cfi].target
            if target is not None:
                return target
        fetch_pc = self.fetch_pc
        return fetch_pc - fetch_pc % fetch_width + fetch_width

    def taken_mask(self) -> Tuple[bool, ...]:
        """Per-slot predicted directions for conditional-branch slots."""
        return tuple(s.is_branch and s.taken for s in self.slots)
