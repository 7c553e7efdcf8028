"""Shared pre-decode packet cache and architectural packet walker.

Every execution backend presents the same unit of work to a composed
predictor: an aligned fetch packet of pre-decoded slots.  This module holds
the two helpers all backends share so their packet semantics cannot
diverge:

- :class:`PacketCache` memoizes pre-decoded packets per fetch PC (the
  program image is immutable during a run), replacing the private caches
  the cycle core and the trace simulator used to keep separately.
- :func:`drive_stream` walks an architectural instruction stream through a
  predictor packet by packet — the commit-order protocol the trace-driven
  methodology of §II-B prescribes (no wrong path, no update delay).  The
  ``trace`` and ``replay`` backends both run on this one walker; ``replay``
  additionally enables the branchless-packet fast path.

The fast path rests on a provable equivalence: a packet with no
control-flow instruction cannot change predictor state.  The composed
pipeline shifts zero outcomes into its histories and components observe an
all-False ``br_mask`` (the :attr:`~repro.core.interface.PredictorComponent.
branchless_inert` contract, enforced by rule CON008).  Skipping such
packets therefore yields bit-identical branch and mispredict counts while
making replay cost proportional to *branchy* packets only.  The skip is
gated off whenever it could be observed: a non-inert component, an
attached telemetry collector (event counts must stay faithful), or an
active no-replay stale-history window (eliding a query would stretch the
corruption window, §VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.composer import ComposedPredictor
from repro.core.prediction import (  # noqa: F401  (PacketCache re-exported)
    PacketCache,
    predecode_slot,
)
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program

#: One architectural record: (pc, next_pc, is_cond_branch, taken).  Plain
#: tuples, not objects — both producers (the interpreter adapter and the
#: columnar trace reconstruction) emit them cheaply in the hot loop.
ArchRecord = Tuple[int, int, bool, bool]


def program_packets(program: Program, fetch_width: int) -> PacketCache:
    """Pre-decoded packets read from the program image.

    Uses the same shared, memoized pre-decode rule as the cycle-level
    frontend, so trace-vs-core comparisons measure modelling error, never
    classification skew.
    """
    return PacketCache(lambda pc: predecode_slot(program.fetch(pc)), fetch_width)


def interpreter_stream(
    program: Program, max_instructions: int
) -> Iterator[ArchRecord]:
    """Architectural records straight from the ISA interpreter."""
    is_cond = [instr.is_cond_branch for instr in program.instructions]
    for record in Interpreter(program).run(max_instructions):
        pc = record.pc
        yield (pc, record.next_pc, is_cond[pc], record.taken)


@dataclass
class WalkCounts:
    """What one architectural walk observed."""

    instructions: int
    branches: int
    mispredicts: int


def drive_stream(
    predictor: ComposedPredictor,
    stream: Iterator[ArchRecord],
    packets: PacketCache,
    skip_inert: bool = False,
) -> WalkCounts:
    """Drive ``predictor`` down an architectural record stream.

    Presents one fetch packet per control-flow transfer in commit order:
    predict, count conditional-branch outcomes against the final
    prediction, resolve the first direction mispredict (if any), commit.
    Packet boundaries follow the fetched instruction flow — a packet ends
    at a taken transfer, at the aligned packet edge, or at the predictor's
    own cut when the cut slot mispredicted.

    With ``skip_inert`` (the replay fast path), packets containing no
    control-flow instruction are consumed without querying the predictor at
    all; see the module docstring for why this is exact.
    """
    skip = (
        skip_inert
        and predictor.branchless_inert
        and predictor.telemetry is None
    )
    instructions = 0
    branches = 0
    mispredicts = 0
    record = next(stream, None)
    while record is not None:
        fetch_pc = record[0]
        slots, has_cfi = packets.packet(fetch_pc)
        span = len(slots)

        if skip and not has_cfi and not predictor.stale_window_active:
            # Branchless packet: state-neutral, so just walk the stream.
            consumed = 0
            while record is not None and record[0] == fetch_pc + consumed:
                instructions += 1
                consumed += 1
                ends_packet = record[1] != record[0] + 1 or consumed >= span
                record = next(stream, None)
                if ends_packet:
                    break
            continue

        result = predictor.predict(fetch_pc, slots, None)
        final_slots = result.final.slots

        # Walk the architectural records covered by this packet: they
        # follow sequentially until a taken transfer or the packet ends.
        mispredict_info = None
        consumed = 0
        while record is not None and record[0] == fetch_pc + consumed:
            slot_idx = consumed
            instructions += 1
            if record[2]:  # conditional branch
                branches += 1
                if final_slots[slot_idx].taken != record[3]:
                    mispredicts += 1
                    if mispredict_info is None:
                        mispredict_info = (
                            slot_idx,
                            record[3],
                            record[1] if record[3] else None,
                        )
            consumed += 1
            ends_packet = (
                record[1] != record[0] + 1
                or consumed >= span
                or (mispredict_info is not None and result.cut == slot_idx)
            )
            record = next(stream, None)
            if ends_packet:
                break
        if mispredict_info is not None:
            slot_idx, taken, target = mispredict_info
            predictor.resolve_mispredict(result.ftq_id, slot_idx, taken, target)
        predictor.commit_packet(result.ftq_id)
    return WalkCounts(instructions, branches, mispredicts)
