"""Shared pre-decode packet cache and architectural packet walker.

Every execution backend presents the same unit of work to a composed
predictor: an aligned fetch packet of pre-decoded slots.  This module holds
the two helpers the backends share so their packet semantics cannot
diverge:

- :class:`PacketCache` memoizes pre-decoded packets per fetch PC (the
  program image is immutable during a run); the cycle core and both
  trace-driven backends build their packets through it.
- :func:`drive_stream` walks an architectural instruction stream through a
  predictor packet by packet — the commit-order protocol the trace-driven
  methodology of §II-B prescribes (no wrong path, no update delay).  It is
  the ``trace`` backend's walker and the reference the ``replay`` walker
  (:func:`repro.backends.replay.drive_columns`) is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.composer import ComposedPredictor
from repro.core.prediction import PacketCache, predecode_slot
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program

#: One architectural record: (pc, next_pc, is_cond_branch, taken).  Plain
#: tuples, not objects, so the interpreter adapter emits them cheaply in
#: the hot loop.
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
) -> WalkCounts:
    """Drive ``predictor`` down an architectural record stream.

    Presents one fetch packet per control-flow transfer in commit order:
    predict, count conditional-branch outcomes against the final
    prediction, resolve the first direction mispredict (if any), commit.
    Packet boundaries follow the fetched instruction flow — a packet ends
    at a taken transfer, at the aligned packet edge, or at the predictor's
    own cut when the cut slot mispredicted.  Every packet is predicted,
    branchless or not.
    """
    instructions = 0
    branches = 0
    mispredicts = 0
    record = next(stream, None)
    while record is not None:
        fetch_pc = record[0]
        slots = packets.packet(fetch_pc)
        span = len(slots)
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
