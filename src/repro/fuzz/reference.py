"""The reference commit-order walk the trace-driven backends are held to.

Both trace-driven backends (``trace`` and ``replay``) run one walker,
:func:`repro.backends.replay.drive_columns`, over a
:class:`~repro.workloads.traces.BranchTrace`.  This module keeps the
walk it must reproduce, written independently of it: the ISA interpreter's
record stream, packets pre-decoded from the program image, and one
predictor query per fetch packet, branchless or not — no skip, no segment
engine.  The ``backends`` fuzz oracle compares every trace-driven path
against it, and the test suite and ``benchmarks/bench_backends.py`` do
the same.  No run path uses it.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.backends.base import WalkCounts
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


def reference_walk(
    predictor: ComposedPredictor, program: Program, max_instructions: int
) -> WalkCounts:
    """:func:`drive_stream` over ``program``'s first ``max_instructions``."""
    return drive_stream(
        predictor,
        interpreter_stream(program, max_instructions),
        program_packets(program, predictor.config.fetch_width),
    )
