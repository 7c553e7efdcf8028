"""Committed exactness gate for the ISA interpreter and trace capture.

The interpreter defines the architectural path that ``capture_trace``, the
``trace`` backend and the cycle core's oracle all consume, and those
consumers share it — so the ``backends`` fuzz oracle cannot notice an
interpreter bug.  This gate pins the interpreter's observable behaviour
instead: SHA-256 digests over the full record stream plus the final
``regs``/``memory``/``pc``/``halted``/sequence count, and over the captured
trace columns, for

- every registered workload at a small scale,
- a fixed set of ``repro.fuzz.generate`` programs, and
- seeded random instruction soups that hit every opcode with edge operands
  (shift amounts >= 64, negative and 64-bit-wide values, ``r0``/``None``
  operands, ``JALR`` with ``rd == rs1``) and end in ``HALT``, an
  ``InterpreterError`` or the instruction cap.

The constants were computed with the direct ``if``/``elif`` evaluation of
each ``Instruction`` that preceded the predecoded executor.  A digest may
only change with a deliberate change of ISA semantics or of the programs
above (their generators included).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.fuzz.generate import build_program, campaign_rng, random_program_spec
from repro.isa import Instruction, Opcode, Program, RA
from repro.isa.interpreter import Interpreter, InterpreterError
from repro.workloads.registry import build_workload
from repro.workloads.traces import capture_trace

#: Workload scale and per-program instruction cap for the gate.
SCALE = 0.1
CAP = 20_000
#: The registered workloads when the digests were taken (pinned, so that
#: registering a new workload does not move them).
WORKLOADS = (
    "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk", "x264", "deepsjeng",
    "leela", "exchange2", "xz", "dhrystone", "coremark", "steady_loop",
    "biased", "pattern_short", "pattern_long", "random", "counted_loops",
    "dense_aliasing", "pointer_chase", "dispatch", "call_ret",
)

#: Digest of the record streams and final state (see module docstring).
STREAM_DIGEST = "0752eb02db10027781927c15e1a28d16e5fe2dc451463b84b058c89ddc475c76"
#: Digest of the ``capture_trace`` columns of the same programs.
CAPTURE_DIGEST = "389d375410f91863568b3dc25ab7d9d18972afa8addca9b621f6f667f5380d84"

_ALU3 = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.MUL,
    Opcode.DIV,
)
_ALUI = (Opcode.ADDI, Opcode.ANDI, Opcode.XORI)
_BRANCHES = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE)
_EDGE_IMMS = (
    0, 1, -1, 2, 63, 64, 65, 127, -64, 1 << 63, -(1 << 63), (1 << 64) - 1, 1 << 64,
)
#: r13 is the soup's loop counter: never a destination.
_DESTS = (None, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, RA)
_SOURCES = (None, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, RA)
_COUNTER = 13


def _imm(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.choice(_EDGE_IMMS)
    return rng.randint(-300, 300)


def soup_program(seed: int) -> Program:
    """A seeded random program that loops over a body of mixed opcodes."""
    rng = random.Random(seed)
    body_len = rng.randint(12, 48)
    start = 1
    end = start + body_len  # PC of the loop-counter decrement
    instrs = [Instruction(Opcode.LI, rd=_COUNTER, imm=rng.randint(2, 6))]
    while len(instrs) < end:
        pc = len(instrs)
        roll = rng.random()
        rd, rs1, rs2 = rng.choice(_DESTS), rng.choice(_SOURCES), rng.choice(_SOURCES)
        forward = rng.randint(pc + 1, end)
        if roll < 0.35:
            instrs.append(Instruction(rng.choice(_ALU3), rd=rd, rs1=rs1, rs2=rs2))
        elif roll < 0.5:
            instrs.append(Instruction(rng.choice(_ALUI), rd=rd, rs1=rs1, imm=_imm(rng)))
        elif roll < 0.58:
            instrs.append(Instruction(Opcode.LI, rd=rd, imm=_imm(rng)))
        elif roll < 0.66:
            instrs.append(Instruction(Opcode.LD, rd=rd, rs1=rs1, imm=_imm(rng)))
        elif roll < 0.74:
            instrs.append(Instruction(Opcode.ST, rs1=rs1, rs2=rs2, imm=_imm(rng)))
        elif roll < 0.86:
            target = None if rng.random() < 0.03 else forward
            op = rng.choice(_BRANCHES)
            instrs.append(Instruction(op, rs1=rs1, rs2=rs2, target=target))
        elif roll < 0.91:
            target = None if rng.random() < 0.03 else forward
            instrs.append(Instruction(Opcode.JAL, rd=rng.choice(_DESTS), target=target))
        elif roll < 0.96 and pc + 1 < end:
            # Load a forward target into a register, then jump through it;
            # the link may overwrite the target register (rd == rs1).
            reg = rng.choice((1, 2, 3, 4, 5, RA))
            instrs.append(Instruction(Opcode.LI, rd=reg, imm=rng.randint(pc + 2, end)))
            link = rng.choice((None, 0, reg, reg, RA, 7))
            instrs.append(Instruction(Opcode.JALR, rd=link, rs1=reg))
        else:
            instrs.append(Instruction(Opcode.NOP))
    instrs.append(Instruction(Opcode.ADDI, rd=_COUNTER, rs1=_COUNTER, imm=-1))
    instrs.append(Instruction(Opcode.BNE, rs1=_COUNTER, rs2=0, target=start))
    ending = rng.random()
    if ending < 0.6:
        instrs.append(Instruction(Opcode.HALT))
    elif ending < 0.75:
        instrs.append(Instruction(Opcode.JALR, rs1=rng.choice(_SOURCES)))
    elif ending < 0.85:
        instrs.append(Instruction(Opcode.JAL, target=-rng.randint(1, 3 * len(instrs))))
    # else: run off the end of the program.
    data = {rng.randint(-70, 400): _imm(rng) for _ in range(rng.randint(0, 12))}
    return Program(instrs, data, name=f"soup{seed}")


def gate_programs():
    programs = [build_workload(name, scale=SCALE) for name in WORKLOADS]
    for iteration in range(8):
        spec = random_program_spec(campaign_rng(0, iteration))
        programs.append(build_program(spec))
    programs.extend(soup_program(seed) for seed in range(64))
    return programs


def _records(interp: Interpreter, mode: str):
    if mode == "run":
        yield from interp.run(CAP)
        return
    for _ in range(CAP):
        record = interp.step()
        if record is None:
            return
        yield record
        if interp.halted:
            return


def stream_digest(programs, mode: str = "run") -> str:
    h = hashlib.sha256()
    for program in programs:
        h.update(program.name.encode())
        interp = Interpreter(program)
        try:
            for r in _records(interp, mode):
                i = r.instr
                h.update(
                    repr(
                        (r.seq, r.pc, i.op.value, i.rd, i.rs1, i.rs2, i.imm, i.target,
                         r.next_pc, r.taken, r.mem_addr)
                    ).encode()
                )
        except InterpreterError as exc:
            h.update(f"error:{exc}".encode())
        h.update(repr(interp.regs).encode())
        h.update(repr(sorted(interp.memory.items())).encode())
        h.update(repr((interp.pc, interp.halted, interp._seq)).encode())
    return h.hexdigest()


def capture_digest(programs) -> str:
    h = hashlib.sha256()
    for program in programs:
        h.update(program.name.encode())
        try:
            trace = capture_trace(program, max_instructions=CAP)
        except InterpreterError as exc:
            h.update(f"error:{exc}".encode())
            continue
        for column in (
            trace.pcs,
            trace.types,
            trace.taken,
            trace.targets,
            trace.slot_kinds,
            trace.slot_targets,
        ):
            h.update(column.dtype.str.encode())
            h.update(np.ascontiguousarray(column).tobytes())
        h.update(repr((trace.instruction_count, trace.entry_pc)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def programs():
    return gate_programs()


def test_soups_cover_every_opcode(programs):
    ops = {i.op for p in programs for i in p.instructions}
    assert ops == set(Opcode)


@pytest.mark.parametrize("mode", ["run", "step"])
def test_record_stream_digest(programs, mode):
    assert stream_digest(programs, mode) == STREAM_DIGEST


def test_capture_digest(programs):
    assert capture_digest(programs) == CAPTURE_DIGEST


if __name__ == "__main__":  # print the digests of the current implementation
    progs = gate_programs()
    print("STREAM_DIGEST =", repr(stream_digest(progs)))
    print("STREAM_DIGEST (step) =", repr(stream_digest(progs, "step")))
    print("CAPTURE_DIGEST =", repr(capture_digest(progs)))
