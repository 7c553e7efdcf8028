"""Functional interpreter producing the architectural (oracle) path.

The speculative core model in :mod:`repro.frontend` fetches down predicted
paths; the interpreter defines what the *correct* path is, one dynamic
instruction at a time.  It is also usable standalone for workload unit tests.

The program is decoded once per interpreter into per-PC tuples of a small
int opcode, register indices (``None`` read as ``r0``), immediate and
target, and one dispatch loop over local variables executes them for both
:meth:`Interpreter.step` and :meth:`Interpreter.run`.  Decoding folds away
everything the static instruction already decides: a write to ``r0`` (or to
no register) becomes a non-writing opcode, a missing direct target becomes a
raising one, and immediates are pre-masked to the word width.  Registers
always hold unsigned 64-bit values, so only ``DIV``, ``BLT`` and ``BGE``
need a signed view.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode, NUM_REGS
from repro.isa.program import Program

#: Word width for register arithmetic.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)


class DynInstr(NamedTuple):
    """One dynamic (architecturally executed) instruction.

    ``taken`` is meaningful only for conditional branches.  ``next_pc`` is
    the architecturally correct successor PC.  ``mem_addr`` is the data
    address touched by a load or store (None otherwise) so the cache model
    can replay it.
    """

    seq: int
    pc: int
    instr: Instruction
    next_pc: int
    taken: bool
    mem_addr: Optional[int]


class InterpreterError(Exception):
    """Raised on architecturally invalid execution (bad PC, missing target)."""


# Predecoded opcodes, most frequent first: the dispatch chain tests them in
# this order.  ``J``/``JR`` are JAL/JALR without a link write, ``NOP`` and
# ``LD_NOWRITE`` absorb writes to r0, and ``*_NO_TARGET`` raise when they
# would redirect.
(
    _ADDI, _BLT, _LD, _LI, _BNE, _BEQ, _J, _ANDI, _ADD, _XORI, _JR, _MUL,
    _SHR, _ST, _BGE, _SUB, _AND, _OR, _XOR, _SHL, _DIV, _JAL, _JALR, _NOP,
    _LD_NOWRITE, _HALT, _BRANCH_NO_TARGET, _JAL_NO_TARGET,
) = range(28)

_DIRECT = {
    Opcode.ADDI: _ADDI, Opcode.LI: _LI, Opcode.ANDI: _ANDI,
    Opcode.XORI: _XORI, Opcode.ADD: _ADD, Opcode.SUB: _SUB,
    Opcode.AND: _AND, Opcode.OR: _OR, Opcode.XOR: _XOR, Opcode.SHL: _SHL,
    Opcode.SHR: _SHR, Opcode.MUL: _MUL, Opcode.DIV: _DIV, Opcode.LD: _LD,
    Opcode.ST: _ST, Opcode.BEQ: _BEQ, Opcode.BNE: _BNE, Opcode.BLT: _BLT,
    Opcode.BGE: _BGE, Opcode.JAL: _JAL, Opcode.JALR: _JALR,
    Opcode.NOP: _NOP, Opcode.HALT: _HALT,
}

#: Register-writing opcodes and what they become when ``rd`` is r0/None.
_NO_WRITE = {
    _ADDI: _NOP, _LI: _NOP, _ANDI: _NOP, _XORI: _NOP, _ADD: _NOP,
    _SUB: _NOP, _AND: _NOP, _OR: _NOP, _XOR: _NOP, _SHL: _NOP, _SHR: _NOP,
    _MUL: _NOP, _DIV: _NOP, _LD: _LD_NOWRITE, _JAL: _J, _JALR: _JR,
}

#: Taken-conditions of the conditional branches on unsigned register
#: values; flipping the sign bit turns unsigned order into signed order.
_BRANCH_CONDITION = {
    _BEQ: operator.eq,
    _BNE: operator.ne,
    _BLT: lambda a, b: a ^ _SIGN_BIT < b ^ _SIGN_BIT,
    _BGE: lambda a, b: a ^ _SIGN_BIT >= b ^ _SIGN_BIT,
}

#: One predecoded slot: (opcode, rd, rs1, rs2, imm, target, instruction).
Decoded = Tuple[int, int, int, int, object, Optional[int], Instruction]


def _decode(instr: Instruction) -> Decoded:
    op = _DIRECT[instr.op]
    rd = instr.rd or 0
    imm: object = instr.imm & _WORD_MASK
    target = instr.target
    if rd == 0 and op in _NO_WRITE:
        op = _NO_WRITE[op]
    if target is None:
        if op in _BRANCH_CONDITION:
            op, imm = _BRANCH_NO_TARGET, _BRANCH_CONDITION[op]
        elif op in (_J, _JAL):
            op = _JAL_NO_TARGET
    return (op, rd, instr.rs1 or 0, instr.rs2 or 0, imm, target, instr)


def _predecode(program: Program) -> Dict[int, Decoded]:
    """Decoded slots keyed by PC; a PC outside the program has no slot."""
    return dict(enumerate(map(_decode, program.instructions)))


class Interpreter:
    """Executes a :class:`Program`, yielding :class:`DynInstr` records."""

    def __init__(self, program: Program):
        self.program = program
        self.regs = [0] * NUM_REGS
        self.memory = dict(program.data)
        self.pc = program.entry
        self.halted = False
        self._seq = 0
        self._code = _predecode(program)

    # ------------------------------------------------------------------
    def step(self) -> Optional[DynInstr]:
        """Execute one instruction; return its record, or None when halted."""
        for record in self.run(1):
            return record
        return None

    def run(self, max_instructions: int = 10_000_000) -> Iterator[DynInstr]:
        """Yield dynamic instructions until HALT or the instruction cap.

        This is the one dispatch loop (``step`` runs it for one
        instruction).  Architectural state is written back before every
        yield, and re-read after it if another call executed instructions
        meanwhile, so ``step`` and ``run`` calls interleave into one
        continuous stream.
        """
        if self.halted:
            return
        code = self._code
        regs = self.regs
        memory = self.memory
        load = memory.get
        new = tuple.__new__
        mask = _WORD_MASK
        sign = _SIGN_BIT
        pc = self.pc
        seq = self._seq
        for _ in range(max_instructions):
            try:
                op, rd, rs1, rs2, imm, target, instr = code[pc]
            except KeyError:
                raise InterpreterError(
                    f"{self.program.name}: PC {pc} outside program "
                    f"(len {len(self.program)})"
                ) from None
            next_pc = pc + 1
            taken = False
            mem_addr = None
            if op == _ADDI:
                regs[rd] = (regs[rs1] + imm) & mask
            elif op == _BLT:
                if regs[rs1] ^ sign < regs[rs2] ^ sign:
                    taken = True
                    next_pc = target
            elif op == _LD:
                mem_addr = (regs[rs1] + imm) & mask
                regs[rd] = load(mem_addr, 0) & mask
            elif op == _LI:
                regs[rd] = imm
            elif op == _BNE:
                if regs[rs1] != regs[rs2]:
                    taken = True
                    next_pc = target
            elif op == _BEQ:
                if regs[rs1] == regs[rs2]:
                    taken = True
                    next_pc = target
            elif op == _J:
                next_pc = target
            elif op == _ANDI:
                regs[rd] = regs[rs1] & imm
            elif op == _ADD:
                regs[rd] = (regs[rs1] + regs[rs2]) & mask
            elif op == _XORI:
                regs[rd] = regs[rs1] ^ imm
            elif op == _JR:
                next_pc = regs[rs1]
            elif op == _MUL:
                regs[rd] = (regs[rs1] * regs[rs2]) & mask
            elif op == _SHR:
                regs[rd] = regs[rs1] >> (regs[rs2] & 63)
            elif op == _ST:
                mem_addr = (regs[rs1] + imm) & mask
                memory[mem_addr] = regs[rs2]
            elif op == _BGE:
                if regs[rs1] ^ sign >= regs[rs2] ^ sign:
                    taken = True
                    next_pc = target
            elif op == _SUB:
                regs[rd] = (regs[rs1] - regs[rs2]) & mask
            elif op == _AND:
                regs[rd] = regs[rs1] & regs[rs2]
            elif op == _OR:
                regs[rd] = regs[rs1] | regs[rs2]
            elif op == _XOR:
                regs[rd] = regs[rs1] ^ regs[rs2]
            elif op == _SHL:
                regs[rd] = (regs[rs1] << (regs[rs2] & 63)) & mask
            elif op == _DIV:
                divisor = (regs[rs2] ^ sign) - sign
                if divisor:
                    regs[rd] = (((regs[rs1] ^ sign) - sign) // divisor) & mask
                else:
                    regs[rd] = 0
            elif op == _JAL:
                regs[rd] = next_pc
                next_pc = target
            elif op == _JALR:
                # Link first: with rd == rs1 the target is the new link.
                regs[rd] = next_pc
                next_pc = regs[rs1]
            elif op == _NOP:
                pass
            elif op == _LD_NOWRITE:
                mem_addr = (regs[rs1] + imm) & mask
            elif op == _HALT:
                self.halted = True
            elif op == _BRANCH_NO_TARGET:
                if imm(regs[rs1], regs[rs2]):
                    raise InterpreterError("conditional branch with no target")
            else:  # _JAL_NO_TARGET
                raise InterpreterError("JAL with no target")
            record = new(DynInstr, (seq, pc, instr, next_pc, taken, mem_addr))
            seq += 1
            self.pc = pc = next_pc
            self._seq = seq
            yield record
            if self._seq != seq:  # a step() ran in between
                if self.halted:
                    return
                pc = self.pc
                seq = self._seq
            elif op == _HALT:
                return


def run_program(program: Program, max_instructions: int = 10_000_000):
    """Convenience: fully execute ``program`` and return the dynamic trace."""
    return list(Interpreter(program).run(max_instructions))
