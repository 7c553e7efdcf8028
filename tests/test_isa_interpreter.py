"""Semantics tests for the tiny ISA interpreter."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Instruction, Opcode, Program, ProgramBuilder, RA, run_program
from repro.isa.interpreter import Interpreter, InterpreterError


def run_and_regs(build_fn):
    b = ProgramBuilder("t")
    build_fn(b)
    b.halt()
    interp = Interpreter(b.build())
    list(interp.run())
    return interp


class TestAlu:
    def test_add_sub(self):
        interp = run_and_regs(lambda b: b.li(1, 7).li(2, 3).add(3, 1, 2).sub(4, 1, 2))
        assert interp.regs[3] == 10
        assert interp.regs[4] == 4

    def test_logic(self):
        interp = run_and_regs(
            lambda b: b.li(1, 0b1100).li(2, 0b1010)
            .and_(3, 1, 2).or_(4, 1, 2).xor(5, 1, 2)
        )
        assert interp.regs[3] == 0b1000
        assert interp.regs[4] == 0b1110
        assert interp.regs[5] == 0b0110

    def test_shifts(self):
        interp = run_and_regs(lambda b: b.li(1, 5).li(2, 2).shl(3, 1, 2).shr(4, 1, 2))
        assert interp.regs[3] == 20
        assert interp.regs[4] == 1

    def test_mul_div(self):
        interp = run_and_regs(lambda b: b.li(1, 6).li(2, 7).mul(3, 1, 2).div(4, 3, 2))
        assert interp.regs[3] == 42
        assert interp.regs[4] == 6

    def test_div_by_zero_is_zero(self):
        interp = run_and_regs(lambda b: b.li(1, 5).li(2, 0).div(3, 1, 2))
        assert interp.regs[3] == 0

    def test_immediates(self):
        interp = run_and_regs(lambda b: b.li(1, 10).addi(2, 1, -3).andi(3, 1, 6).xori(4, 1, 3))
        assert interp.regs[2] == 7
        assert interp.regs[3] == 2
        assert interp.regs[4] == 9

    def test_r0_hardwired_zero(self):
        interp = run_and_regs(lambda b: b.li(0, 99).addi(1, 0, 5))
        assert interp.regs[0] == 0
        assert interp.regs[1] == 5

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_add_matches_python(self, x, y):
        interp = run_and_regs(lambda b: b.li(1, x).li(2, y).add(3, 1, 2))
        assert interp.regs[3] == (x + y) & ((1 << 64) - 1)


class TestMemory:
    def test_store_load(self):
        interp = run_and_regs(
            lambda b: b.li(1, 500).li(2, 42).st(2, 1, 0).ld(3, 1, 0)
        )
        assert interp.regs[3] == 42
        assert interp.memory[500] == 42

    def test_load_uninitialized_is_zero(self):
        interp = run_and_regs(lambda b: b.li(1, 777).ld(2, 1, 0))
        assert interp.regs[2] == 0

    def test_offset_addressing(self):
        interp = run_and_regs(
            lambda b: b.li(1, 100).li(2, 7).st(2, 1, 3).ld(3, 1, 3)
        )
        assert interp.memory[103] == 7
        assert interp.regs[3] == 7

    def test_initial_data(self):
        b = ProgramBuilder("t")
        b.data_word(50, 1234)
        b.li(1, 50).ld(2, 1, 0).halt()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[2] == 1234

    def test_mem_addr_recorded(self):
        b = ProgramBuilder("t")
        b.li(1, 60).ld(2, 1, 0).halt()
        trace = run_program(b.build())
        load = [r for r in trace if r.instr.op is Opcode.LD][0]
        assert load.mem_addr == 60


class TestControlFlow:
    def test_branch_taken_and_not(self):
        b = ProgramBuilder("t")
        b.li(1, 5).li(2, 5)
        b.beq(1, 2, "eq")
        b.li(3, 111)  # skipped
        b.label("eq")
        b.li(4, 222)
        b.halt()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[3] == 0
        assert interp.regs[4] == 222

    def test_loop_counts(self):
        b = ProgramBuilder("t")
        b.li(1, 0).li(2, 10)
        b.label("loop")
        b.addi(1, 1, 1)
        b.blt(1, 2, "loop")
        b.halt()
        interp = Interpreter(b.build())
        trace = list(interp.run())
        assert interp.regs[1] == 10
        branches = [r for r in trace if r.instr.is_cond_branch]
        assert len(branches) == 10
        assert sum(r.taken for r in branches) == 9

    def test_bge_and_bne(self):
        interp = run_and_regs(lambda b: b.li(1, 3).li(2, 3))
        b = ProgramBuilder("t")
        b.li(1, 3).li(2, 3)
        b.bge(1, 2, "a")
        b.halt()
        b.label("a")
        b.bne(1, 2, "b")
        b.li(5, 1)
        b.halt()
        b.label("b")
        b.li(5, 2)
        b.halt()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[5] == 1

    def test_call_ret(self):
        b = ProgramBuilder("t")
        b.call("fn")
        b.li(2, 2)
        b.halt()
        b.label("fn")
        b.li(1, 1)
        b.ret()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[1] == 1
        assert interp.regs[2] == 2

    def test_call_records_link(self):
        b = ProgramBuilder("t")
        b.call("fn")
        b.halt()
        b.label("fn")
        b.ret()
        trace = run_program(b.build())
        call = trace[0]
        assert call.instr.is_call
        assert call.next_pc == 2  # the fn label
        ret = trace[1]
        assert ret.instr.is_ret
        assert ret.next_pc == 1

    def test_indirect_jump(self):
        b = ProgramBuilder("t")
        b.li(1, 4)
        b.jalr(1)
        b.li(2, 111)  # skipped
        b.halt()
        b.li(2, 222)  # pc 4
        b.halt()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[2] == 222

    def test_negative_compare_signed(self):
        b = ProgramBuilder("t")
        b.li(1, -1).li(2, 1)
        b.blt(1, 2, "yes")
        b.li(3, 0)
        b.halt()
        b.label("yes")
        b.li(3, 1)
        b.halt()
        interp = Interpreter(b.build())
        list(interp.run())
        assert interp.regs[3] == 1


class TestTermination:
    def test_halt_stops(self):
        b = ProgramBuilder("t")
        b.halt()
        b.li(1, 5)
        trace = run_program(b.build())
        assert len(trace) == 1
        assert trace[0].instr.op is Opcode.HALT

    def test_pc_out_of_range_raises(self):
        b = ProgramBuilder("t")
        b.li(1, 1)  # runs off the end
        interp = Interpreter(b.build())
        interp.step()
        with pytest.raises(InterpreterError):
            interp.step()

    def test_instruction_cap(self):
        b = ProgramBuilder("t")
        b.label("spin")
        b.jump("spin")
        trace = list(Interpreter(b.build()).run(max_instructions=100))
        assert len(trace) == 100

    def test_seq_numbers_monotonic(self):
        b = ProgramBuilder("t")
        b.li(1, 1).li(2, 2).halt()
        trace = run_program(b.build())
        assert [r.seq for r in trace] == [0, 1, 2]


class TestInstructionProperties:
    def test_forward_distance(self):
        br = Instruction(Opcode.BEQ, rs1=1, rs2=2, target=10)
        assert br.forward_distance(7) == 3
        assert br.forward_distance(10) is None  # backward/zero
        assert Instruction(Opcode.ADD, rd=1).forward_distance(0) is None

    def test_kind_flags(self):
        assert Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0).is_cond_branch
        assert Instruction(Opcode.JAL, rd=RA, target=0).is_call
        assert Instruction(Opcode.JALR, rs1=RA).is_ret
        assert not Instruction(Opcode.JALR, rs1=3).is_ret
        assert Instruction(Opcode.JALR, rs1=3).is_indirect

    def test_latencies(self):
        assert Instruction(Opcode.ADD).latency == 1
        assert Instruction(Opcode.MUL).latency == 3
        assert Instruction(Opcode.DIV).latency == 12
        assert Instruction(Opcode.LD).latency == 2


class TestEdgeSemantics:
    """Corner cases the workload-level gates never reach."""

    def test_jalr_rd_equals_rs1_links_before_reading_target(self):
        b = ProgramBuilder("t")
        b.li(1, 4)
        b.jalr(1, rd=1)  # link (2) lands in r1 before r1 is read
        b.li(2, 111)
        b.halt()
        b.li(2, 222)  # pc 4: only a read-before-write ordering gets here
        b.halt()
        interp = Interpreter(b.build())
        trace = list(interp.run())
        assert trace[1].next_pc == 2
        assert interp.regs[1] == 2
        assert interp.regs[2] == 111

    def test_jal_without_target_raises(self):
        program = Program([Instruction(Opcode.JAL, rd=RA)])
        interp = Interpreter(program)
        with pytest.raises(InterpreterError, match="JAL with no target"):
            interp.step()
        assert interp.regs[RA] == 0  # no link written
        assert interp.pc == 0

    def test_taken_branch_without_target_raises(self):
        program = Program(
            [Instruction(Opcode.LI, rd=1, imm=1), Instruction(Opcode.BEQ, rs1=1, rs2=1)]
        )
        interp = Interpreter(program)
        interp.step()
        with pytest.raises(InterpreterError, match="conditional branch"):
            interp.step()
        assert interp.pc == 1

    def test_not_taken_branch_without_target_falls_through(self):
        program = Program(
            [
                Instruction(Opcode.LI, rd=1, imm=1),
                Instruction(Opcode.BNE, rs1=1, rs2=1),
                Instruction(Opcode.HALT),
            ]
        )
        trace = run_program(program)
        assert [r.pc for r in trace] == [0, 1, 2]
        assert trace[1].next_pc == 2 and not trace[1].taken

    @pytest.mark.parametrize(
        "amount, shl, shr",
        [
            (64, 5, 5),
            (66, 20, 1),
            (127, 1 << 63, 0),
            (-1, 1 << 63, 0),  # -1 & 63 == 63
        ],
    )
    def test_shift_amount_uses_low_six_bits(self, amount, shl, shr):
        interp = run_and_regs(
            lambda b: b.li(1, 5).li(2, amount).shl(3, 1, 2).shr(4, 1, 2)
        )
        assert interp.regs[3] == shl
        assert interp.regs[4] == shr

    def test_store_of_negative_register_is_unsigned(self):
        interp = run_and_regs(
            lambda b: b.li(1, 100).li(2, -5).st(2, 1, 0).ld(3, 1, 0)
        )
        assert interp.memory[100] == (1 << 64) - 5
        assert interp.regs[3] == (1 << 64) - 5

    def test_interleaved_step_and_run_share_one_sequence(self):
        b = ProgramBuilder("t")
        for value in range(8):
            b.li(1, value)
        b.halt()
        interp = Interpreter(b.build())
        seqs = [interp.step().seq, interp.step().seq]
        seqs += [r.seq for r in interp.run(2)]
        gen = interp.run()
        seqs.append(next(gen).seq)
        seqs.append(interp.step().seq)  # while a run() is suspended
        seqs += [r.seq for r in gen]
        assert seqs == list(range(9))
        assert interp.halted and interp.step() is None
        assert [r.pc for r in run_program(b.build())] == seqs

    def test_dyninstr_is_immutable(self):
        record = run_program(Program([Instruction(Opcode.HALT)]))[0]
        with pytest.raises(AttributeError):
            record.pc = 5
        with pytest.raises(AttributeError):
            record.taken = True
