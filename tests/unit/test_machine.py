"""Unit tests for the virtual machine (execution semantics)."""

import errno
import hashlib
import mmap
import os
import pathlib

import pytest

from repro.asmkit import AsmError, assemble
from repro.isa.registers import SP
from repro.quad.shadow import ADDR_MASK
from repro.vm import (ArithmeticFault, GuestFS, IllegalInstruction,
                      InstructionBudgetExceeded, Machine, MemoryFault,
                      O_RDONLY, O_WRONLY, VMError, run_program)
from repro.vm.layout import (DATA_BASE, HEAP_BASE, MAX_MEM_SIZE,
                             NULL_GUARD, index_to_pc)


def run_asm(src, fs=None, **kw):
    m = Machine(assemble(".text\n" + src), fs=fs)
    m.run(**kw)
    return m


def exit_value(src, fs=None, **kw):
    """Run assembly that ends with 'li a0,0 / ecall' using a1 as the code."""
    return run_asm(src, fs=fs, **kw).exit_code


HALT = "\nli a0, 0\nmv a1, t6\necall\n"  # exit with code = t6


class TestIntegerALU:
    @pytest.mark.parametrize("body,expected", [
        ("li t0, 7\nli t1, 5\nadd t6, t0, t1", 12),
        ("li t0, 7\nli t1, 5\nsub t6, t0, t1", 2),
        ("li t0, -7\nli t1, 5\nmul t6, t0, t1", -35),
        ("li t0, 7\nli t1, 2\ndiv t6, t0, t1", 3),
        ("li t0, -7\nli t1, 2\ndiv t6, t0, t1", -3),   # trunc toward zero
        ("li t0, -7\nli t1, 2\nrem t6, t0, t1", -1),   # sign of dividend
        ("li t0, 7\nli t1, -2\nrem t6, t0, t1", 1),
        ("li t0, 12\nli t1, 10\nand t6, t0, t1", 8),
        ("li t0, 12\nli t1, 10\nor t6, t0, t1", 14),
        ("li t0, 12\nli t1, 10\nxor t6, t0, t1", 6),
        ("li t0, 1\nli t1, 4\nsll t6, t0, t1", 16),
        ("li t0, 16\nli t1, 2\nsrl t6, t0, t1", 4),
        ("li t0, -16\nli t1, 2\nsra t6, t0, t1", -4),
        ("li t0, 3\nli t1, 5\nslt t6, t0, t1", 1),
        ("li t0, 5\nli t1, 5\nsle t6, t0, t1", 1),
        ("li t0, 5\nli t1, 5\nseq t6, t0, t1", 1),
        ("li t0, 5\nli t1, 4\nsne t6, t0, t1", 1),
        ("li t0, 5\naddi t6, t0, -3", 2),
        ("li t0, 5\nmuli t6, t0, 7", 35),
        ("li t0, 12\nandi t6, t0, 10", 8),
        ("li t0, 1\nslli t6, t0, 6", 64),
        ("li t0, 64\nsrli t6, t0, 3", 8),
        ("li t0, -64\nsrai t6, t0, 3", -8),
        ("li t0, 3\nslti t6, t0, 4", 1),
        ("li t0, 5\nmv t6, t0", 5),
        ("li t0, 5\nneg t6, t0", -5),
        ("li t0, 0\nnot t6, t0", -1),
    ])
    def test_alu(self, body, expected):
        assert exit_value(body + HALT) == expected

    def test_wraparound_add(self):
        v = exit_value(f"li t0, {2**63 - 1}\naddi t6, t0, 1" + HALT)
        assert v == -(2**63)

    def test_wraparound_mul(self):
        v = exit_value(f"li t0, {2**62}\nli t1, 4\nmul t6, t0, t1" + HALT)
        assert v == 0

    def test_srl_of_negative_is_logical(self):
        v = exit_value("li t0, -1\nli t1, 63\nsrl t6, t0, t1" + HALT)
        assert v == 1

    def test_division_by_zero_faults(self):
        with pytest.raises(ArithmeticFault):
            run_asm("li t0, 1\nli t1, 0\ndiv t2, t0, t1\nhalt\n")

    def test_x0_is_immutable(self):
        v = exit_value("li t0, 5\nadd zero, t0, t0\nmv t6, zero" + HALT)
        assert v == 0


class TestLiImmediates:
    """``li`` takes any 64-bit pattern: ``[2**63, 2**64)`` wraps to the
    negative int64 it encodes, on both tiers."""

    @pytest.mark.parametrize("jit", [True, False])
    @pytest.mark.parametrize("imm,value", [
        (2**64 - 1, -1), (2**63, -(2**63)), (2**63 - 1, 2**63 - 1),
        (-(2**63), -(2**63))])
    def test_64_bit_patterns_store_and_load(self, jit, imm, value):
        m = Machine(assemble(f"""
            .text
            li t0, {DATA_BASE}
            li t1, {imm}
            sd t1, 0(t0)
            ld t6, 0(t0)
            li a0, 0
            mv a1, t6
            ecall
        """), jit=jit)
        assert m.run() == value
        assert m.read_i64(DATA_BASE) == value

    @pytest.mark.parametrize("imm", [2**64, -(2**63) - 1])
    def test_out_of_range_rejected_naming_the_line(self, imm):
        with pytest.raises(AsmError, match="line 3: immediate"):
            assemble(f".text\nnop\nli t1, {imm}\nhalt\n")


class TestFloat:
    def float_result(self, body):
        """Run body leaving the value in fa0; return it from machine state."""
        m = run_asm(body + "\nhalt\n")
        return m.f[0]

    def test_arith(self):
        assert self.float_result("fli fa1, 2.5\nfli fa2, 4.0\n"
                                 "fadd fa0, fa1, fa2") == 6.5
        assert self.float_result("fli fa1, 2.5\nfli fa2, 4.0\n"
                                 "fmul fa0, fa1, fa2") == 10.0
        assert self.float_result("fli fa1, 1.0\nfli fa2, 4.0\n"
                                 "fdiv fa0, fa1, fa2") == 0.25
        assert self.float_result("fli fa1, -2.0\nfabs fa0, fa1") == 2.0
        assert self.float_result("fli fa1, 9.0\nfsqrt fa0, fa1") == 3.0
        assert self.float_result("fli fa1, 0.0\nfsin fa0, fa1") == 0.0
        assert self.float_result("fli fa1, 0.0\nfcos fa0, fa1") == 1.0
        assert self.float_result("fli fa1, 3.0\nfli fa2, 7.0\n"
                                 "fmin fa0, fa1, fa2") == 3.0

    def test_div_by_zero_gives_inf(self):
        assert self.float_result("fli fa1, 1.0\nfli fa2, 0.0\n"
                                 "fdiv fa0, fa1, fa2") == float("inf")

    def test_conversions(self):
        assert self.float_result("li t0, -3\nfcvt.f.i fa0, t0") == -3.0
        v = exit_value("fli fa1, -3.7\nfcvt.i.f t6, fa1" + HALT)
        assert v == -3  # trunc toward zero

    def test_compare(self):
        v = exit_value("fli fa1, 1.0\nfli fa2, 2.0\nflt t6, fa1, fa2" + HALT)
        assert v == 1


class TestMemory:
    def test_load_store_sizes(self):
        m = run_asm(f"""
            li t0, {DATA_BASE}
            li t1, -2
            sd t1, 0(t0)
            sw t1, 8(t0)
            sh t1, 12(t0)
            sb t1, 14(t0)
            ld t2, 0(t0)
            lw t3, 8(t0)
            lwu t4, 8(t0)
            lh t5, 12(t0)
            lhu s0, 12(t0)
            lb s1, 14(t0)
            lbu s2, 14(t0)
            halt
        """)
        x = m.x
        t = lambda k: x[13 + k]      # t0.. base
        assert t(2) == -2
        assert t(3) == -2
        assert t(4) == 0xFFFFFFFE
        assert t(5) == -2
        assert x[23] == 0xFFFE       # s0
        assert x[24] == -2           # s1
        assert x[25] == 0xFE         # s2

    def test_float_load_store(self):
        m = run_asm(f"""
            li t0, {DATA_BASE}
            fli fa1, 6.25
            fsd fa1, 0(t0)
            fld fa0, 0(t0)
            halt
        """)
        assert m.f[0] == 6.25

    def test_null_page_faults(self):
        with pytest.raises(MemoryFault):
            run_asm("li t0, 0\nld t1, 0(t0)\nhalt\n")

    def test_out_of_range_faults(self):
        with pytest.raises(MemoryFault):
            run_asm("li t0, -8\nli t1, 1\nsd t1, 0(t0)\nhalt\n")

    def test_prefetch_has_no_effect(self):
        m = run_asm(f"li t0, {DATA_BASE}\nprefetch t1, 0(t0)\nhalt\n")
        assert m.x[14] == 0

    def test_predicated_store_skipped(self):
        m = run_asm(f"""
            li t0, {DATA_BASE}
            li t1, 99
            li t2, 0
            sd t1, 0(t0) ?t2
            ld t3, 0(t0)
            halt
        """)
        assert m.x[16] == 0  # t3: store was squashed

    def test_predicated_store_taken(self):
        m = run_asm(f"""
            li t0, {DATA_BASE}
            li t1, 99
            li t2, 1
            sd t1, 0(t0) ?t2
            ld t3, 0(t0)
            halt
        """)
        assert m.x[16] == 99


class TestControlFlow:
    def test_loop_sum(self):
        # sum 1..10 = 55
        v = exit_value("""
            li t0, 10
            li t6, 0
        loop:
            beqz t0, out
            add t6, t6, t0
            addi t0, t0, -1
            j loop
        out:
        """ + HALT)
        assert v == 55

    def test_call_ret(self):
        v = exit_value("""
            j start
        double:
            add a0, a0, a0
            ret
        start:
            addi sp, sp, -8
            sd ra, 0(sp)
            li a0, 21
            call double
            ld ra, 0(sp)
            addi sp, sp, 8
            mv t6, a0
        """ + HALT)
        assert v == 42

    def test_jalr_indirect(self):
        v = exit_value("""
            j start
        target:
            li t6, 77
            ret
        start:
            addi sp, sp, -8
            sd ra, 0(sp)
            la t0, target
            jalr ra, t0, 0
            ld ra, 0(sp)
            addi sp, sp, 8
        """ + HALT)
        assert v == 77

    def test_ret_to_garbage_faults(self):
        with pytest.raises(IllegalInstruction):
            run_asm("li ra, 0\nret\n")

    def test_branch_out_of_segment_rejected_at_compile(self):
        with pytest.raises(IllegalInstruction):
            run_asm("j 0x999000\n")

    def test_budget_exceeded(self):
        with pytest.raises(InstructionBudgetExceeded):
            run_asm("spin: j spin\n", max_instructions=1000)

    def test_halt_sets_exit(self):
        m = run_asm("halt\n")
        assert m.exit_code == 0 and m.halted

    def test_run_after_halt_rejected(self):
        m = run_asm("halt\n")
        with pytest.raises(VMError):
            m.run()


class TestSyscalls:
    def test_exit_code(self):
        m = run_asm("li a0, 0\nli a1, 3\necall\n")
        assert m.exit_code == 3

    def test_print_int_and_str(self):
        m = Machine(assemble("""
            .data
        msg: .asciz " ok\\n"
            .text
            li a0, 6
            li a1, -12
            ecall
            li a0, 8
            la a1, msg
            ecall
            halt
        """))
        m.run()
        assert m.stdout_text() == "-12 ok\n"

    def test_file_roundtrip(self):
        fs = GuestFS()
        fs.put("in.dat", b"abcdef")
        m = Machine(assemble(f"""
            .data
        inname:  .asciz "in.dat"
        outname: .asciz "out.dat"
        buf:     .space 16
            .text
            li a0, 1            # open(in, rd)
            la a1, inname
            li a2, {O_RDONLY}
            ecall
            mv s0, a0
            li a0, 3            # read(fd, buf, 4)
            mv a1, s0
            la a2, buf
            li a3, 4
            ecall
            li a0, 2            # close
            mv a1, s0
            ecall
            li a0, 1            # open(out, wr)
            la a1, outname
            li a2, {O_WRONLY}
            ecall
            mv s1, a0
            li a0, 4            # write(fd, buf, 4)
            mv a1, s1
            la a2, buf
            li a3, 4
            ecall
            li a0, 2
            mv a1, s1
            ecall
            halt
        """), fs=fs)
        m.run()
        assert fs.get("out.dat") == b"abcd"
        assert fs.open_count() == 0

    def test_sbrk(self):
        m = run_asm("li a0, 5\nli a1, 4096\necall\nmv t6, a0\nhalt\n")
        assert m.x[19] == HEAP_BASE  # t6 holds the old break
        assert m.brk == HEAP_BASE + 4096

    def test_clock_returns_icount(self):
        m = run_asm("li a0, 9\necall\nmv t6, a0\nhalt\n")
        assert 0 < m.x[19] <= m.icount

    def test_stdout_write_syscall(self):
        m = Machine(assemble("""
            .data
        msg: .asciz "hey"
            .text
            li a0, 4
            li a1, 1
            la a2, msg
            li a3, 3
            ecall
            halt
        """))
        m.run()
        assert m.stdout_text() == "hey"

    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "nojit"])
    @pytest.mark.parametrize("syscall", [8, 1], ids=["print_str", "open"])
    @pytest.mark.parametrize("addr", [0, 16, NULL_GUARD - 1, -8, 32 << 20,
                                      (32 << 20) + 5])
    def test_string_outside_memory_faults_like_a_load(self, addr, syscall,
                                                      jit):
        """``print_str`` and ``open`` read their string as a load reads
        memory: a start that is negative, in the null page or at or past
        ``mem_size`` is the load's ``MemoryFault``, at the ``ecall``'s pc
        and icount, and prints nothing."""
        def fault(third: str) -> tuple:
            m = Machine(assemble(f".text\nli a0, {syscall}\n"
                                 f"li a1, {addr}\n{third}\nhalt\n"),
                        mem_size=32 << 20, jit=jit)
            with pytest.raises(MemoryFault) as err:
                m.run()
            return (str(err.value), err.value.pc, err.value.icount,
                    bytes(m.stdout))

        string = fault("ecall")
        assert string == fault("lb t1, 0(a1)")
        assert string[1:] == (index_to_pc(2), 3, b"")

    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "nojit"])
    def test_syscall_error_names_the_ecall(self, jit):
        m = Machine(assemble(".text\nnop\nnop\nli a0, 99\necall\nhalt\n"),
                    jit=jit)
        with pytest.raises(VMError, match="unknown syscall 99") as err:
            m.run()
        assert (err.value.pc, err.value.icount) == (index_to_pc(3), 4)


class TestMachineState:
    def test_initial_sp_near_top(self):
        m = Machine(assemble(".text\nhalt\n"))
        assert m.x[SP] == m.mem_size - 64

    def test_data_segment_loaded(self):
        m = Machine(assemble(".data\nv: .i64 123\n.text\nhalt\n"))
        assert m.read_i64(DATA_BASE) == 123

    def test_host_accessors_roundtrip(self):
        m = Machine(assemble(".text\nhalt\n"))
        m.write_i64(DATA_BASE, -5)
        assert m.read_i64(DATA_BASE) == -5
        m.write_f64(DATA_BASE, 2.25)
        assert m.read_f64(DATA_BASE) == 2.25
        m.write_bytes(DATA_BASE, b"xyz")
        assert m.read_bytes(DATA_BASE, 3) == b"xyz"

    def test_host_accessor_bounds(self):
        m = Machine(assemble(".text\nhalt\n"))
        with pytest.raises(MemoryFault):
            m.read_i64(10)

    def test_icount_counts_all_instructions(self):
        m = run_asm("nop\nnop\nnop\nhalt\n")
        assert m.icount == 4

    def test_code_cache_compiles_once(self):
        m = run_asm("""
            li t0, 100
        loop:
            addi t0, t0, -1
            bnez t0, loop
            halt
        """)
        assert m.compile_count == 4
        assert m.icount == 1 + 2 * 100 + 1


def _rss_bytes() -> int:
    statm = pathlib.Path("/proc/self/statm").read_text()
    return int(statm.split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestDemandZeroMemory:
    """Guest memory is an anonymous private mapping the OS zero-fills a
    page at a time on first touch."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm (Linux)")
    def test_a_machine_costs_the_pages_its_guest_touches(self):
        before = _rss_bytes()
        m = Machine(assemble("""
            .data
        buf: .space 64
            .text
            la t0, buf
            li t1, 7
            sd t1, 8(t0)
            addi sp, sp, -16
            sd t1, 0(sp)
            li a0, 5            # sbrk(4096)
            li a1, 4096
            ecall
            sd t1, 0(a0)
            halt
        """), mem_size=64 << 20)
        m.run()
        assert m.read_i64(HEAP_BASE) == 7
        assert _rss_bytes() - before < 16 << 20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_childs_writes_never_reach_the_parent(self):
        m = Machine(assemble("""
            .data
        v:  .i64 7
            .text
            la t0, v
            li t1, 99
            sd t1, 0(t0)
            halt
        """))
        m.write_bytes(HEAP_BASE, b"parent")
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                inherited = (m.read_i64(DATA_BASE) == 7
                             and m.read_bytes(HEAP_BASE, 6) == b"parent")
                m.run()
                m.write_bytes(HEAP_BASE, b"child!")
                code = 0 if inherited and m.read_i64(DATA_BASE) == 99 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert m.read_i64(DATA_BASE) == 7
        assert m.read_bytes(HEAP_BASE, 6) == b"parent"
        assert not m.halted
        m.run()
        assert m.read_i64(DATA_BASE) == 99

    def test_mem_size_bounded_by_the_quad_address_field(self):
        prog = assemble(".text\nhalt\n")
        with pytest.raises(ValueError, match="mem_size"):
            Machine(prog, mem_size=MAX_MEM_SIZE + 1)
        assert MAX_MEM_SIZE == ADDR_MASK + 1 == 2**37

    def test_refused_mapping_is_a_memory_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refuse)
        with pytest.raises(MemoryError, match="guest memory"):
            Machine(assemble(".text\nhalt\n"))

    def test_memory_never_resizes(self):
        m = Machine(assemble(".text\nhalt\n"))
        with pytest.raises(IndexError):
            m.mem[DATA_BASE:DATA_BASE + 4] = b"ab"
        assert len(m.mem) == m.mem_size
        assert m.read_bytes(DATA_BASE, 4) == bytes(4)

    @staticmethod
    def _edge_syscalls(jit: bool) -> tuple:
        """write, read and read_cstring on buffers that end at
        ``mem_size``; the last one finds no NUL before the end."""
        fs = GuestFS()
        fs.put("in.dat", b"abcdef")
        m = Machine(assemble(f"""
            .data
        name: .asciz "in.dat"
            .text
            li s0, {32 << 20}
            li t0, 0x216968     # "hi!" and a NUL in the last 4 bytes
            sw t0, -4(s0)
            li a0, 8            # print_str(end - 4)
            addi a1, s0, -4
            ecall
            li a0, 4            # write(stdout, end - 4, 4)
            li a1, 1
            addi a2, s0, -4
            li a3, 4
            ecall
            li a0, 1            # open(in.dat)
            la a1, name
            li a2, {O_RDONLY}
            ecall
            mv a1, a0
            li a0, 3            # read(fd, end - 6, 6)
            addi a2, s0, -6
            li a3, 6
            ecall
            li a0, 4            # write(stdout, end - 6, 6)
            li a1, 1
            addi a2, s0, -6
            li a3, 6
            ecall
            li a0, 8            # print_str(end - 2): unterminated
            addi a1, s0, -2
            ecall
            halt
        """), fs=fs, mem_size=32 << 20, jit=jit)
        with pytest.raises(VMError) as err:
            m.run()
        return (type(err.value).__name__, err.value.pc, err.value.icount,
                bytes(m.stdout), hashlib.sha256(m.mem).digest())

    def test_syscalls_on_buffers_ending_at_mem_size_agree(self):
        fused = self._edge_syscalls(jit=True)
        assert fused == self._edge_syscalls(jit=False)
        assert fused[0] == "SyscallError"
        assert fused[3] == b"hi!hi!\0abcdef"
