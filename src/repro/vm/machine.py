"""The virtual machine: a closure-compiling interpreter for the repro ISA.

Executing guest code goes through a *code cache*: the first time a program
counter is reached, the instruction is compiled to a Python closure and the
closure is stored in ``self.code``.  Subsequent executions dispatch straight
to the closure.  This mirrors Pin's JIT + code-cache organisation (paper
§IV-B) and is also what makes instrumentation cheap to express: a registered
``instrument_hook`` gets to wrap the freshly compiled closure with analysis
calls exactly once per *static* instruction.

Contract for ``instrument_hook(index, ins, base_fn) -> fn``:

* ``base_fn`` implements the bare instruction, **without** the predication
  guard; the hook (the Pin engine) is responsible for honouring
  ``ins.pred`` — this is what lets it implement Pin's
  ``INS_InsertPredicatedCall`` semantics (analysis skipped when the guard is
  false).  When no hook is installed the machine applies the guard itself.
* closures take the current instruction index and return the next one;
  returning ``-1`` halts the machine.

On top of the per-instruction tier sits the **superblock** tier
(:mod:`repro.vm.superblock`, enabled by default via ``jit=True``):
straight-line runs are fused into one generated function per block, with one
dispatch and one ``icount`` update per block.  In fused mode the cached
functions *advance ``icount`` themselves*; the run loop only dispatches.
The per-instruction tier remains in use (a) when ``jit=False``, (b) when a
raw ``instrument_hook`` is installed without a ``block_instrumenter`` that
can describe its analysis needs for inlining, and (c) for the exact-budget
tail, where the remaining allowance is smaller than the next block.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

from ..isa import opcodes as oc
from ..isa.instruction import NO_PRED, Instr
from ..isa.registers import RA, SP
from .errors import (ArithmeticFault, IllegalInstruction,
                     InstructionBudgetExceeded, MemoryFault, VMError)
from .filesystem import GuestFS
from .layout import (CODE_BASE, DATA_BASE, DEFAULT_MEM_SIZE, HEAP_BASE,
                     HEAP_STACK_GUARD, NULL_GUARD, index_to_pc)
from .program import Program
from .syscalls import SyscallHandler

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

StepFn = Callable[[int], int]

_unpack_f64 = struct.Struct("<d").unpack_from
_pack_f64 = struct.Struct("<d").pack_into


def _wrap(v: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return ((v - _I64_MIN) & _MASK64) + _I64_MIN


class Machine:
    """One guest machine instance executing a :class:`Program`."""

    __slots__ = (
        "program", "instrs", "x", "f", "mem", "mem_size", "fs", "stdout",
        "code", "pc_index", "icount", "halted", "exit_code", "brk",
        "syscall", "instrument_hook", "compile_count", "jit",
        "block_instrumenter", "code_len", "_compiled", "_tail_cache",
    )

    def __init__(self, program: Program, *, mem_size: int = DEFAULT_MEM_SIZE,
                 fs: GuestFS | None = None, jit: bool = True):
        if mem_size < HEAP_BASE + (1 << 20):
            raise ValueError("mem_size too small for the standard layout")
        self.program = program
        self.instrs = program.instrs
        self.x = [0] * 32
        self.f = [0.0] * 32
        self.mem = bytearray(mem_size)
        self.mem_size = mem_size
        data_end = DATA_BASE + len(program.data)
        if data_end > HEAP_BASE:
            raise ValueError("data segment overflows into the heap")
        self.mem[DATA_BASE:data_end] = program.data
        self.fs = fs if fs is not None else GuestFS()
        self.stdout = bytearray()
        self.code: list[StepFn | None] = [None] * len(program.instrs)
        self.pc_index = program.entry
        self.icount = 0
        self.halted = False
        self.exit_code: int | None = None
        self.brk = HEAP_BASE
        self.syscall = SyscallHandler(self)
        self.instrument_hook: Callable[[int, Instr, StepFn], StepFn] | None = None
        self.compile_count = 0
        self.jit = jit
        #: Optional block-plan provider (the Pin engine) consulted by the
        #: superblock compiler; see :mod:`repro.vm.superblock`.
        self.block_instrumenter = None
        #: Per-head-index fused-block lengths (0 = not a materialized head).
        self.code_len = [0] * len(program.instrs)
        # compile_count counts *distinct static instructions* compiled,
        # regardless of tier (and of block overlap), so it stays comparable
        # between fused and unfused runs.
        self._compiled = bytearray(len(program.instrs))
        self._tail_cache: dict[int, StepFn] = {}
        # ABI entry state: sp 16-byte aligned just below the stack top.
        self.x[SP] = mem_size - 64

    # ------------------------------------------------------------------ run
    def run(self, max_instructions: int | None = None) -> int:
        """Execute until the guest exits.  Returns the guest exit code.

        ``max_instructions`` bounds the run *exactly*: at most that many
        instructions retire, and :class:`InstructionBudgetExceeded` is raised
        before the first instruction past the bound would execute.  A budget
        of 0 therefore raises immediately; a negative budget is a
        ``ValueError``.
        """
        if self.halted:
            raise VMError("machine already halted")
        if max_instructions is not None and max_instructions < 0:
            raise ValueError("max_instructions must be >= 0")
        # Fused (superblock) execution is used whenever it can preserve
        # semantics: always for bare runs, and for instrumented runs when the
        # instrumenter exposes a block plan.  A raw instrument_hook without a
        # plan provider needs per-instruction dispatch.
        fused = self.jit and (self.instrument_hook is None
                              or self.block_instrumenter is not None)
        code = self.code
        pc = self.pc_index
        icount = self.icount
        limit = (icount + max_instructions
                 if max_instructions is not None else None)
        try:
            if fused and limit is None:
                while pc >= 0:
                    fn = code[pc]
                    if fn is None:
                        fn = self._materialize_block(pc)
                    pc = fn(pc)
            elif fused:
                code_len = self.code_len
                while pc >= 0:
                    fn = code[pc]
                    if fn is None:
                        fn = self._materialize_block(pc)
                    if self.icount + code_len[pc] > limit:
                        pc = self._run_tail(pc, limit)
                        if pc >= 0:
                            raise InstructionBudgetExceeded(
                                f"exceeded budget of {max_instructions} "
                                "instructions",
                                pc=index_to_pc(pc), icount=self.icount)
                        continue
                    pc = fn(pc)
            elif limit is None:
                while pc >= 0:
                    fn = code[pc]
                    if fn is None:
                        fn = self._materialize(pc)
                    self.icount = icount = icount + 1
                    pc = fn(pc)
            else:
                while pc >= 0:
                    if icount >= limit:
                        raise InstructionBudgetExceeded(
                            f"exceeded budget of {max_instructions} "
                            "instructions",
                            pc=index_to_pc(pc), icount=icount)
                    fn = code[pc]
                    if fn is None:
                        fn = self._materialize(pc)
                    self.icount = icount = icount + 1
                    pc = fn(pc)
        except VMError as err:
            self.halted = True
            self.pc_index = pc
            if err.icount is None:
                err.icount = self.icount
            raise
        except IndexError as err:
            self.halted = True
            raise IllegalInstruction(
                f"jump outside code segment ({err})",
                pc=index_to_pc(pc), icount=self.icount) from err
        self.halted = True
        self.pc_index = pc
        return self.exit_code if self.exit_code is not None else 0

    def _run_tail(self, pc: int, limit: int) -> int:
        """Per-instruction execution for the end of a budgeted fused run.

        Entered when the next superblock could overrun the budget; steps
        single instructions (through the classic tier, so instrumentation
        still applies) until the guest halts or the budget is spent.
        Returns the next pc — negative if the guest halted in time.
        """
        cache = self._tail_cache
        while pc >= 0 and self.icount < limit:
            fn = cache.get(pc)
            if fn is None:
                fn = self._compose_step(pc)
                cache[pc] = fn
                self._mark_compiled(pc, pc + 1)
            self.icount += 1
            pc = fn(pc)
        return pc

    # ----------------------------------------------------------- utilities
    def pc_byte(self) -> int:
        """The current program counter as a byte address."""
        return index_to_pc(self.pc_index)

    def stdout_text(self) -> str:
        return self.stdout.decode("latin-1")

    def check_range(self, addr: int, size: int) -> None:
        """Fault unless ``[addr, addr+size)`` is a valid data range."""
        if addr < NULL_GUARD or addr + size > self.mem_size or size < 0:
            raise MemoryFault(f"bad access [{addr:#x}, +{size})",
                              pc=self.pc_byte(), icount=self.icount)

    def sbrk(self, n: int) -> int:
        """Grow (or query, n=0) the heap break.  Returns old break or -1."""
        old = self.brk
        new = old + n
        if new < HEAP_BASE or new > self.x[SP] - HEAP_STACK_GUARD:
            return -1
        self.brk = new
        return old

    def read_i64(self, addr: int) -> int:
        """Host-side typed read (testing/inspection)."""
        self.check_range(addr, 8)
        return int.from_bytes(self.mem[addr:addr + 8], "little", signed=True)

    def write_i64(self, addr: int, value: int) -> None:
        self.check_range(addr, 8)
        self.mem[addr:addr + 8] = (value & _MASK64).to_bytes(8, "little")

    def read_f64(self, addr: int) -> float:
        self.check_range(addr, 8)
        return _unpack_f64(self.mem, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        self.check_range(addr, 8)
        _pack_f64(self.mem, addr, value)

    def read_bytes(self, addr: int, size: int) -> bytes:
        self.check_range(addr, size)
        return bytes(self.mem[addr:addr + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        self.check_range(addr, len(data))
        self.mem[addr:addr + len(data)] = data

    # ------------------------------------------------------- compilation
    def _materialize(self, index: int) -> StepFn:
        fn = self._compose_step(index)
        self.code[index] = fn
        self._mark_compiled(index, index + 1)
        return fn

    def _materialize_block(self, index: int) -> StepFn:
        from .superblock import build_block
        fn, indices = build_block(self, index)
        self.code[index] = fn
        # traces follow jumps, so their instructions need not be contiguous;
        # code_len is the worst-case retire count used by the budget check
        self.code_len[index] = len(indices)
        comp = self._compiled
        fresh = 0
        for j in indices:
            if not comp[j]:
                comp[j] = 1
                fresh += 1
        self.compile_count += fresh
        return fn

    def _mark_compiled(self, lo: int, hi: int) -> None:
        comp = self._compiled
        fresh = 0
        for j in range(lo, hi):
            if not comp[j]:
                comp[j] = 1
                fresh += 1
        self.compile_count += fresh

    def _compose_step(self, index: int) -> StepFn:
        """Per-instruction tier: bare closure + hook or predication guard."""
        ins = self.instrs[index]
        base = self._compile_instr(index, ins)
        hook = self.instrument_hook
        if hook is not None:
            return hook(index, ins, base)
        if ins.pred != NO_PRED:
            x = self.x
            pred = ins.pred
            nxt = index + 1

            def fn(pc, _base=base, _x=x, _pred=pred, _nxt=nxt):
                return _base(pc) if _x[_pred] else _nxt
            return fn
        return base

    def _compile_instr(self, i: int, ins: Instr) -> StepFn:
        """Compile one instruction to a closure (no predication guard)."""
        op = ins.op
        x, f, mem = self.x, self.f, self.mem
        rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm
        nxt = i + 1
        memsz = self.mem_size
        W = _wrap

        def fault(addr: int, size: int) -> MemoryFault:
            return MemoryFault(f"bad access [{addr:#x}, +{size})",
                               pc=index_to_pc(i))

        # --- integer register-register ALU -------------------------------
        if op == oc.ADD:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, W(x[rs1] + x[rs2])), nxt)[1]
        if op == oc.SUB:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, W(x[rs1] - x[rs2])), nxt)[1]
        if op == oc.MUL:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, W(x[rs1] * x[rs2])), nxt)[1]
        if op in (oc.DIV, oc.REM):
            is_div = op == oc.DIV

            def step(pc):
                a, b = x[rs1], x[rs2]
                if b == 0:
                    raise ArithmeticFault("division by zero",
                                          pc=index_to_pc(i))
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                if rd:
                    x[rd] = W(q) if is_div else W(a - b * q)
                return nxt
            return step
        if op == oc.AND:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] & x[rs2]), nxt)[1]
        if op == oc.OR:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] | x[rs2]), nxt)[1]
        if op == oc.XOR:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] ^ x[rs2]), nxt)[1]
        if op == oc.SLL:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, W(x[rs1] << (x[rs2] & 63))), nxt)[1]
        if op == oc.SRL:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, W((x[rs1] & _MASK64) >> (x[rs2] & 63))),
                nxt)[1]
        if op == oc.SRA:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, x[rs1] >> (x[rs2] & 63)), nxt)[1]
        if op == oc.SLT:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if x[rs1] < x[rs2] else 0), nxt)[1]
        if op == oc.SLE:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if x[rs1] <= x[rs2] else 0), nxt)[1]
        if op == oc.SEQ:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if x[rs1] == x[rs2] else 0), nxt)[1]
        if op == oc.SNE:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if x[rs1] != x[rs2] else 0), nxt)[1]

        # --- integer register-immediate ALU -------------------------------
        if op == oc.ADDI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, W(x[rs1] + imm)), nxt)[1]
        if op == oc.MULI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, W(x[rs1] * imm)), nxt)[1]
        if op == oc.ANDI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] & imm), nxt)[1]
        if op == oc.ORI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] | imm), nxt)[1]
        if op == oc.XORI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, x[rs1] ^ imm), nxt)[1]
        if op == oc.SLLI:
            if rd == 0:
                return lambda pc: nxt
            sh = imm & 63
            return lambda pc: (x.__setitem__(rd, W(x[rs1] << sh)), nxt)[1]
        if op == oc.SRLI:
            if rd == 0:
                return lambda pc: nxt
            sh = imm & 63
            return lambda pc: (
                x.__setitem__(rd, W((x[rs1] & _MASK64) >> sh)), nxt)[1]
        if op == oc.SRAI:
            if rd == 0:
                return lambda pc: nxt
            sh = imm & 63
            return lambda pc: (x.__setitem__(rd, x[rs1] >> sh), nxt)[1]
        if op == oc.SLTI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if x[rs1] < imm else 0), nxt)[1]
        if op == oc.LI:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (x.__setitem__(rd, imm), nxt)[1]

        # --- floating point ------------------------------------------------
        if op == oc.FADD:
            return lambda pc: (f.__setitem__(rd, f[rs1] + f[rs2]), nxt)[1]
        if op == oc.FSUB:
            return lambda pc: (f.__setitem__(rd, f[rs1] - f[rs2]), nxt)[1]
        if op == oc.FMUL:
            return lambda pc: (f.__setitem__(rd, f[rs1] * f[rs2]), nxt)[1]
        if op == oc.FDIV:
            def step(pc):
                b = f[rs2]
                if b == 0.0:
                    f[rd] = math.inf if f[rs1] > 0 else (
                        -math.inf if f[rs1] < 0 else math.nan)
                else:
                    f[rd] = f[rs1] / b
                return nxt
            return step
        if op == oc.FMIN:
            return lambda pc: (f.__setitem__(rd, min(f[rs1], f[rs2])), nxt)[1]
        if op == oc.FMAX:
            return lambda pc: (f.__setitem__(rd, max(f[rs1], f[rs2])), nxt)[1]
        if op == oc.FNEG:
            return lambda pc: (f.__setitem__(rd, -f[rs1]), nxt)[1]
        if op == oc.FABS:
            return lambda pc: (f.__setitem__(rd, abs(f[rs1])), nxt)[1]
        if op == oc.FSQRT:
            def step(pc):
                v = f[rs1]
                f[rd] = math.sqrt(v) if v >= 0.0 else math.nan
                return nxt
            return step
        if op == oc.FSIN:
            sin = math.sin
            return lambda pc: (f.__setitem__(rd, sin(f[rs1])), nxt)[1]
        if op == oc.FCOS:
            cos = math.cos
            return lambda pc: (f.__setitem__(rd, cos(f[rs1])), nxt)[1]
        if op == oc.FMV:
            return lambda pc: (f.__setitem__(rd, f[rs1]), nxt)[1]
        if op == oc.FLI:
            fimm = float(imm)
            return lambda pc: (f.__setitem__(rd, fimm), nxt)[1]
        if op == oc.FEQ:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if f[rs1] == f[rs2] else 0), nxt)[1]
        if op == oc.FLT:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if f[rs1] < f[rs2] else 0), nxt)[1]
        if op == oc.FLE:
            if rd == 0:
                return lambda pc: nxt
            return lambda pc: (
                x.__setitem__(rd, 1 if f[rs1] <= f[rs2] else 0), nxt)[1]
        if op == oc.FCVTFI:
            return lambda pc: (f.__setitem__(rd, float(x[rs1])), nxt)[1]
        if op == oc.FCVTIF:
            def step(pc):
                v = f[rs1]
                if not math.isfinite(v):
                    raise ArithmeticFault("float->int of non-finite value",
                                          pc=index_to_pc(i))
                if rd:
                    x[rd] = W(int(v))
                return nxt
            return step

        # --- memory ----------------------------------------------------------
        if op in (oc.LD, oc.LW, oc.LWU, oc.LH, oc.LHU, oc.LB, oc.LBU):
            size = ins.info.mem_read
            signed = op in (oc.LD, oc.LW, oc.LH, oc.LB)
            from_bytes = int.from_bytes

            def step(pc):
                a = x[rs1] + imm
                if a < NULL_GUARD or a + size > memsz:
                    raise fault(a, size)
                if rd:
                    x[rd] = from_bytes(mem[a:a + size], "little",
                                       signed=signed)
                return nxt
            return step
        if op == oc.SD:
            def step(pc):
                a = x[rs1] + imm
                if a < NULL_GUARD or a + 8 > memsz:
                    raise fault(a, 8)
                mem[a:a + 8] = (x[rd] & _MASK64).to_bytes(8, "little")
                return nxt
            return step
        if op in (oc.SW, oc.SH, oc.SB):
            size = ins.info.mem_write
            mask = (1 << (8 * size)) - 1

            def step(pc):
                a = x[rs1] + imm
                if a < NULL_GUARD or a + size > memsz:
                    raise fault(a, size)
                mem[a:a + size] = (x[rd] & mask).to_bytes(size, "little")
                return nxt
            return step
        if op == oc.FLD:
            unpack = _unpack_f64

            def step(pc):
                a = x[rs1] + imm
                if a < NULL_GUARD or a + 8 > memsz:
                    raise fault(a, 8)
                f[rd] = unpack(mem, a)[0]
                return nxt
            return step
        if op == oc.FSD:
            pack = _pack_f64

            def step(pc):
                a = x[rs1] + imm
                if a < NULL_GUARD or a + 8 > memsz:
                    raise fault(a, 8)
                pack(mem, a, f[rd])
                return nxt
            return step
        if op == oc.PREFETCH:
            # A hint: touches no architectural state, but the profilers see it.
            return lambda pc: nxt

        # --- control flow -------------------------------------------------------
        if op in (oc.BEQ, oc.BNE, oc.BLT, oc.BGE, oc.BLE, oc.BGT):
            tgt = self._target_index(imm, i)
            if op == oc.BEQ:
                return lambda pc: tgt if x[rs1] == x[rs2] else nxt
            if op == oc.BNE:
                return lambda pc: tgt if x[rs1] != x[rs2] else nxt
            if op == oc.BLT:
                return lambda pc: tgt if x[rs1] < x[rs2] else nxt
            if op == oc.BGE:
                return lambda pc: tgt if x[rs1] >= x[rs2] else nxt
            if op == oc.BLE:
                return lambda pc: tgt if x[rs1] <= x[rs2] else nxt
            return lambda pc: tgt if x[rs1] > x[rs2] else nxt
        if op == oc.JAL:
            tgt = self._target_index(imm, i)
            retaddr = index_to_pc(i + 1)
            if rd == 0:
                return lambda pc: tgt
            return lambda pc: (x.__setitem__(rd, retaddr), tgt)[1]
        if op == oc.J:
            tgt = self._target_index(imm, i)
            return lambda pc: tgt
        if op == oc.JALR:
            retaddr = index_to_pc(i + 1)
            ninstr = len(self.instrs)

            def step(pc):
                t = (x[rs1] + imm - CODE_BASE) >> 4
                if not 0 <= t < ninstr:
                    raise IllegalInstruction(
                        f"jalr to invalid target {x[rs1] + imm:#x}",
                        pc=index_to_pc(i))
                if rd:
                    x[rd] = retaddr
                return t
            return step
        if op == oc.RET:
            ninstr = len(self.instrs)

            def step(pc):
                t = (x[RA] - CODE_BASE) >> 4
                if not 0 <= t < ninstr:
                    raise IllegalInstruction(
                        f"ret to invalid address {x[RA]:#x}",
                        pc=index_to_pc(i))
                return t
            return step

        # --- system -------------------------------------------------------------
        if op == oc.ECALL:
            syscall = self.syscall
            return lambda pc: nxt if syscall.call() else -1
        if op == oc.HALT:
            def step(pc):
                if self.exit_code is None:
                    self.exit_code = 0
                return -1
            return step
        if op == oc.NOP:
            return lambda pc: nxt

        raise IllegalInstruction(f"unimplemented opcode {ins.info.name}",
                                 pc=index_to_pc(i))

    def _target_index(self, imm: int, at: int) -> int:
        tgt = (imm - CODE_BASE) >> 4
        if not 0 <= tgt < len(self.instrs) or (imm - CODE_BASE) & 15:
            raise IllegalInstruction(
                f"branch target {imm:#x} outside code segment",
                pc=index_to_pc(at))
        return tgt


def run_program(program: Program, *, fs: GuestFS | None = None,
                mem_size: int = DEFAULT_MEM_SIZE,
                max_instructions: int | None = None,
                jit: bool = True) -> Machine:
    """Convenience: build a machine, run it to completion, return it."""
    m = Machine(program, fs=fs, mem_size=mem_size, jit=jit)
    m.run(max_instructions=max_instructions)
    return m
