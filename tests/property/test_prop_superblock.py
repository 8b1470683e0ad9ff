"""Differential fuzzer for the superblock optimiser.

The optimiser keeps guest registers in locals, checks the bounds of every
access through a base register that still holds its trace-entry value
once, at trace entry, indexes int64/float64 memory views for aligned
8-byte accesses, and groups agg-mode excl bytes by base register.  MiniC
never produces most of the cases it must get right, so this file draws
straight-line assembly instead: every load and store size, base
registers rewritten mid-trace, SP moves, misaligned 8-byte accesses
through a live-in base, absolute addresses, bases near both ends of
memory, division by zero, ``fcvt.i.f`` of infinity, and a call into a
second routine (its routine-entry analysis runs mid-trace).  A
conditional branch before the drawn body makes its base registers
live into the body's trace.

Each program must behave identically with the superblock tier on and off:
the exit or the fault (type, pc and icount), the integer and float
registers, memory and stdout; with tQUAD (each stack policy), QUAD and
gprof-sim attached, also the reports (tQUAD's partial report after a
fault), and with the memory tracer, whose analysis thunks read the
effective address from ``machine.x`` mid-trace, the access trace.

Budget: 60 examples; the nightly job sets ``TQUAD_NIGHTLY=1`` for 1,000.
"""

from __future__ import annotations

import hashlib
import os
import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asmkit import assemble
from repro.core import StackPolicy, TQuadOptions, TQuadTool
from repro.gprofsim import GprofTool
from repro.pin import PinEngine
from repro.pin.tracer import MemoryTraceTool
from repro.quad import QuadTool
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.vm import Machine, VMError
from repro.vm.layout import DATA_BASE, HEAP_BASE, NULL_GUARD

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
EXAMPLES = 1000 if NIGHTLY else 60

#: Memory sizes: the smallest a machine accepts, and two that are not a
#: multiple of 8 (the memory views must still cover every aligned word).
MEM_SIZES = (HEAP_BASE + (1 << 20), HEAP_BASE + (1 << 20) + 5,
             HEAP_BASE + (1 << 20) + 3)

#: Base registers (see ``programs`` for what they hold at the body's
#: entry), weighted towards the ones that do not fault, so that most
#: bodies run long enough to reach their later instructions.
BASES = ("s0", "s1", "s4", "s5", "sp", "t0") * 3 + ("s2", "s3", "zero")
DATA = ("t1", "t2", "t3", "t4", "a0")
FREGS = ("fa0", "fa1", "ft0")
LOADS = ("ld", "lw", "lwu", "lh", "lhu", "lb", "lbu")
STORES = ("sd", "sw", "sh", "sb")
ALU = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra",
       "slt", "sle", "seq", "sne")


@st.composite
def _instr(draw) -> str:
    kind = draw(st.sampled_from(
        ["load", "load", "store", "store", "fmem", "rebase", "sp", "sp",
         "sp", "alu", "imm", "div", "fcvt", "fop", "call", "abs",
         "prefetch"]))
    off = draw(st.integers(-24, 24))
    base = draw(st.sampled_from(BASES))
    rd = draw(st.sampled_from(DATA))
    rs = draw(st.sampled_from(DATA))
    if kind == "load":
        return f"{draw(st.sampled_from(LOADS))} {rd}, {off}({base})"
    if kind == "store":
        return f"{draw(st.sampled_from(STORES))} {rs}, {off}({base})"
    if kind == "fmem":
        fr = draw(st.sampled_from(FREGS))
        return f"{draw(st.sampled_from(['fld', 'fsd']))} {fr}, {off}({base})"
    if kind == "rebase":
        # a base register rewritten mid-trace: later accesses through it
        # keep their own bounds check
        reg = draw(st.sampled_from(["t0", "s0", "s3", "s5"]))
        rebase = draw(st.sampled_from([f"addi {reg}, {reg}, {off}"] * 4
                                      + [f"ld {reg}, 0({reg})",
                                         f"mv {reg}, {rs}"]))
        return f"{rebase}\n{draw(st.sampled_from(LOADS))} {rd}, 0({reg})"
    if kind == "sp":
        # an SP move between accesses through a base near SP: the move
        # flips which of them lie below SP
        move = f"addi sp, sp, {draw(st.sampled_from([-16, 16]))}"
        near = draw(st.sampled_from(["s5", "s5", "s5", "sp"]))
        store = draw(st.sampled_from(STORES))
        load = draw(st.sampled_from(LOADS))
        return (f"{store} {rs}, {draw(st.integers(-16, 16))}({near})\n"
                f"{move}\n{load} {rd}, {draw(st.integers(-16, 16))}({near})")
    if kind == "alu":
        return f"{draw(st.sampled_from(ALU))} {rd}, {rs}, " \
               f"{draw(st.sampled_from(DATA))}"
    if kind == "imm":
        # [2**63, 2**64) is a 64-bit pattern that wraps to a negative int64
        return f"li {rd}, {draw(st.integers(-(1 << 63), (1 << 64) - 1))}"
    if kind == "div":
        return f"{draw(st.sampled_from(['div', 'rem']))} {rd}, {rs}, " \
               f"{draw(st.sampled_from(DATA + ('zero',)))}"
    if kind == "fcvt":
        return f"fcvt.i.f {rd}, {draw(st.sampled_from(FREGS))}"
    if kind == "fop":
        # the second operand is never NaN: which NaN an operation on two
        # propagates is unspecified (IEEE 754), and CPython's float paths
        # differ in it, on either tier
        op = draw(st.sampled_from(["fadd", "fmul", "fdiv"]))
        a, b = (draw(st.sampled_from(FREGS)) for _ in range(2))
        return f"{op} {a}, {b}, {draw(st.sampled_from(['fa2', 'fa3']))}"
    if kind == "call":
        return "jal helper"
    if kind == "prefetch":
        return f"prefetch zero, {off}({base})"
    # absolute addresses, in and out of bounds
    addr = draw(st.sampled_from([NULL_GUARD - 8, NULL_GUARD, DATA_BASE,
                                 DATA_BASE + 3, 16]))
    return f"{draw(st.sampled_from(LOADS + STORES))} {rd}, {addr}(zero)"


@st.composite
def programs(draw):
    mem_size = draw(st.sampled_from(MEM_SIZES))
    near_null = NULL_GUARD + draw(st.integers(-16, 16))
    near_top = mem_size - draw(st.integers(-8, 16))
    setup = [
        "la s0, buf",
        f"addi s1, s0, {draw(st.integers(1, 7))}",     # misaligned
        f"li s2, {near_null}",
        f"li s3, {near_top}",
        f"addi s4, s0, {draw(st.sampled_from([0, 64, 128]))}",
        # near SP: an SP move flips which of its accesses lie below SP
        f"addi s5, sp, {draw(st.sampled_from([-8, 0, 8]))}",
        "la t0, buf",
        f"li t1, {draw(st.integers(-50, 50))}",
        f"li t2, {draw(st.integers(-3, 3))}",
        "li t3, 0",
        f"li t4, {draw(st.integers(0, 1 << 40))}",
        f"fli fa0, {draw(st.sampled_from(['1.5', '-2.25', '0.0']))}",
        f"fli fa1, {draw(st.sampled_from(['0.0', '3.0']))}",
        "fdiv ft0, fa0, fa1",                          # inf, -inf or nan
        "fli fa2, 2.0",
        "fli fa3, 0.0",
    ]
    body = draw(st.lists(_instr(), min_size=2, max_size=16))
    src = "\n".join([
        ".data", "buf: .space 256", ".text", ".func main", "main:",
        *setup,
        "bne s0, zero, body",          # ends the trace: bases are live-in
        "halt",
        "body:", *body, "halt", ".endfunc",
        ".func helper", "helper:",
        "ld t9, 8(s0)", "sd t9, -8(sp)", "addi t9, t9, 1", "ret",
        ".endfunc", ""])
    return src, mem_size


def _outcome(m: Machine, run) -> tuple:
    try:
        exit_ = ("exit", run())
    except VMError as err:
        exit_ = (type(err).__name__, err.pc, err.icount)
    return (exit_, m.icount, tuple(m.x), struct.pack("32d", *m.f),
            hashlib.sha256(m.mem).digest(), bytes(m.stdout))


def _bare(src: str, mem_size: int, jit: bool) -> tuple:
    m = Machine(assemble(src), mem_size=mem_size, jit=jit)
    return _outcome(m, m.run)


def _profiled(src: str, mem_size: int, jit: bool, tools: str,
              policy: StackPolicy, interval: int) -> tuple:
    engine = PinEngine(assemble(src), mem_size=mem_size, jit=jit)
    tquad = TQuadTool(TQuadOptions(slice_interval=interval, stack=policy))
    tquad.attach(engine)
    extra = []
    if tools == "all":
        extra = [QuadTool().attach(engine), GprofTool().attach(engine)]
    if tools == "trace":
        # its analysis thunks read the EA from machine.x mid-trace
        tracer = MemoryTraceTool().attach(engine)
    state = _outcome(engine.machine, engine.run)
    reports = [tquad_to_json(tquad.report(allow_partial=True))]
    if tools == "trace":
        t = tracer.trace()
        reports += [a.tobytes() for a in (t.icount, t.kernel_id, t.address,
                                          t.size, t.is_write)]
    if extra and state[0][0] == "exit":
        # QUAD and gprof-sim have no partial report
        reports += [quad_to_json(extra[0].report()),
                    flat_to_json(extra[1].report())]
    return state, reports


# long intervals keep most traces in agg mode, short ones straddle
@given(programs(), st.sampled_from([4, 9, 16, 1000, 1000, 1000]))
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_jit_on_equals_jit_off(case, interval):
    src, mem_size = case
    assert _bare(src, mem_size, True) == _bare(src, mem_size, False)
    configs = [("tquad", policy) for policy in StackPolicy]
    configs += [("all", StackPolicy.BOTH), ("trace", StackPolicy.BOTH)]
    for tools, policy in configs:
        assert (_profiled(src, mem_size, True, tools, policy, interval)
                == _profiled(src, mem_size, False, tools, policy, interval))
