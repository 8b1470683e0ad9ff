"""Superblock (trace) compiler — the VM's second JIT tier.

The baseline tier compiles every instruction to one Python closure and pays
one dispatch, one ``icount`` bump and one call per retired instruction
(:mod:`repro.vm.machine`).  This module adds a *superblock* tier on top,
mirroring the trace granularity of Pin's code cache (paper §IV-B): at
materialization time a straight-line *trace* of instructions is fused into a
single Python function whose source is generated and ``exec``-compiled.
Executing a superblock costs one dispatch and one ``icount`` update for the
whole trace.

Superblock formation rules
--------------------------

Walking forward from the entry index, the trace grows until one of:

* a **runtime-target** terminator — ``jalr``, ``ret``, ``ecall``, ``halt``;
* a **predicated** instruction — it becomes a one-instruction guarded block
  of its own (bare VM) or falls back to the per-instruction closure path
  (instrumented run), keeping ``INS_InsertPredicatedCall`` semantics exact;
* an attached block instrumenter answering :data:`FALLBACK` for it — the
  engine demands per-instruction visibility, so the instruction is
  materialized through the classic ``instrument_hook`` path;
* a **conditional branch** — both successor indices are returned from the
  generated function, so the branch is always the trace's last instruction
  (following one direction speculatively would also compile instructions
  the per-instruction tier never reaches, breaking ``compile_count``
  equivalence — and measured slower: hot loop backedges become mid-trace
  side exits that re-enter overlapping traces);
* a **cycle** — the target of a ``j``/``jal``, or the fall-through index,
  is already part of the trace;
* the trace holds :data:`MAX_BLOCK` instructions.

Unconditional jumps and calls (``j``, ``jal``) do *not* end a trace: the
walk continues at their static target (for ``jal``, the return-address
write is fused inline), so a call fuses straight into its callee.
Traces are cached at their entry index only;
a jump into the middle of an existing trace simply materializes a new
(overlapping) trace starting there, and ``Machine.compile_count`` counts
*distinct* static instructions, so overlap does not inflate it.

Architectural-state equivalence
-------------------------------

Fused execution is observationally identical to the per-instruction tier:

* ``icount`` is published in one update per trace exit, but every point
  where guest-visible code can observe it mid-trace — a fault, a syscall,
  or an inlined analysis thunk — first rewrites
  ``machine.icount`` to the exact per-instruction value (``entry + k + 1``
  for the trace's k-th instruction);
* faults raise the same exception types with the same ``pc``/``icount``
  attribution, and instructions before the faulting one have fully retired;
* instrumentation inlined from a block plan runs in the same order and with
  the same argument values as the per-instruction thunks would.

Instrumentation inlining and record sinks
-----------------------------------------

A machine may carry a ``block_instrumenter`` (the Pin engine).  For every
instruction the compiler asks ``plan(index, ins)`` which returns ``None``
(plain fusion), :data:`FALLBACK`, or an :class:`InsPlan` holding zero-arg
thunks to run before the instruction (``pre``, with ``machine.icount``
restored first) plus *record sinks* for memory instructions.

A record sink (see :class:`repro.core.recording.RecordBuffers`) exposes:

* ``read_buf`` / ``write_buf`` — flat ``array('q')`` buffers receiving
  ``(icount, incl_bytes, excl_bytes, kernel_id)`` quads;
* ``tag`` — an object with a ``rec_id`` attribute (the interned id of the
  kernel accesses currently attribute to, -1 to drop, or ``-2 - id`` for
  library-marked attribution — see
  :class:`repro.core.callstack.CallStack`);
* ``track_incl`` / ``track_excl`` — which byte columns the sink wants
  (``excl`` only counts accesses below the stack pointer);
* ``interval`` — the slice width in instructions;
* ``cap`` — soft buffer capacity in *elements*, checked at trace entry;
* ``flush_read`` / ``flush_write`` — hand a sealed buffer on (fold it
  into a ledger, or spill it to a capture).

A sink may instead declare ``raw = True`` (see
:class:`repro.quad.shadow.RawRecordBuffer`): its single ``buf`` receives
one *packed* ``int64`` per access — ``(rec_id + 1) << kid_shift |
(size << 1 | is_write) << tail_shift | ea`` — plus negative
``-1 - sp`` markers whenever the stack pointer changes (tracked through
``sink.last_sp``; SP changes orders of magnitude less often than memory is
touched).  The ``(rec_id + 1) << kid_shift`` head is hoisted into a local
per trace segment, and a segment's packed records go out in one bulk
write.  Raw sinks carry ``interval = 0``, which keeps their traces in
exact event mode.

Record emission
---------------

Records are written per trace *segment*: a segment closes before any
analysis thunk runs (thunks may switch the attributed kernel) and before
every exit.  Within a segment ``tag.rec_id`` is stable, so it is read once,
into a local, at the segment's first access.

* **Event mode** is the per-access path.  It runs wherever agg mode
  cannot: on every trace a raw sink shares (or whose sinks' intervals
  differ or are shorter than the trace), and on the rare execution that
  straddles a slice boundary (a separate variant of the trace).  Each
  access keeps what only it knows in a local (its
  excl bytes, or an exclude-only sink's conditional quad), and the
  segment's quads, with exact icounts, go out in one bulk write per
  buffer at the close: packed by a ``struct`` of their count and copied in
  with ``frombytes``.
* **Agg mode** is the one-slice fast path.  When every record sink of the
  trace shares one interval no shorter than the trace, a single division
  at entry proves the whole trace lands in one slice (true unless it
  straddles a boundary, i.e. almost always), and each (sink, kind) pair
  writes **one** quad per segment.  Its incl bytes are a sum computed at
  compile time; only the excl bytes, which depend on the stack pointer,
  are computed at run time, once per group of accesses (below).

Both modes are exact, not approximate.

Register locals and the entry check
-----------------------------------

Between trace formation and source emission the compiler optimises the
trace the way Pin's own JIT does (per-trace register reallocation and
check elimination):

* **Registers in locals.**  Every integer and float register the trace
  touches is loaded into a local (``r<n>``, ``g<n>``) right after
  ``ic = m.icount``; a read of x0 is the literal ``0``.  The registers
  written so far are stored back before every exit ``return``, before
  every analysis thunk (IARG extractors read ``machine.x``), before
  ``ecall`` (syscalls read and write ``x``) and in ``jalr``/``ret`` before
  the target check can raise.  The trace's one ``except`` handler stores
  every written register before the fault is re-raised.  This is exact:
  every touched register was loaded at entry, so at any fault point each
  local holds the architectural value.  Thunks never write guest
  registers, so nothing is reloaded after one.
* **One bounds check at entry.**  An access whose base register has not
  been written earlier in the trace folds its ``[imm, imm + size)`` into
  that register's range, and the trace tests each such base once, at
  entry: ``NULL_GUARD - lo <= rB <= mem_size - hi``.  Absolute addresses
  are checked at compile time; an access through a base written inside
  the trace keeps its own check.  A trace has no side exits, so every
  checked access executes unless an earlier instruction faults: only an
  execution that is going to fault can fail the test.  Such an execution
  runs the trace's instructions on the per-instruction tier
  (``Machine._run_tail``), which faults exactly where the unfused machine
  does (``vm/entry_fallbacks`` counts them).  Every non-faulting
  execution keeps its records, agg quads and flush points, so capture
  rows and pages cannot move.
* **Memory views.**  Aligned 8-byte ``ld``/``sd``/``fld``/``fsd`` through
  a checked base index ``memoryview(mem).cast("q")`` (or ``"d"``) at
  ``(rB >> 3) + imm // 8``, computed once per trace.  Whether the base is
  8-aligned is a flag set at entry, and a misaligned base takes the
  ``struct`` path inside the same code, so it never changes tiers.  The
  views cover the 8-byte words below ``mem_size``, which need not be a
  multiple of 8.
* **Grouped excl bytes in agg mode.**  Within a (sink, kind, base) group
  an access lies below SP exactly when its offset lies below
  ``d = sp - base``; for sp-relative accesses that is a compile-time
  constant.  A group is closed (its excl bytes computed from ``d``)
  before any instruction that writes SP or its base, and at the segment
  close; the fault handler's writes include the groups still open.  No
  agg access computes its address unless a bounds check reads it.
* **Straddle bodies on demand.**  An agg trace tests its slice at entry
  and hands a straddling execution to its event-mode variant, compiled
  on first use (``vm/straddle_variants``); the fault handler derives the
  mode from ``ic``.

Fault branches
--------------

A memory fault, a division by zero or a non-finite float→int conversion
raises mid-segment, before the close, yet the segment's tQUAD records must
land: a partial report after a guest crash equals the per-instruction
tier's.  A trace with tQUAD sinks therefore has **one fault handler**.
Every fault branch marks the faulting icount in a local ``f`` before it
raises; an ``except`` clause around the body hands the frame's locals to
:func:`_write_faulted_segment`, which re-walks the trace, regenerates its
body up to the faulting instruction and runs exactly the writes that
instruction's fault branch would hold — the agg sums so far (the faulting
access included) or the pending event quads.  Fault branches carry no
record code, so generated source stays linear in the trace length.  A raw
sink's pending records are dropped at a fault: QUAD has no partial report.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Callable

from ..isa import opcodes as oc
from ..isa.instruction import NO_PRED, Instr
from ..obs import TELEMETRY as _TELEMETRY
from .errors import ArithmeticFault, IllegalInstruction, MemoryFault
from .layout import CODE_BASE, NULL_GUARD, index_to_pc

#: Hard cap on fused instructions per superblock.
MAX_BLOCK = 128

#: Sentinel returned by a block instrumenter's ``plan`` when the instruction
#: must go through the per-instruction ``instrument_hook`` path.
FALLBACK = "per-instruction-fallback"

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: Opcodes whose target is only known at run time (or that leave the guest):
#: these always end a trace.
_HARD_ENDS = frozenset({oc.JALR, oc.RET, oc.ECALL, oc.HALT})

#: Opcodes that emit a block-exit ``return`` when they are the trace's last
#: instruction.
_TERMINATORS = frozenset({
    oc.BEQ, oc.BNE, oc.BLT, oc.BGE, oc.BLE, oc.BGT,
    oc.JAL, oc.J, oc.JALR, oc.RET, oc.ECALL, oc.HALT,
})

_BRANCHES = {oc.BEQ: "==", oc.BNE: "!=", oc.BLT: "<", oc.BGE: ">=",
             oc.BLE: "<=", oc.BGT: ">"}

_UNPACK = {
    oc.LD: struct.Struct("<q").unpack_from,
    oc.LW: struct.Struct("<i").unpack_from,
    oc.LWU: struct.Struct("<I").unpack_from,
    oc.LH: struct.Struct("<h").unpack_from,
    oc.LHU: struct.Struct("<H").unpack_from,
    oc.LB: struct.Struct("<b").unpack_from,
    oc.LBU: struct.Struct("<B").unpack_from,
    oc.FLD: struct.Struct("<d").unpack_from,
}

_PACK = {
    oc.SD: (struct.Struct("<q").pack_into, None),
    oc.SW: (struct.Struct("<I").pack_into, 0xFFFFFFFF),
    oc.SH: (struct.Struct("<H").pack_into, 0xFFFF),
    oc.SB: (struct.Struct("<B").pack_into, 0xFF),
    oc.FSD: (struct.Struct("<d").pack_into, None),
}


class InsPlan:
    """Inline instrumentation for one instruction inside a superblock."""

    __slots__ = ("pre", "read_sinks", "write_sinks")

    def __init__(self, pre: tuple[Callable[[], None], ...] = (),
                 read_sinks: tuple = (), write_sinks: tuple = ()):
        self.pre = pre
        self.read_sinks = read_sinks
        self.write_sinks = write_sinks


class _Emitter:
    """Accumulates generated source lines plus the value environment that is
    bound into the function via default arguments (locals are faster than
    globals in CPython)."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict[str, object] = {}
        self._by_id: dict[int, str] = {}
        self._n = 0
        self.indent = 1

    def add(self, line: str) -> None:
        # one space per level: the source is compiled, never read, and
        # every body line sits a level deeper inside the fault handler's
        # ``try``
        self.lines.append(" " * self.indent + line)

    def push(self) -> None:
        self.indent += 1

    def pop(self) -> None:
        self.indent -= 1

    def bind(self, prefix: str, value: object) -> str:
        """Bind ``value`` under a fresh (or shared, if identical) name."""
        key = id(value)
        name = self._by_id.get(key)
        if name is None:
            name = f"_{prefix}{self._n}"
            self._n += 1
            self._by_id[key] = name
            self.env[name] = value
        return name


def _wrap_assign(E: _Emitter, target: str, expr: str) -> None:
    """Assign ``expr`` to ``target`` with inline 64-bit signed wrapping.

    The in-range test is inlined so the common case costs no call; the
    rare out-of-range result goes through the shared ``_wrap`` helper.
    """
    W = E.bind("W", _wrap)
    E.add(f"v = {expr}")
    E.add(f"{target} = v if {_I64_MIN} <= v <= {_I64_MAX} else {W}(v)")


def _wrap(v: int) -> int:
    if _I64_MIN <= v <= _I64_MAX:
        return v
    return ((v - _I64_MIN) & _MASK64) + _I64_MIN


class _Records:
    """Record-emission state for one generated body.

    ``mode`` is ``"event"`` (one quad per access, exact icounts — always
    correct) or ``"agg"`` (one quad per segment carrying the segment's
    byte sum — valid only when the whole trace shares one slice, which the
    caller guards at run time).  In both modes a segment's tQUAD records
    are written at its close, or by the trace's fault handler when a fault
    cuts it short: with ``handled`` set, fault branches mark the faulting
    icount in ``f``; ``fault_site`` (set only when the handler regenerates
    the body) names the instruction whose pending writes land in
    ``fault_writes``.
    """

    def __init__(self, body: "_Body", mode: str, *,
                 handled: bool = False, fault_site: int | None = None):
        self.body = body
        self.E = body.E
        self.mode = mode
        self.handled = handled
        self.fault_site = fault_site
        self.fault_writes: list[str] = []
        #: tag id -> local holding ``tag.rec_id`` for the current segment
        #: (rec_id is stable between analysis thunks)
        self._kid: dict[int, str] = {}
        #: agg mode: (sink id, kind) -> [buffer, sink, incl bytes so far
        #: (a compile-time sum), excl bytes known at compile time, local
        #: accumulating the closed groups' excl bytes or None]
        self._sums: dict[tuple[int, str], list] = {}
        #: agg mode: ((sink id, kind), base register) -> the open group's
        #: (offset, size) pairs; its excl bytes depend only on sp - base
        self._groups: dict[tuple, list[tuple[int, int]]] = {}
        #: event mode: (sink id, kind) -> (buffer, sink, pending values:
        #: four expressions per quad, or one conditional-tuple expression
        #: per access of an exclude-only sink)
        self._quads: dict[tuple[int, str], tuple] = {}
        #: raw sinks: sink id -> hoisted kernel-head local, valid for the
        #: current segment
        self._kh: dict[int, str] = {}
        self._kh_names: dict[int, str] = {}
        #: (sink id, record tail bits) -> local holding ``Kh | tail``, so a
        #: steady-state record costs two int ops + a tuple slot
        self._kq: dict[tuple[int, int], str] = {}
        #: raw sinks whose ``last_sp`` is provably current at this point in
        #: the emitted code (invalidated when an instruction may write SP)
        self._sp_ok: set[int] = set()
        #: pending packed-record expressions per raw sink, flushed as one
        #: bulk write at segment close
        self._pend: dict[int, list[str]] = {}
        self._pend_sinks: dict[int, object] = {}
        #: buffer id -> bound (buf.append, buf.extend) binding names; the
        #: bound methods are hoisted once so the hot path skips the
        #: attribute lookup (buffers are reset in place, never replaced)
        self._buffns: dict[int, tuple[str, str]] = {}
        #: buffer id -> bound ``buf.frombytes``; value count -> bound
        #: ``struct.Struct(f"{n}q").pack`` (native int64, as ``array('q')``)
        self._frombytes: dict[int, str] = {}
        self._packers: dict[int, str] = {}
        self._na = 0

    def _local(self, prefix: str) -> str:
        v = f"{prefix}{self._na}"
        self._na += 1
        return v

    def _buf_fns(self, buf) -> tuple[str, str]:
        fns = self._buffns.get(id(buf))
        if fns is None:
            fns = self._buffns[id(buf)] = (self.E.bind("ba", buf.append),
                                           self.E.bind("bx", buf.extend))
        return fns

    def _bulk(self, buf, values: list[str]) -> str:
        """One statement appending ``values`` (int64 expressions) to
        ``buf``: packed by a ``struct`` of their count and copied in with
        ``frombytes``, several times cheaper than ``extend`` of a tuple,
        which converts element by element."""
        fb = self._frombytes.get(id(buf))
        if fb is None:
            fb = self._frombytes[id(buf)] = self.E.bind("fb", buf.frombytes)
        n = len(values)
        pk = self._packers.get(n)
        if pk is None:
            pk = self._packers[n] = self.E.bind(
                "pk", struct.Struct(f"{n}q").pack)
        return f"{fb}({pk}({', '.join(values)}))"

    def _kid_local(self, tag) -> str:
        K = self._kid.get(id(tag))
        if K is None:
            K = self._kid[id(tag)] = self._local("K")
            self.E.add(f"{K} = {self.E.bind('tag', tag)}.rec_id")
        return K

    def access(self, sink, kind: str, size: int, k: int, ea: str,
               base: int, imm: int) -> None:
        """Emit the record for one memory access at ``ea`` (an expression
        of ``base`` and ``imm``, or the per-access local ``a``)."""
        E = self.E
        if getattr(sink, "raw", False):
            sp = self.body.rx(2)
            sid = id(sink)
            if sid not in self._sp_ok:
                self._sp_ok.add(sid)
                S = E.bind("s", sink)
                if self._pend.get(sid):
                    # mid-segment SP write: capture SP now and thread the
                    # marker through the pending stream, which keeps it
                    # ordered without flushing the records gathered so far
                    v = self._local("a")
                    E.add(f"{v} = {sp}")
                    E.add(f"{S}.last_sp = {v}")
                    self._pend[sid].append(f"-1 - {v}")
                else:
                    ap = self._buf_fns(sink.buf)[0]
                    E.add(f"if {S}.last_sp != {sp}:")
                    E.add(f"    {S}.last_sp = {sp}")
                    E.add(f"    {ap}(-1 - {sp})")
            kh = self._kh.get(sid)
            if kh is None:
                name = self._kh_names.get(sid)
                if name is None:
                    name = self._kh_names[sid] = f"Kh{len(self._kh_names)}"
                kh = self._kh[sid] = name
                tag = E.bind("tag", sink.tag)
                E.add(f"{kh} = ({tag}.rec_id + 1) << {sink.kid_shift}")
            tail = (size << 1) | (1 if kind == "write" else 0)
            kq = self._kq.get((sid, tail))
            if kq is None:
                kq = self._kq[(sid, tail)] = f"{kh}t{tail}"
                E.add(f"{kq} = {kh} | {tail << sink.tail_shift}")
            # the EA is *not* masked here: a wild address faults at this
            # instruction's bounds check, before the pending write runs
            v = self._local("a")
            E.add(f"{v} = {ea}")
            self._pend.setdefault(sid, []).append(f"{kq} | {v}")
            self._pend_sinks[sid] = sink
            return
        buf = sink.read_buf if kind == "read" else sink.write_buf
        K = self._kid_local(sink.tag)
        key = (id(sink), kind)
        if self.mode == "agg":
            acc = self._sums.setdefault(key, [buf, sink, 0, 0, None])
            acc[2] += size
            if sink.track_excl:
                if base == 2:
                    # sp-relative: below SP exactly when its offset is
                    # negative
                    acc[3] += size if imm < 0 else 0
                else:
                    self._groups.setdefault((key, base), []).append(
                        (imm, size))
            return
        # below SP: known at compile time for sp-relative accesses
        below = (imm < 0) if base == 2 else f"{ea} < {self.body.rx(2)}"
        pend = self._quads.setdefault(key, (buf, sink, []))[2]
        if sink.track_incl and sink.track_excl:
            if isinstance(below, bool):
                e = str(size) if below else "0"
            else:
                e = self._local("e")
                E.add(f"{e} = {size} if {below} else 0")
            pend += (f"ic + {k + 1}", str(size), e, K)
        elif sink.track_incl:
            pend += (f"ic + {k + 1}", str(size), "0", K)
        elif below is True:
            pend.append(f"(ic + {k + 1}, 0, {size}, {K})")
        elif below is not False:
            # an above-SP access records nothing: a conditional tuple
            c = self._local("c")
            E.add(f"{c} = (ic + {k + 1}, 0, {size}, {K}) "
                  f"if {below} else ()")
            pend.append(c)

    def _group(self, base: int, offs) -> str:
        """The excl bytes of one agg group: its accesses lie below SP
        exactly when their offset is below ``d = sp - base``.  The usual
        cases are all of them (globals and heap lie below the stack) or
        none (a frame pointer's locals); only an offset range that
        straddles ``d`` sums them one by one."""
        sp = self.body.rx(2)
        d = f"({sp} - {self.body.rx(base)})" if base else sp
        lo = min(o for o, _ in offs)
        hi = max(o for o, _ in offs)
        total = sum(size for _, size in offs)
        if lo == hi:
            return f"({total} if {d} > {lo} else 0)"
        EX = self.E.bind("EX", _excl)
        return (f"({total} if {d} > {hi} else "
                f"{EX}({d}, {tuple(offs)}) if {d} > {lo} else 0)")

    def on_write(self, reg: int) -> None:
        """The next statement writes ``reg``: close the agg groups whose
        excl bytes depend on it (every group but sp-relative ones when
        ``reg`` is SP), adding their run-time excl bytes to the sums."""
        for gk in [gk for gk in self._groups
                   if gk[1] == reg or (reg == 2 and gk[1] != 2)]:
            excl = self._group(gk[1], self._groups.pop(gk))
            acc = self._sums[gk[0]]
            if acc[4] is None:
                acc[4] = self._local("e")
                self.E.add(f"{acc[4]} = {excl}")
            else:
                self.E.add(f"{acc[4]} += {excl}")

    def _writes(self) -> list[str]:
        """The statements writing the open segment's tQUAD records: one
        bulk write per buffer.  Agg mode: ``K == -1`` drops; ``K <= -2``
        is a library-marked kernel id and must be recorded (the flush /
        capture replay folds it back).  Groups still open (only at a
        fault) add their excl bytes inline."""
        out = []
        for key, (buf, sink, incl, const, local) in self._sums.items():
            K = self._kid[id(sink.tag)]
            parts = [local] if local else []
            parts += [self._group(base, offs)
                      for (gk, base), offs in self._groups.items()
                      if gk == key]
            if const or not parts:
                parts.append(str(const))
            excl = " + ".join(parts)
            write = self._bulk(buf, ["ic + 1", str(incl) if sink.track_incl
                                     else "0", excl, K])
            if sink.track_incl:
                out.append(f"if {K} != -1: {write}")
            elif excl != "0":
                out.append(f"if {excl} and {K} != -1: {write}")
        for buf, sink, pend in self._quads.values():
            if sink.track_incl:
                out.append(self._bulk(buf, pend))
            elif pend:
                out.append(f"{self._buf_fns(buf)[1]}"
                           f"([{', '.join('*' + r for r in pend)}])")
        return out

    def at_fault(self, k: int) -> None:
        """Instruction ``k``'s fault branch: when the handler regenerates
        the body for a fault there, keep the writes of the segment it cut
        short (agg sums so far, the faulting access included, or the
        pending event quads).  Raw sinks' pending records are dropped:
        QUAD has no partial report."""
        if k == self.fault_site:
            self.fault_writes = self._writes()

    def _flush_raw(self, sid: int) -> None:
        """Emit the pending packed records of one raw sink as a single
        bulk write (or an ``append`` for a lone record)."""
        exprs = self._pend.get(sid)
        if not exprs:
            return
        buf = self._pend_sinks[sid].buf
        if len(exprs) == 1:
            self.E.add(f"{self._buf_fns(buf)[0]}({exprs[0]})")
        else:
            self.E.add(self._bulk(buf, exprs))
        exprs.clear()

    def close_segment(self) -> None:
        """Write the segment's records and start a new one.  Emitted
        before analysis thunks (which may change ``tag.rec_id``) and before
        the trace's final exit."""
        self.on_write(2)
        for line in self._writes():
            self.E.add(line)
        self._sums.clear()
        self._groups.clear()
        self._quads.clear()
        self._kid.clear()
        for sid in self._pend:
            self._flush_raw(sid)
        self._kh.clear()
        self._kq.clear()

    def sp_unsync(self) -> None:
        """The just-emitted instruction may have written SP: raw sinks must
        re-establish the SP marker before their next record.  Pending
        records stay pending — ``access`` threads the marker through the
        pending stream itself, so order is preserved without a flush."""
        self._sp_ok.clear()


def _excl(d: int, offs: tuple) -> int:
    """Excl bytes of an agg group: the sizes of its accesses whose offset
    from the group's base lies below ``d = sp - base``."""
    return sum(size for off, size in offs if off < d)


def build_block(machine, start: int):
    """Materialize the superblock (trace) starting at instruction ``start``.

    Returns ``(step_fn, indices)``.  ``step_fn`` follows the fused contract:
    it updates ``machine.icount`` itself and returns the next instruction
    index (or -1 to halt).  ``indices`` lists the static instructions fused
    into the trace, in order (not necessarily contiguous).
    """
    items, guarded = _form_trace(machine, start)
    if not items:
        return _fallback_singleton(machine, start), [start]
    fn = _compile_block(machine, items, guarded)
    # block materializations are cached by the machine, so these land once
    # per static block, not per execution
    _TELEMETRY.count("vm/superblocks")
    _TELEMETRY.count("vm/fused_instructions", len(items))
    return fn, [idx for idx, _, _ in items]


def _form_trace(machine, start: int):
    """Walk the trace from ``start`` under the formation rules.  Returns
    ``(items, guarded)``; ``items`` is empty when the first instruction
    must take the per-instruction path.  Deterministic for a machine (the
    instrumenter caches its plans), so the fault handler can re-walk it."""
    instrs = machine.instrs
    n_instr = len(instrs)
    instrumenter = machine.block_instrumenter
    items: list[tuple[int, Instr, InsPlan | None]] = []
    trace: set[int] = set()
    guarded = False
    i = start
    while i < n_instr:
        ins = instrs[i]
        if ins.pred != NO_PRED:
            if instrumenter is None and not items:
                items.append((i, ins, None))
                guarded = True
            break
        plan = instrumenter.plan(i, ins) if instrumenter is not None else None
        if plan is FALLBACK:
            break
        items.append((i, ins, plan))
        trace.add(i)
        op = ins.op
        if len(items) >= MAX_BLOCK or op in _HARD_ENDS or op in _BRANCHES:
            break
        if op in (oc.J, oc.JAL):
            tgt = machine._target_index(ins.imm, i)
            if tgt in trace:
                break
            i = tgt
            continue
        if i + 1 in trace:
            break
        i += 1
    return items, guarded


def _fallback_singleton(machine, index: int):
    """One instruction through the classic closure path, wrapped to honour
    the fused loop's self-bumping ``icount`` contract."""
    inner = machine._compose_step(index)

    def step(pc, _m=machine, _inner=inner):
        _m.icount += 1
        return _inner(pc)
    return step


def _entry_fallback(machine, pc: int, n: int) -> int:
    """A trace whose entry bounds check failed: run its ``n`` instructions
    through the per-instruction tier, which faults exactly where the
    unfused machine does (a failing check proves this execution faults)."""
    _TELEMETRY.count("vm/entry_fallbacks")
    return machine._run_tail(pc, machine.icount + n)


class _Straddle:
    """The event-mode variant of an agg trace, compiled on first use: only
    an execution that straddles a slice boundary runs it."""

    __slots__ = ("machine", "items", "fn")

    def __init__(self, machine, items):
        self.machine = machine
        self.items = items
        self.fn = None

    def __call__(self, pc: int) -> int:
        fn = self.fn
        if fn is None:
            fn = self.fn = _compile_block(self.machine, self.items, False,
                                          "event")
            _TELEMETRY.count("vm/straddle_variants")
        return fn(pc)


def _mem_views(machine):
    """Int64 and float64 views of the machine's memory (``None`` on a
    big-endian host, whose native order is not the guest's).  They cover
    the 8-byte words below ``mem_size``, which need not be a multiple of 8."""
    if machine._views is None and sys.byteorder == "little":
        mv = memoryview(machine.mem)[:machine.mem_size & ~7]
        machine._views = (mv.cast("q"), mv.cast("d"))
    return machine._views


def _record_pairs(items) -> list:
    """All (sink, kind) pairs used anywhere in the trace, in first-use
    order, deduplicated by sink identity."""
    pairs: list = []
    seen: set[tuple[int, str]] = set()
    for _, _, plan in items:
        if plan is None:
            continue
        for sink in plan.read_sinks:
            if (id(sink), "read") not in seen:
                seen.add((id(sink), "read"))
                pairs.append((sink, "read"))
        for sink in plan.write_sinks:
            if (id(sink), "write") not in seen:
                seen.add((id(sink), "write"))
                pairs.append((sink, "write"))
    return pairs


def _compile_block(machine, items, guarded: bool, mode: str | None = None):
    """Compile one trace.  ``mode`` defaults to agg when the trace's sinks
    allow it (a straddling execution then runs the event-mode variant,
    compiled on demand), else event, or none without record sinks."""
    with _TELEMETRY.span("superblock", cat="vm", start=items[0][0]):
        n = len(items)
        pairs = _record_pairs(items)
        I = _agg_interval(pairs, n)
        if mode is None:
            mode = "agg" if I else ("event" if pairs else "none")
        # a tQUAD sink's open segment is written by one fault handler per
        # trace, not by every fault branch: the branches mark the faulting
        # icount in ``f`` and the handler regenerates the writes on demand
        handled = any(not getattr(sink, "raw", False) for sink, _ in pairs)
        E = _Emitter()
        body = _Body(E, machine, items, mode, checked=not guarded,
                     handled=handled)
        m, x = body.m, body.x
        body.emit()
        lines, E.lines = E.lines, []

        E.add(f"ic = {m}.icount")
        if mode == "agg":
            # The whole trace spans one slice unless a boundary falls
            # inside it (possible only every `interval` instructions):
            # the rare straddling execution runs the event-mode variant.
            sv = E.bind("sv", _Straddle(machine, items))
            E.add(f"if ic // {I} != (ic + {n - 1}) // {I}: return {sv}(pc)")
        # soft capacity check once, at trace entry: covers loops whose
        # only exits are side exits (the buffers the trace appends to are
        # bounded by cap + a few quads per execution)
        checked: set[int] = set()
        for sink, kind in pairs:
            b = sink.read_buf if kind == "read" else sink.write_buf
            if id(b) in checked:     # raw sinks share one buf for both kinds
                continue
            checked.add(id(b))
            fl = E.bind("fl", sink.flush_read if kind == "read"
                        else sink.flush_write)
            E.add(f"if len({E.bind('b', b)}) > {int(sink.cap)}: {fl}()")
        if guarded:
            # a predicated instruction retires whether or not its guard is
            # set, so the bump happens before the guard test
            E.add(f"{m}.icount = ic + 1")
            E.add(f"if not {x}[{items[0][1].pred}]: return {items[0][0] + 1}")
        body.emit_entry()
        if body.faults:
            wb = body.write_back(body.written)
            if handled:
                E.add("f = 0")
            E.add("try:")
            E.lines += [" " + line for line in lines]
            F = E.bind("F", (MemoryFault, ArithmeticFault))
            E.add(f"except {F}:")
            if wb:
                E.add(f"    {wb}")
            if handled:
                W = E.bind("FW", _write_faulted_segment)
                E.add(f"    if f: {W}({m}, {items[0][0]}, locals())")
            E.add("    raise")
        else:
            E.lines += lines

        src = "def step(pc, {args}):\n{body}\n".format(
            args=", ".join(f"{k}={k}" for k in E.env),
            body="\n".join(E.lines))
        _TELEMETRY.count("vm/source_bytes", len(src))
        ns = dict(E.env)
        exec(compile(src, f"<superblock@{items[0][0]}>", "exec"), ns)  # noqa: S102
        return ns["step"]


def _agg_interval(pairs, n: int) -> int | None:
    """The slice interval of agg mode, or ``None`` when the trace has no
    record sinks, they disagree on the interval, or a trace can straddle
    more than one slice boundary."""
    intervals = {sink.interval for sink, _ in pairs}
    if pairs and len(intervals) == 1 and min(intervals) >= n:
        return intervals.pop()
    return None


def _write_faulted_segment(machine, start: int, frame: dict) -> None:
    """The fault handler of the trace at ``start``: write the records of
    the segment a fault branch cut short.

    ``frame`` holds the faulting step's locals (``ic``, ``f``, the
    register locals and the segment's record locals).  The trace is
    re-walked and its body regenerated up to the faulting instruction,
    whose pending writes then run against those locals — the exact
    statements a fault branch would carry inline, built only when a guest
    actually faults.  The mode follows from ``ic``: the agg body runs
    unless the execution straddles a slice boundary.
    """
    items, guarded = _form_trace(machine, start)
    n, ic = len(items), frame["ic"]
    I = _agg_interval(_record_pairs(items), n)
    mode = "agg" if I and ic // I == (ic + n - 1) // I else "event"
    E = _Emitter()
    body = _Body(E, machine, items, mode, checked=not guarded, handled=True,
                 fault_site=frame["f"] - ic - 1)
    body.emit()
    env = dict(frame)
    env.update(E.env)
    exec("\n".join(body.rec.fault_writes), env)  # noqa: S102


class _Body:
    """One trace body, emitted by the optimiser.

    Guest registers live in locals (``r<n>``, ``g<n>`` for floats); the
    entry check covers every access whose base still holds its entry
    value (``ranges``), and aligned 8-byte accesses through such a base
    index the memory views from ``q<n> = r<n> >> 3`` when the entry flag
    ``A<n>`` says the base is 8-aligned.
    """

    def __init__(self, E: _Emitter, machine, items, mode: str, *,
                 checked: bool, handled: bool = False,
                 fault_site: int | None = None):
        self.E = E
        self.machine = machine
        self.items = items
        self.m = E.bind("m", machine)
        self.x = E.bind("x", machine.x)
        self.f = E.bind("f", machine.f)
        self.checked = checked
        #: registers the trace touches (loaded at entry) and writes (so
        #: far, while emitting), in first-use order
        self.xs: dict[int, None] = {}
        self.fs: dict[int, None] = {}
        self.xw: dict[int, None] = {}
        self.fw: dict[int, None] = {}
        #: every register the trace writes, for the fault handler
        self.written: tuple = ((), ())
        #: base register -> [lowest offset, highest offset + size] of the
        #: accesses checked at entry through it
        self.ranges: dict[int, list[int]] = {}
        #: bases whose aligned 8-byte accesses index the memory views
        self.view_bases: dict[int, None] = {}
        self.faults = False
        self.rec = _Records(self, mode, handled=handled,
                            fault_site=fault_site)

    # ------------------------------------------------------- registers
    def rx(self, n: int) -> str:
        if n == 0:
            return "0"
        self.xs[n] = None
        return f"r{n}"

    def wx(self, n: int) -> str:
        """The local written by an instruction with ``rd == n`` (n != 0);
        closes the agg groups that depend on the register first."""
        self.rec.on_write(n)
        self.xs[n] = None
        self.xw[n] = None
        return f"r{n}"

    def rf(self, n: int) -> str:
        self.fs[n] = None
        return f"g{n}"

    def wf(self, n: int) -> str:
        self.fs[n] = None
        self.fw[n] = None
        return f"g{n}"

    def write_back(self, regs=None) -> str:
        """One line storing the registers written so far (or ``regs``) to
        the machine: before exits, analysis thunks and syscalls."""
        xw, fw = regs if regs is not None else (self.xw, self.fw)
        return "; ".join([f"{self.x}[{n}] = r{n}" for n in xw]
                         + [f"{self.f}[{n}] = g{n}" for n in fw])

    def _sync(self) -> None:
        wb = self.write_back()
        if wb:
            self.E.add(wb)

    # ----------------------------------------------------------- trace
    def emit(self) -> None:
        items, rec, E, m = self.items, self.rec, self.E, self.m
        n = len(items)
        terminated = False
        for k, (index, ins, plan) in enumerate(items):
            if plan is not None and plan.pre:
                rec.close_segment()
                # restore the exact per-instruction count and registers
                # for analysis thunks (they may read machine.icount, e.g.
                # gprof-sim and IARG.ICOUNT, and machine.x, e.g. the EA)
                E.add(f"{m}.icount = ic + {k + 1}")
                self._sync()
                for thunk in plan.pre:
                    E.add(f"{E.bind('t', thunk)}()")
            if k == n - 1 and ins.op in _TERMINATORS:
                rec.close_segment()
            terminated = self._instr(index, ins, plan, k, n)
            if ins.rd == 2:
                # conservatively treat any rd==2 as a possible SP write
                # (for stores rd is the source register — re-checking is
                # a no-op)
                rec.sp_unsync()
        if not terminated:
            rec.close_segment()
            E.add(f"{m}.icount = ic + {n}")
            self._sync()
            E.add(f"return {items[-1][0] + 1}")
        self.written = (tuple(self.xw), tuple(self.fw))

    def emit_entry(self) -> None:
        """The trace's entry: load the registers it touches, test every
        entry-checked base once, and set up the view indices."""
        E = self.E
        loads = ([f"r{n} = {self.x}[{n}]" for n in self.xs]
                 + [f"g{n} = {self.f}[{n}]" for n in self.fs])
        if loads:
            E.add("; ".join(loads))
        if self.ranges:
            ms = self.machine.mem_size
            test = " and ".join(f"{NULL_GUARD - lo} <= r{b} <= {ms - hi}"
                                for b, (lo, hi) in self.ranges.items())
            fb = E.bind("fb", _entry_fallback)
            E.add(f"if not ({test}): return {fb}({self.m}, pc, "
                  f"{len(self.items)})")
        for b in self.view_bases:
            E.add(f"q{b} = r{b} >> 3; A{b} = not r{b} & 7")

    def _fault(self, k: int, exc: str, msg: str, pc_byte: int) -> None:
        """The body of a fault branch: the exact per-instruction icount
        (marked for the trace's fault handler), then the raise."""
        E = self.E
        self.faults = True
        E.push()
        mark = "f = " if self.rec.handled else ""
        E.add(f"{self.m}.icount = {mark}ic + {k + 1}")
        self.rec.at_fault(k)
        E.add(f"raise {exc}({msg}, pc={pc_byte})")
        E.pop()

    def _mem(self, ins: Instr, plan, k: int, pc_byte: int) -> None:
        """A load, store or prefetch.  Its bounds are checked at entry
        when its base still holds its entry value (or it is absolute and
        in bounds), else by a check of its own."""
        E, op, machine = self.E, ins.op, self.machine
        size = ins.info.mem_read or ins.info.mem_write
        rd, base, imm = ins.rd, ins.rs1, ins.imm
        if base == 0:
            ea = str(imm)
            checked = NULL_GUARD <= imm <= machine.mem_size - size
        else:
            ea = f"{self.rx(base)} + {imm}" if imm else self.rx(base)
            checked = self.checked and base not in self.xw
        if op != oc.PREFETCH and not checked:
            E.add(f"a = {ea}")
            ea = "a"
        if plan is not None:
            if ins.info.mem_read and not ins.info.is_prefetch:
                for sink in plan.read_sinks:
                    self.rec.access(sink, "read", size, k, ea, base, imm)
            if ins.info.mem_write:
                for sink in plan.write_sinks:
                    self.rec.access(sink, "write", size, k, ea, base, imm)
        if op == oc.PREFETCH:
            # a hint: no architectural effect, no bounds check (the baseline
            # tier never dereferences it either)
            return
        if checked and base:
            r = self.ranges.setdefault(base, [imm, imm + size])
            r[0] = min(r[0], imm)
            r[1] = max(r[1], imm + size)
        elif not checked:
            MF = E.bind("MF", MemoryFault)
            E.add(f"if not {NULL_GUARD} <= a <= {machine.mem_size - size}:")
            self._fault(k, MF, f"'bad access [%#x, +{size})' % a", pc_byte)
        mem = E.bind("mem", machine.mem)
        views = _mem_views(machine)
        view = flag = None
        if (views is not None and checked and size == 8 and imm % 8 == 0
                and op in (oc.LD, oc.SD, oc.FLD, oc.FSD)):
            view = E.bind("D" if op in (oc.FLD, oc.FSD) else "Q",
                          views[op in (oc.FLD, oc.FSD)])
            if base:
                self.view_bases[base] = None
                idx = f"q{base} + {imm >> 3}" if imm else f"q{base}"
                flag = f"A{base}"
            else:
                idx = str(imm >> 3)
            view = f"{view}[{idx}]"
        if op in _UNPACK:
            if op == oc.FLD:
                dst = self.wf(rd)
            elif rd:
                dst = self.wx(rd)
            else:
                return
            up = f"{E.bind('u', _UNPACK[op])}({mem}, {ea})[0]"
            if flag:
                E.add(f"{dst} = {view} if {flag} else {up}")
            else:
                E.add(f"{dst} = {view or up}")
            return
        pk, mask = _PACK[op]
        src = self.rf(rd) if op == oc.FSD else self.rx(rd)
        if mask is not None:
            src = f"{src} & {mask}"
        store = f"{E.bind('p', pk)}({mem}, {ea}, {src})"
        if flag:
            E.add(f"if {flag}: {view} = {src}")
            E.add(f"else: {store}")
        elif view:
            E.add(f"{view} = {src}")
        else:
            E.add(store)

    def _instr(self, index: int, ins: Instr, plan, k: int, n: int) -> bool:
        """Emit one instruction's body.  Returns True when it emitted the
        trace's final ``return``."""
        E, m, machine = self.E, self.m, self.machine
        R, Wr, G, Wg = self.rx, self.wx, self.rf, self.wf
        op = ins.op
        rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm
        pc_byte = index_to_pc(index)
        last = k == n - 1

        if op == oc.NOP:
            return False

        # --- memory ---------------------------------------------------------
        if op in _UNPACK or op in _PACK or op == oc.PREFETCH:
            self._mem(ins, plan, k, pc_byte)
            return False

        # --- integer ALU -----------------------------------------------------
        _RR = {oc.ADD: "+", oc.SUB: "-", oc.MUL: "*"}
        if op in _RR:
            if rd:
                _wrap_assign(E, Wr(rd), f"{R(rs1)} {_RR[op]} {R(rs2)}")
            return False
        if op in (oc.DIV, oc.REM):
            AF = E.bind("AF", ArithmeticFault)
            E.add(f"va = {R(rs1)}; vb = {R(rs2)}")
            E.add("if vb == 0:")
            self._fault(k, AF, "'division by zero'", pc_byte)
            if rd:
                E.add("q = abs(va) // abs(vb)")
                E.add("if (va < 0) != (vb < 0): q = -q")
                _wrap_assign(E, Wr(rd),
                             "q" if op == oc.DIV else "va - vb * q")
            return False
        _BITS = {oc.AND: "&", oc.OR: "|", oc.XOR: "^"}
        if op in _BITS:
            if rd:
                E.add(f"{Wr(rd)} = {R(rs1)} {_BITS[op]} {R(rs2)}")
            return False
        if op == oc.SLL:
            if rd:
                _wrap_assign(E, Wr(rd), f"{R(rs1)} << ({R(rs2)} & 63)")
            return False
        if op == oc.SRL:
            if rd:
                _wrap_assign(E, Wr(rd),
                             f"({R(rs1)} & {_MASK64}) >> ({R(rs2)} & 63)")
            return False
        if op == oc.SRA:
            if rd:
                E.add(f"{Wr(rd)} = {R(rs1)} >> ({R(rs2)} & 63)")
            return False
        _CMP = {oc.SLT: "<", oc.SLE: "<=", oc.SEQ: "==", oc.SNE: "!="}
        if op in _CMP:
            if rd:
                E.add(f"{Wr(rd)} = 1 if {R(rs1)} {_CMP[op]} {R(rs2)} else 0")
            return False
        if op in (oc.ADDI, oc.MULI):
            if rd:
                _wrap_assign(E, Wr(rd), f"{R(rs1)} "
                             f"{'+' if op == oc.ADDI else '*'} ({imm})")
            return False
        _BITI = {oc.ANDI: "&", oc.ORI: "|", oc.XORI: "^"}
        if op in _BITI:
            if rd:
                E.add(f"{Wr(rd)} = {R(rs1)} {_BITI[op]} ({imm})")
            return False
        if op == oc.SLLI:
            if rd:
                _wrap_assign(E, Wr(rd), f"{R(rs1)} << {imm & 63}")
            return False
        if op == oc.SRLI:
            if rd:
                _wrap_assign(E, Wr(rd),
                             f"({R(rs1)} & {_MASK64}) >> {imm & 63}")
            return False
        if op == oc.SRAI:
            if rd:
                E.add(f"{Wr(rd)} = {R(rs1)} >> {imm & 63}")
            return False
        if op == oc.SLTI:
            if rd:
                E.add(f"{Wr(rd)} = 1 if {R(rs1)} < ({imm}) else 0")
            return False
        if op == oc.LI:
            if rd:
                E.add(f"{Wr(rd)} = {imm}")
            return False

        # --- floating point --------------------------------------------------
        _FRR = {oc.FADD: "+", oc.FSUB: "-", oc.FMUL: "*"}
        if op in _FRR:
            E.add(f"{Wg(rd)} = {G(rs1)} {_FRR[op]} {G(rs2)}")
            return False
        if op == oc.FDIV:
            inf = E.bind("inf", math.inf)
            nan = E.bind("nan", math.nan)
            E.add(f"va = {G(rs1)}; vb = {G(rs2)}")
            E.add(f"{Wg(rd)} = va / vb if vb != 0.0 else ({inf} if va > 0 "
                  f"else (-{inf} if va < 0 else {nan}))")
            return False
        if op in (oc.FMIN, oc.FMAX):
            fn = E.bind("mm", min if op == oc.FMIN else max)
            E.add(f"{Wg(rd)} = {fn}({G(rs1)}, {G(rs2)})")
            return False
        if op == oc.FNEG:
            E.add(f"{Wg(rd)} = -{G(rs1)}")
            return False
        if op == oc.FABS:
            E.add(f"{Wg(rd)} = {E.bind('abs', abs)}({G(rs1)})")
            return False
        if op == oc.FSQRT:
            sq = E.bind("sqrt", math.sqrt)
            nan = E.bind("nan", math.nan)
            E.add(f"va = {G(rs1)}")
            E.add(f"{Wg(rd)} = {sq}(va) if va >= 0.0 else {nan}")
            return False
        if op in (oc.FSIN, oc.FCOS):
            fn = E.bind("trig", math.sin if op == oc.FSIN else math.cos)
            E.add(f"{Wg(rd)} = {fn}({G(rs1)})")
            return False
        if op == oc.FMV:
            E.add(f"{Wg(rd)} = {G(rs1)}")
            return False
        if op == oc.FLI:
            c = E.bind("c", float(imm))
            E.add(f"{Wg(rd)} = {c}")
            return False
        _FCMP = {oc.FEQ: "==", oc.FLT: "<", oc.FLE: "<="}
        if op in _FCMP:
            if rd:
                E.add(f"{Wr(rd)} = 1 if {G(rs1)} {_FCMP[op]} {G(rs2)} else 0")
            return False
        if op == oc.FCVTFI:
            E.add(f"{Wg(rd)} = float({R(rs1)})")
            return False
        if op == oc.FCVTIF:
            AF = E.bind("AF", ArithmeticFault)
            isfin = E.bind("fin", math.isfinite)
            E.add(f"va = {G(rs1)}")
            E.add(f"if not {isfin}(va):")
            self._fault(k, AF, "'float->int of non-finite value'", pc_byte)
            if rd:
                _wrap_assign(E, Wr(rd), "int(va)")
            return False

        # --- control flow ----------------------------------------------------
        nxt = index + 1
        if op in _BRANCHES:
            assert last, "conditional branches always end a trace"
            tgt = machine._target_index(imm, index)
            cond = f"{R(rs1)} {_BRANCHES[op]} {R(rs2)}"
            E.add(f"{m}.icount = ic + {n}")
            self._sync()
            E.add(f"return {tgt} if {cond} else {nxt}")
            return True
        if op in (oc.J, oc.JAL):
            if op == oc.JAL and rd:
                E.add(f"{Wr(rd)} = {index_to_pc(nxt)}")
            if last:
                E.add(f"{m}.icount = ic + {n}")
                self._sync()
                E.add(f"return {machine._target_index(imm, index)}")
                return True
            # mid-trace: the walk already continued at the static target
            return False
        if op in (oc.JALR, oc.RET):
            II = E.bind("II", IllegalInstruction)
            ninstr = len(machine.instrs)
            if op == oc.JALR:
                base = f"{R(rs1)} + {imm}" if imm else R(rs1)
                what = "jalr to invalid target"
            else:
                base = R(1)
                what = "ret to invalid address"
            # the target check may raise: registers are stored first
            E.add(f"{m}.icount = ic + {n}")
            self._sync()
            E.add(f"t = (({base}) - {CODE_BASE}) >> 4")
            E.add(f"if not 0 <= t < {ninstr}:")
            E.add(f"    raise {II}('{what} %#x' % ({base}), pc={pc_byte})")
            if op == oc.JALR and rd:
                E.add(f"{self.x}[{rd}] = {index_to_pc(nxt)}")
            E.add("return t")
            return True
        if op == oc.ECALL:
            E.add(f"{m}.icount = ic + {n}")
            # syscalls read and write machine.x (and f[0]) themselves
            self._sync()
            sc = E.bind("sc", machine.syscall.call)
            E.add(f"return {nxt} if {sc}({index}) else -1")
            return True
        if op == oc.HALT:
            E.add(f"{m}.icount = ic + {n}")
            self._sync()
            E.add(f"if {m}.exit_code is None: {m}.exit_code = 0")
            E.add("return -1")
            return True
        raise IllegalInstruction(f"unimplemented opcode {ins.info.name}",
                                 pc=pc_byte)
