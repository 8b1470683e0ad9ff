"""The Pin-workalike dynamic binary instrumentation engine.

The engine owns a :class:`~repro.vm.machine.Machine` and hooks its code
cache: the first time a program counter is reached the registered
*instrumentation* callbacks run once, deciding which *analysis* calls to
insert before the instruction (paper §IV-B: "the JIT compiles and instruments
the application code, which is then stored in the code cache").

API surface mirrors the slice of Pin the tQUAD paper uses (Figures 3–5):

* ``INS_AddInstrumentFunction`` / ``RTN_AddInstrumentFunction``
* ``INS.InsertCall`` / ``INS.InsertPredicatedCall`` with ``IARG_*``
* routine objects carrying name/image (``PIN_InitSymbols`` analogue: symbol
  information is always available from the Program's routine table)
* ``AddFiniFunction``

Predication semantics match Pin: a call inserted with
``InsertPredicatedCall`` is skipped when the instruction's guard register is
false; a plain ``InsertCall`` always runs.
"""

from __future__ import annotations

from typing import Callable

from ..isa.instruction import NO_PRED, Instr
from ..isa.registers import RA, SP
from ..obs import TELEMETRY as _TELEMETRY
from ..vm.filesystem import GuestFS
from ..vm.layout import DEFAULT_MEM_SIZE, index_to_pc
from ..vm.machine import Machine, StepFn
from ..vm.program import Program, Routine
from ..vm.superblock import FALLBACK, InsPlan
from .iargs import IARG, IPOINT, STATIC_IARGS


class _AnalysisCall:
    """One requested analysis-call insertion."""

    __slots__ = ("fn", "iargs", "predicated")

    def __init__(self, fn: Callable, iargs: tuple[IARG, ...],
                 predicated: bool):
        self.fn = fn
        self.iargs = iargs
        self.predicated = predicated


class INS:
    """Instrumentation-time view of one instruction."""

    __slots__ = ("index", "ins", "_engine", "_calls")

    def __init__(self, index: int, ins: Instr, engine: "PinEngine"):
        self.index = index
        self.ins = ins
        self._engine = engine
        self._calls: list[_AnalysisCall] = []

    # -- inspection (Pin's INS_* predicates) --------------------------------
    def Address(self) -> int:
        return index_to_pc(self.index)

    def IsMemoryRead(self) -> bool:
        return self.ins.is_memory_read()

    def IsMemoryWrite(self) -> bool:
        return self.ins.is_memory_write()

    def MemoryReadSize(self) -> int:
        return self.ins.memory_read_size()

    def MemoryWriteSize(self) -> int:
        return self.ins.memory_write_size()

    def IsRet(self) -> bool:
        return self.ins.is_ret()

    def IsCall(self) -> bool:
        return self.ins.is_call()

    def IsBranch(self) -> bool:
        return self.ins.is_branch()

    def IsPrefetch(self) -> bool:
        return self.ins.is_prefetch()

    def IsPredicated(self) -> bool:
        return self.ins.is_predicated()

    def Mnemonic(self) -> str:
        return self.ins.info.name

    def Routine(self) -> "RTN | None":
        rtn = self._engine.program.routine_at(self.index)
        return RTN(rtn, self._engine) if rtn is not None else None

    # -- insertion -----------------------------------------------------------
    def InsertCall(self, point: IPOINT, fn: Callable, *iargs: IARG) -> None:
        if point is not IPOINT.BEFORE:
            raise ValueError("only IPOINT.BEFORE is supported")
        self._calls.append(_AnalysisCall(fn, iargs, predicated=False))

    def InsertPredicatedCall(self, point: IPOINT, fn: Callable,
                             *iargs: IARG) -> None:
        if point is not IPOINT.BEFORE:
            raise ValueError("only IPOINT.BEFORE is supported")
        self._calls.append(_AnalysisCall(fn, iargs, predicated=True))


class RTN:
    """Instrumentation-time view of one routine (function)."""

    __slots__ = ("routine", "_engine", "_calls")

    def __init__(self, routine: Routine, engine: "PinEngine"):
        self.routine = routine
        self._engine = engine
        self._calls: list[_AnalysisCall] = []

    def Name(self) -> str:
        return self.routine.name

    def ImageName(self) -> str:
        return self.routine.image

    def IsMainImage(self) -> bool:
        return self.routine.image == "main"

    def Address(self) -> int:
        return self.routine.start_pc

    def Size(self) -> int:
        return self.routine.size

    def InsertCall(self, point: IPOINT, fn: Callable, *iargs: IARG) -> None:
        """Insert an analysis call at the routine's entry."""
        if point is not IPOINT.BEFORE:
            raise ValueError("only IPOINT.BEFORE is supported")
        self._calls.append(_AnalysisCall(fn, iargs, predicated=False))


_UNPLANNED = object()


class PinEngine:
    """Instruments and runs one guest program."""

    def __init__(self, program: Program, *, fs: GuestFS | None = None,
                 mem_size: int = DEFAULT_MEM_SIZE, jit: bool = True):
        self.program = program
        self.machine = Machine(program, fs=fs, mem_size=mem_size, jit=jit)
        self.machine.instrument_hook = self._instrument
        self.machine.block_instrumenter = self
        self._ins_cbs: list[Callable[[INS], None]] = []
        self._rtn_cbs: list[Callable[[RTN], None]] = []
        self._fini_cbs: list[Callable[[int], None]] = []
        self.analysis_calls_inserted = 0
        # instrumentation results are memoized per static instruction so the
        # callbacks run exactly once even when the index is visited both by
        # the superblock builder (possibly via overlapping blocks) and by the
        # per-instruction tier (budget tail / jit=False)
        self._thunk_cache: dict[int, list[tuple[Callable[[], None],
                                                _AnalysisCall]]] = {}
        self._plan_cache: dict[int, object] = {}

    # ------------------------------------------------------------ Pin API
    def INS_AddInstrumentFunction(self, cb: Callable[[INS], None]) -> None:
        self._ins_cbs.append(cb)

    def RTN_AddInstrumentFunction(self, cb: Callable[[RTN], None]) -> None:
        self._rtn_cbs.append(cb)

    def AddFiniFunction(self, cb: Callable[[int], None]) -> None:
        self._fini_cbs.append(cb)

    def add_tool(self, tool: "object") -> "object":
        """Attach a tool object exposing ``attach(engine)`` (our pintools)."""
        tool.attach(self)
        return tool

    def run(self, max_instructions: int | None = None) -> int:
        """Execute the instrumented program; returns the guest exit code."""
        code = self.machine.run(max_instructions=max_instructions)
        for cb in self._fini_cbs:
            cb(code)
        return code

    # ------------------------------------------------------- thunk building
    def _resolve_static(self, arg: IARG, index: int, ins: Instr,
                        rtn: Routine | None):
        if arg is IARG.INST_PTR:
            return index_to_pc(index)
        if arg is IARG.MEMORY_SIZE:
            return ins.info.mem_read or ins.info.mem_write
        if arg is IARG.IS_PREFETCH:
            return ins.info.is_prefetch
        if arg is IARG.RTN_NAME:
            return rtn.name if rtn else "?"
        if arg is IARG.RTN_IMAGE:
            return rtn.image if rtn else "?"
        raise ValueError(f"{arg} is not static")

    def _build_thunk(self, call: _AnalysisCall, index: int,
                     ins: Instr) -> Callable[[], None]:
        """Compile one analysis call into a zero-argument thunk."""
        m = self.machine
        x = m.x
        fn = call.fn
        rtn = self.program.routine_at(index)
        iargs = call.iargs
        self.analysis_calls_inserted += 1
        # memoized per static instruction (see _thunk_cache), so this is
        # bounded by program size, not by execution length
        _TELEMETRY.count("pin/analysis_calls_inserted")

        if all(a in STATIC_IARGS for a in iargs):
            consts = tuple(self._resolve_static(a, index, ins, rtn)
                           for a in iargs)
            if not consts:
                return fn
            return lambda: fn(*consts)

        # Fast paths for the descriptor shapes the profilers actually use.
        rs1, imm = ins.rs1, ins.imm
        size = ins.info.mem_read or ins.info.mem_write
        if iargs == (IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP):
            return lambda: fn(x[rs1] + imm, size, x[SP])
        if iargs == (IARG.MEMORY_EA, IARG.MEMORY_SIZE):
            return lambda: fn(x[rs1] + imm, size)
        if iargs == (IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP,
                     IARG.IS_PREFETCH):
            pf = ins.info.is_prefetch
            return lambda: fn(x[rs1] + imm, size, x[SP], pf)

        # Generic: mix of static constants and dynamic extractors.
        extractors = []
        for a in iargs:
            if a in STATIC_IARGS:
                const = self._resolve_static(a, index, ins, rtn)
                extractors.append(lambda _c=const: _c)
            elif a is IARG.MEMORY_EA:
                extractors.append(lambda: x[rs1] + imm)
            elif a is IARG.REG_SP:
                extractors.append(lambda: x[SP])
            elif a is IARG.ICOUNT:
                extractors.append(lambda: m.icount)
            elif a is IARG.RETURN_PC:
                extractors.append(lambda: x[RA])
            else:  # pragma: no cover
                raise ValueError(f"unsupported IARG {a}")
        extractors = tuple(extractors)
        return lambda: fn(*[e() for e in extractors])

    # ------------------------------------------------------- the JIT hook
    def _thunks_for(self, index: int, ins: Instr
                    ) -> list[tuple[Callable[[], None], _AnalysisCall]]:
        """Run the instrumentation callbacks for ``index`` (once, memoized)
        and return the compiled analysis thunks in insertion order.

        Routine-entry instrumentation fires when the first instruction of a
        routine is compiled; its calls run before the instruction's own.
        """
        entry = self._thunk_cache.get(index)
        if entry is not None:
            return entry
        calls: list[_AnalysisCall] = []
        rtn = self.program.routine_at(index)
        if rtn is not None and index == rtn.start and self._rtn_cbs:
            robj = RTN(rtn, self)
            for cb in self._rtn_cbs:
                cb(robj)
            calls.extend(robj._calls)
        if self._ins_cbs:
            iobj = INS(index, ins, self)
            for cb in self._ins_cbs:
                cb(iobj)
            calls.extend(iobj._calls)
        entry = [(self._build_thunk(c, index, ins), c) for c in calls]
        self._thunk_cache[index] = entry
        return entry

    def _instrument(self, index: int, ins: Instr, base: StepFn) -> StepFn:
        """Machine compile hook: wrap ``base`` with analysis calls."""
        always: list[Callable[[], None]] = []
        predicated: list[Callable[[], None]] = []
        for thunk, call in self._thunks_for(index, ins):
            if call.predicated and ins.pred != NO_PRED:
                predicated.append(thunk)
            else:
                always.append(thunk)
        return self._compose(ins, base, always, predicated)

    # ------------------------------------------------- the superblock hook
    def plan(self, index: int, ins: Instr):
        """Block-plan provider for :mod:`repro.vm.superblock`.

        Returns ``None`` (no analysis on this instruction),
        :data:`~repro.vm.superblock.FALLBACK` (per-instruction visibility
        required — any analysis on a *predicated* instruction, where Pin's
        guard semantics gate the calls), or an
        :class:`~repro.vm.superblock.InsPlan` whose thunks/record sinks the
        block compiler inlines.  Analysis thunks run with ``machine.icount``
        restored to its exact per-instruction value, so arbitrary tools
        (gprof-sim, QUAD, imix, …) stay fused.
        """
        plan = self._plan_cache.get(index, _UNPLANNED)
        if plan is not _UNPLANNED:
            return plan
        thunks = self._thunks_for(index, ins)
        if not thunks:
            plan = None
        elif ins.pred != NO_PRED:
            plan = FALLBACK
        else:
            pre: list[Callable[[], None]] = []
            read_sinks: list = []
            write_sinks: list = []
            rec_shape = (IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
            for thunk, call in thunks:
                sink = getattr(call.fn, "record_sink", None)
                if sink is not None and call.iargs == rec_shape:
                    kind = call.fn.record_kind
                    if (kind == "read" and ins.info.mem_read
                            and not ins.info.is_prefetch):
                        read_sinks.append(sink)
                        continue
                    if kind == "write" and ins.info.mem_write:
                        write_sinks.append(sink)
                        continue
                pre.append(thunk)
            plan = InsPlan(tuple(pre), tuple(read_sinks),
                           tuple(write_sinks))
        self._plan_cache[index] = plan
        return plan

    def _compose(self, ins: Instr, base: StepFn,
                 always: list[Callable[[], None]],
                 predicated: list[Callable[[], None]]) -> StepFn:
        x = self.machine.x
        pred = ins.pred

        if pred == NO_PRED:
            if not always:
                return base
            if len(always) == 1:
                t0 = always[0]
                return lambda pc: (t0(), base(pc))[-1]
            if len(always) == 2:
                t0, t1 = always
                return lambda pc: (t0(), t1(), base(pc))[-1]
            thunks = tuple(always)

            def fn(pc):
                for t in thunks:
                    t()
                return base(pc)
            return fn

        a_thunks = tuple(always)
        p_thunks = tuple(predicated)

        def fn(pc):
            for t in a_thunks:
                t()
            if x[pred]:
                for t in p_thunks:
                    t()
                return base(pc)
            return pc + 1
        return fn
