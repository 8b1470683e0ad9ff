"""Reference implementations the differential tests compare against.

The product analyses record accesses into flat buffers and aggregate
them in bulk (:mod:`repro.core.recording`, :mod:`repro.quad.shadow`).
The tools here are the straightforward originals, kept so the tests and
the benchmarks' reference legs have an independent implementation:

* :class:`PerEventTQuadTool` — tQUAD as the paper's Figs. 3–5 read:
  ``IncreaseRead``/``IncreaseWrite`` attribute every access to the
  current kernel and time slice as it happens, snapshotting the
  in-flight slice whenever a new one starts.
* :class:`PerByteQuadTool` — QUAD's byte-granular ``dict`` last-writer
  shadow with one Python address set per kernel and UnMA view.

Both are written against the public Pin API and return the product's
report types, so their reports compare byte for byte with the product's.
No product module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.callstack import CallStack
from ..core.ledger import BandwidthLedger
from ..core.options import StackPolicy, TQuadOptions
from ..core.report import TQuadReport
from ..pin import IARG, INS, IPOINT, PinEngine, RTN
from ..quad.report import KernelIO, QuadReport


class PerEventTQuadTool:
    """tQUAD with one attribution step per memory access."""

    def __init__(self, options: TQuadOptions | None = None):
        self.options = options or TQuadOptions()
        self.callstack = CallStack(
            exclude_library_accesses=self.options.exclude_libraries)
        self.ledger = BandwidthLedger(self.options.slice_interval)
        #: the in-flight slice: kernel -> [r_incl, r_excl, w_incl, w_excl]
        self.cur: dict[str, list[int]] = {}
        self.cur_slice = 0
        self.prefetches_skipped = 0
        self.finished = False
        self._machine = None
        self._images: dict[str, str] = {}
        self._on_read = None
        self._on_write = None

    def attach(self, engine: PinEngine) -> "PerEventTQuadTool":
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        self._on_read = self._make_on_access(write=False)
        self._on_write = self._make_on_access(write=True)
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsPrefetch():
            # the paper's "return immediately upon detection of a
            # prefetch", with the guard inside the analysis routine
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._increase_read,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP,
                IARG.IS_PREFETCH)
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._on_read,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._on_write,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def _increase_read(self, ea: int, size: int, sp: int,
                       is_prefetch: bool) -> None:
        """``IncreaseRead`` with the prefetch guard of the paper."""
        if is_prefetch:
            self.prefetches_skipped += 1
            return
        self._on_read(ea, size, sp)

    def _advance(self, new_slice: int) -> None:
        """Snapshot the finished slice (paper: "memory bandwidth snapshot
        management") and start a new one."""
        s = self.cur_slice
        for name, c in self.cur.items():
            self.ledger.accumulate(name, s, c[0], c[1], c[2], c[3])
        self.cur.clear()
        self.cur_slice = new_slice

    def _make_on_access(self, *, write: bool):
        """The analysis routine for one direction.

        One parameterized closure replaces the paper's six near-identical
        ``Increase{Read,Write}[{Incl,Excl}]`` variants: the stack policy
        selects which of the four counters get the bytes, and whether
        stack accesses are discarded up front.
        """
        policy = self.options.stack
        exclude_libs = self.options.exclude_libraries
        cs = self.callstack
        interval = self.ledger.interval
        machine = self._machine
        tool = self
        incl_col = 2 if write else 0
        excl_col = 3 if write else 1
        track_incl = policy is not StackPolicy.EXCLUDE
        track_excl = policy is not StackPolicy.INCLUDE

        def on_access(ea: int, size: int, sp: int) -> None:
            if not track_incl and ea >= sp:
                return  # local stack area: discarded before any tracing work
            if cs.in_library and exclude_libs:
                return
            name = cs.current_kernel
            if name is None:
                return
            s = (machine.icount - 1) // interval
            if s != tool.cur_slice:
                tool._advance(s)
            c = tool.cur.get(name)
            if c is None:
                c = tool.cur[name] = [0, 0, 0, 0]
            if track_incl:
                c[incl_col] += size
            if track_excl and ea < sp:
                c[excl_col] += size
        return on_access

    def _fini(self, exit_code: int) -> None:
        self._advance(self.cur_slice + 1)
        self.finished = True

    def report(self) -> TQuadReport:
        if not self.finished:
            raise RuntimeError("run the engine before asking for the report")
        return TQuadReport(ledger=self.ledger, options=self.options,
                           total_instructions=self._machine.icount,
                           images=dict(self._images))


@dataclass
class _KernelSets:
    """One kernel's QUAD accumulators, UnMA as address sets."""

    in_bytes_incl: int = 0
    in_bytes_excl: int = 0
    out_bytes_incl: int = 0
    out_bytes_excl: int = 0
    in_unma_incl: set[int] = field(default_factory=set)
    in_unma_excl: set[int] = field(default_factory=set)
    out_unma_incl: set[int] = field(default_factory=set)
    out_unma_excl: set[int] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    reads_nonstack: int = 0
    writes_nonstack: int = 0

    def row(self) -> KernelIO:
        return KernelIO(**{k: len(v) if isinstance(v, set) else v
                           for k, v in vars(self).items()})


class PerByteQuadTool:
    """QUAD over a per-byte ``dict`` shadow and per-kernel address sets.

    :meth:`on_read`/:meth:`on_write` take ``(ea, size, sp)`` and
    attribute to ``callstack.current_kernel``, so a test can drive them
    without an engine; :meth:`attach` registers them as analysis
    routines.
    """

    def __init__(self, *, track_bindings: bool = True):
        self.track_bindings = track_bindings
        self.callstack = CallStack()
        self.shadow: dict[int, str] = {}          #: addr -> last writer
        self.kernels: dict[str, _KernelSets] = {}
        #: (producer, consumer) -> [bytes incl. stack, bytes excl. stack]
        self.bindings: dict[tuple[str, str], list[int]] = {}
        self._machine = None
        self._images: dict[str, str] = {}

    def attach(self, engine: PinEngine) -> "PerByteQuadTool":
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsPrefetch():
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self.on_read,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self.on_write,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def _io(self, name: str) -> _KernelSets:
        io = self.kernels.get(name)
        if io is None:
            io = self.kernels[name] = _KernelSets()
        return io

    def on_write(self, ea: int, size: int, sp: int) -> None:
        name = self.callstack.current_kernel
        if name is None:
            return
        io = self._io(name)
        io.writes += 1
        if ea < sp:
            io.writes_nonstack += 1
        shadow = self.shadow
        incl = io.out_unma_incl
        excl = io.out_unma_excl
        for addr in range(ea, ea + size):
            shadow[addr] = name
            incl.add(addr)
            if addr < sp:
                excl.add(addr)

    def on_read(self, ea: int, size: int, sp: int) -> None:
        name = self.callstack.current_kernel
        if name is None:
            return
        io = self._io(name)
        io.reads += 1
        io.in_bytes_incl += size
        if ea < sp:
            io.reads_nonstack += 1
        shadow = self.shadow
        kernels = self.kernels
        bindings = self.bindings
        track = self.track_bindings
        in_incl = io.in_unma_incl
        in_excl = io.in_unma_excl
        for addr in range(ea, ea + size):
            below = addr < sp
            in_incl.add(addr)
            if below:
                io.in_bytes_excl += 1
                in_excl.add(addr)
            producer = shadow.get(addr)
            if producer is None:
                continue
            pio = kernels[producer]
            pio.out_bytes_incl += 1
            if below:
                pio.out_bytes_excl += 1
            if track:
                key = (producer, name)
                b = bindings.get(key)
                if b is None:
                    b = bindings[key] = [0, 0]
                b[0] += 1
                if below:
                    b[1] += 1

    def report(self) -> QuadReport:
        total = self._machine.icount if self._machine is not None else 0
        return QuadReport(
            kernels={name: io.row() for name, io in self.kernels.items()},
            bindings={key: list(v) for key, v in self.bindings.items()},
            images=dict(self._images), total_instructions=total)
