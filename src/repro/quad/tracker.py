"""QUAD — memory access pattern analyser (Ostadzadeh et al., ARC 2010).

tQUAD's companion tool: it reveals the quantitative data communication
between kernels through a byte-granular *shadow memory* that remembers the
last writer of every address.  When a kernel reads a byte last written by
another kernel, a producer→consumer *binding* is recorded.

Per kernel it accumulates the four Table II columns, in both stack-included
and stack-excluded views:

* ``IN``       — total bytes read by the function
* ``IN UnMA``  — unique memory addresses used in reading
* ``OUT``      — total bytes read *by any function* from locations this
  function previously wrote (i.e. consumed production)
* ``OUT UnMA`` — unique memory addresses used in writing

Accesses are recorded as packed records that the engine inlines into
superblocks and drained in bulk into the paged, kernel-ID-interned NumPy
shadow of :mod:`repro.quad.shadow`.  The original per-byte ``dict``/``set``
walk is the differential tests' reference,
:class:`repro.testing.oracles.PerByteQuadTool`.

Stack classification is per *byte* for the byte-denominated columns: an
access straddling the stack pointer (``ea < sp <= ea + size``) contributes
only its below-SP bytes to the ``excl`` views, while the dynamic access
counters (``reads_nonstack``/``writes_nonstack``) stay whole-access
(``ea < sp``).
"""

from __future__ import annotations

from ..core.callstack import CallStack
from ..pin import IARG, INS, IPOINT, PinEngine, RTN
from .report import QuadReport
from .shadow import CapturingPagedQuadSink, PagedQuadSink, make_raw_recorder


class QuadTool:
    """The QUAD pintool.

    With ``capture`` set, the tool *records only* (the QUAD half of
    capture once / analyze many): its sink spills every sealed record
    buffer to the capture and keeps no shadow state, so :meth:`report`
    refuses — replay the capture (:func:`repro.capture.replay_quad`).
    """

    def __init__(self, *, track_bindings: bool = True, capture=None):
        self.capture = capture
        self.track_bindings = track_bindings
        self.callstack = CallStack()
        self.sink: PagedQuadSink | CapturingPagedQuadSink | None = None
        self._rec_read = None
        self._rec_write = None
        self._machine = None
        self._images: dict[str, str] = {}
        self.finished = False

    # ------------------------------------------------------------ plumbing
    def attach(self, engine: PinEngine) -> "QuadTool":
        if self._machine is not None:
            raise RuntimeError("tool already attached")
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        if self.capture is not None:
            self.sink = CapturingPagedQuadSink(self.callstack, self.capture)
        else:
            self.sink = PagedQuadSink(self.callstack,
                                      track_bindings=self.track_bindings)
        self._rec_read = make_raw_recorder(self.sink, write=False)
        self._rec_write = make_raw_recorder(self.sink, write=True)
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsPrefetch():
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self._rec_read,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self._rec_write,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def flush(self) -> None:
        """Drain the buffered records and publish the shadow-memory
        footprint gauges (a capture-attached tool only spills: it has no
        shadow to measure)."""
        from .. import obs

        self.sink.flush()
        if self.capture is None:
            for key, value in self.sink.stats().items():
                obs.TELEMETRY.gauge(f"quad/{key}", value)

    def _fini(self, exit_code: int) -> None:
        self.flush()
        self.finished = True

    # ------------------------------------------------------------- results
    def report(self) -> QuadReport:
        if self.capture is not None:
            raise RuntimeError(
                "a capture-attached QuadTool records only and has no "
                "report; replay the capture (repro.capture.replay_quad)")
        if not self.finished:
            raise RuntimeError("run the engine before asking for the report")
        return self.sink.report(images=self._images,
                                total_instructions=self._machine.icount)


def run_quad(program, *, fs=None, track_bindings: bool = True,
             max_instructions: int | None = None,
             mem_size: int | None = None):
    """Convenience: run QUAD over ``program`` and return its report."""
    kwargs = {"fs": fs}
    if mem_size is not None:
        kwargs["mem_size"] = mem_size
    engine = PinEngine(program, **kwargs)
    tool = QuadTool(track_bindings=track_bindings)
    tool.attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report()
