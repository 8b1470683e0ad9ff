"""The tQUAD profiler pintool.

This module mirrors the paper's implementation section (§IV-C, Figures 3–5):

* ``attach`` plays the role of the tQUAD ``main`` — it registers the
  ``Instruction`` and ``UpdateCallStack`` instrumentation routines;
* ``_instrument_instruction`` is ``Instruction()``: it inserts predicated
  analysis calls ``IncreaseRead``/``IncreaseWrite`` on memory instructions,
  watches for returns to keep the internal call stack intact, and initiates
  the time-slice snapshot management;
* ``_instrument_routine`` is ``UpdateCallStack()``: it inserts ``EnterFC``
  at routine entries, passing the routine name and an image flag;
* the analysis routines return immediately for prefetches.

Analysis records instead of attributing on the spot: memory accesses are
appended to flat buffers and bulk-aggregated with NumPy at flush time
(:mod:`repro.core.recording`); inside superblocks the record append is
inlined into generated code.  The paper's per-event ``IncreaseRead`` /
``IncreaseWrite`` attribution survives as the differential tests'
reference, :class:`repro.testing.oracles.PerEventTQuadTool`.
"""

from __future__ import annotations

from ..pin import IARG, INS, IPOINT, PinEngine, RTN
from .callstack import CallStack
from .ledger import BandwidthLedger
from .options import TQuadOptions
from .recording import (CapturingRecordingSink, RecordBuffers,
                        RecordingSink, make_recorder)
from .report import TQuadReport


class TQuadTool:
    """Temporal memory-bandwidth profiler (the paper's primary artifact).

    With ``capture`` set (any page sink with ``add(stream, data)`` — a
    :class:`repro.capture.writer.CaptureWriter` or ``CaptureCollector``),
    the tool *records only*: every sealed quad buffer goes to the capture
    and nothing is folded into the ledger, so :meth:`report` refuses —
    replay the capture (:mod:`repro.capture.replay`) instead.
    """

    def __init__(self, options: TQuadOptions | None = None, *,
                 capture=None):
        self.options = options or TQuadOptions()
        self.capture = capture
        # Library-frame accesses are recorded with marked kernel ids
        # (``-2 - id``) so captured pages can serve either library-inclusion
        # view by a column mask; the flush folds them back, keeping live
        # reports unchanged.
        self.callstack = CallStack(
            exclude_library_accesses=self.options.exclude_libraries,
            mark_library=not self.options.exclude_libraries)
        self.ledger = BandwidthLedger(self.options.slice_interval)
        self._engine: PinEngine | None = None
        self._machine = None
        self._images: dict[str, str] = {}
        self._sink: RecordBuffers | None = None
        self._rec_read = None
        self._rec_write = None
        self.prefetches_skipped = 0
        self.finished = False

    # ------------------------------------------------------------- plumbing
    def attach(self, engine: PinEngine) -> "TQuadTool":
        """Register instrumentation with the engine (Pin ``main`` analogue)."""
        if self._engine is not None:
            raise RuntimeError("tool already attached")
        self._engine = engine
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        if self.capture is not None:
            self._sink = CapturingRecordingSink(
                self.callstack, self.options.stack,
                self.options.slice_interval, self.capture)
        else:
            self._sink = RecordingSink(self.ledger, self.callstack,
                                       self.options.stack)
        self._rec_read = make_recorder(self._sink, engine.machine,
                                       write=False)
        self._rec_write = make_recorder(self._sink, engine.machine,
                                        write=True)
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def reset(self) -> None:
        """Prepare the attached tool for another independent run.

        The engine's compiled code cache embeds this tool's analysis
        closures, which capture the call stack, ledger and sink *objects* —
        so those are reset in place (or container-swapped) rather than
        replaced, and the expensive instrumented compilation is reused.
        The ledger's table is replaced rather than cleared, so series
        views and merged copies of the previous run stay valid.
        """
        self.callstack.reset()
        self.ledger.reset()
        if self._sink is not None:
            self._sink.reset()
        if self.capture is not None and hasattr(self.capture, "reset"):
            self.capture.reset()
        self.prefetches_skipped = 0
        self.finished = False

    def _instrument_instruction(self, ins: INS) -> None:
        """``Instruction()`` — see paper Fig. 4."""
        if ins.IsPrefetch():
            # the paper's "return immediately upon detection of a prefetch"
            ins.InsertPredicatedCall(IPOINT.BEFORE, self._count_prefetch)
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._rec_read,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._rec_write,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        """``UpdateCallStack()`` — see paper Fig. 5."""
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    # ------------------------------------------------------ analysis routines
    def _count_prefetch(self) -> None:
        """Prefetch guard (static: the call is only inserted on prefetch
        instructions)."""
        self.prefetches_skipped += 1

    def flush(self) -> None:
        """Aggregate the buffered records into the ledger (or spill them
        to the capture)."""
        self._sink.flush()

    def _fini(self, exit_code: int) -> None:
        self.flush()
        self.finished = True

    # ------------------------------------------------------------- results
    def report(self, *, allow_partial: bool = False) -> TQuadReport:
        """The profiling results (valid after the engine has run).

        With ``allow_partial=True`` a report can also be produced after the
        guest crashed (memory fault, budget exhaustion, …): the buffered
        records are flushed and the report is marked ``complete=False``.
        A capture-attached tool has no report.
        """
        if self.capture is not None:
            raise RuntimeError(
                "a capture-attached TQuadTool records only and has no "
                "report; replay the capture (repro.capture.replay_tquad)")
        if not self.finished:
            if not allow_partial:
                raise RuntimeError(
                    "run the engine before asking for the report "
                    "(or pass allow_partial=True after a guest crash)")
            self.flush()
        total = self._machine.icount
        return TQuadReport(ledger=self.ledger, options=self.options,
                           total_instructions=total,
                           images=dict(self._images),
                           complete=self.finished)


def run_tquad(program, *, options: TQuadOptions | None = None, fs=None,
              max_instructions: int | None = None,
              mem_size: int | None = None,
              jit: bool = True) -> TQuadReport:
    """Convenience: profile ``program`` with tQUAD and return the report."""
    kwargs = {"fs": fs, "jit": jit}
    if mem_size is not None:
        kwargs["mem_size"] = mem_size
    engine = PinEngine(program, **kwargs)
    tool = TQuadTool(options).attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report()
