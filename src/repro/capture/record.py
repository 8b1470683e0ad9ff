"""Recording a capture: the call-event pintool and the run orchestrator.

The tQUAD and QUAD streams are produced by the tools' own capturing sinks
(:class:`repro.core.recording.CapturingRecordingSink`,
:class:`repro.quad.shadow.CapturingPagedQuadSink`), which spill sealed
record buffers and analyse nothing — this module adds the third stream,
call/return events for gprof-sim replay, plus :func:`capture_run`, which
attaches the requested recorders to one engine run and finalizes the
manifest.
"""

from __future__ import annotations

import os
from array import array
from typing import BinaryIO

from ..core.options import TQuadOptions
from ..core.profiler import TQuadTool
from ..obs import TELEMETRY
from ..pin import IARG, INS, IPOINT, PinEngine, RTN
from ..quad.tracker import QuadTool
from .format import (STREAM_CALLS, make_manifest, program_digest)
from .writer import CaptureWriter

#: Soft spill threshold for the call-event buffer, in elements (2 per
#: event) — call events are rare next to accesses, so pages seal slowly.
CALL_CAP = 1 << 16

#: Tool names accepted by :func:`capture_run` (and the streams they own).
CAPTURE_TOOLS = ("tquad", "gprof", "quad")


class CallEventRecorder:
    """A minimal pintool that records routine-entry and return events.

    Rows are ``(icount, routine_id)`` with the *raw* ``machine.icount`` at
    the callback — the replay applies gprof-sim's ``ic - 1`` entry
    convention itself — and ``(icount, -1)`` for returns.  Routine ids
    intern ``(name, image)`` pairs in first-appearance order; the table
    lands in the manifest.
    """

    def __init__(self, capture):
        self.capture = capture
        self.events = array("q")
        self.routines: list[tuple[str, str]] = []
        self._rids: dict[tuple[str, str], int] = {}
        self._machine = None

    def attach(self, engine: PinEngine) -> "CallEventRecorder":
        if self._machine is not None:
            raise RuntimeError("recorder already attached")
        self._machine = engine.machine
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self._on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self._on_enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def _on_enter(self, name: str, image: str) -> None:
        key = (name, image)
        rid = self._rids.get(key)
        if rid is None:
            rid = self._rids[key] = len(self.routines)
            self.routines.append(key)
        self.events.append(self._machine.icount)
        self.events.append(rid)
        if len(self.events) > CALL_CAP:
            self._spill()

    def _on_ret(self) -> None:
        self.events.append(self._machine.icount)
        self.events.append(-1)
        if len(self.events) > CALL_CAP:
            self._spill()

    def _spill(self) -> None:
        if self.events:
            self.capture.add(STREAM_CALLS, self.events.tobytes())
            del self.events[:]

    def _fini(self, exit_code: int) -> None:
        self._spill()


def capture_run(program, dest: "str | BinaryIO | CaptureWriter", *, fs=None,
                options: TQuadOptions | None = None,
                tools: tuple[str, ...] = CAPTURE_TOOLS, label: str = "",
                max_instructions: int | None = None,
                mem_size: int | None = None, jit: bool = True,
                on_engine=None, telemetry=TELEMETRY) -> dict:
    """Execute ``program`` once, recording capture streams for ``tools``.

    ``options.slice_interval`` becomes the capture *grain*: tQUAD replays
    are exact at any interval that is a multiple of it (see
    :mod:`repro.capture.replay`).  Returns the finalized manifest.  The
    attached tools record only — no ledger fold, no shadow drain while the
    guest runs — so they have no reports: replay the capture instead (the
    property tests assert replays equal live runs byte for byte).  QUAD's
    binding tracking is a replay choice (``replay_quad(track_bindings=)``).

    If the run fails (a guest fault, an exhausted budget), the writer
    this call opened is closed and a file it created at a path ``dest``
    is deleted; a :class:`CaptureWriter` passed in is the caller's to
    close.
    """
    unknown = [t for t in tools if t not in CAPTURE_TOOLS]
    if unknown:
        raise ValueError(f"unknown capture tools: {unknown!r}")
    if not tools:
        raise ValueError("capture needs at least one tool stream")
    options = options or TQuadOptions()
    owned = not isinstance(dest, CaptureWriter)
    writer = CaptureWriter(dest, telemetry=telemetry) if owned else dest
    try:
        kwargs = {"fs": fs, "jit": jit}
        if mem_size is not None:
            kwargs["mem_size"] = mem_size
        engine = PinEngine(program, **kwargs)
        if on_engine is not None:
            # expose the live engine (e.g. to a supervisor heartbeat that
            # watches ``machine.icount`` for progress) before the run starts
            on_engine(engine)
        tquad_tool = quad_tool = recorder = None
        if "tquad" in tools:
            tquad_tool = TQuadTool(options, capture=writer).attach(engine)
        if "quad" in tools:
            quad_tool = QuadTool(capture=writer).attach(engine)
        if "gprof" in tools:
            recorder = CallEventRecorder(writer).attach(engine)
        with telemetry.span("capture", cat="capture", label=label or None):
            exit_code = engine.run(max_instructions=max_instructions)
        manifest = make_manifest(
            program_sha=program_digest(program),
            label=label,
            tools=tools,
            grain=options.slice_interval,
            stack=options.stack.value,
            exclude_libraries=options.exclude_libraries,
            total_instructions=engine.machine.icount,
            exit_code=exit_code,
            images={r.name: r.image for r in program.routines},
            kernels=(list(tquad_tool.callstack.interned_names)
                     if tquad_tool else []),
            quad_kernels=(list(quad_tool.callstack.interned_names)
                          if quad_tool else []),
            routines=recorder.routines if recorder else [],
            mem_size=engine.machine.mem_size,
            prefetches_skipped=(tquad_tool.prefetches_skipped
                                if tquad_tool else 0))
        return writer.finalize(manifest)
    except BaseException:
        if owned:
            writer.close()
            if isinstance(dest, (str, os.PathLike)):
                # ZipFile(dest, "w") already truncated what was there
                os.remove(dest)
        raise
