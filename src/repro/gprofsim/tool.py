"""gprof-sim: a flat-profile baseline profiler (paper Tables I and III).

GNU gprof attributes time to functions by sampling the program counter every
10 ms and counts calls with compiled-in ``mcount`` stubs.  Running on the VM
we can do strictly better: call/return events give *exact* per-function self
and cumulative instruction counts (no statistical inaccuracy — the paper had
to run gprof "fifty times to gain more accuracy").  A sampling view with
gprof's noise characteristics can be derived from the exact profile
(:meth:`~repro.gprofsim.report.FlatProfile.sampled`).
"""

from __future__ import annotations

from ..pin import IARG, INS, IPOINT, PinEngine, RTN
from .report import FlatProfile, FlatRow


class _Frame:
    __slots__ = ("name", "entry_icount", "child_instructions")

    def __init__(self, name: str, entry_icount: int):
        self.name = name
        self.entry_icount = entry_icount
        self.child_instructions = 0


class GprofTool:
    """Exact flat + call-graph profiler."""

    def __init__(self):
        self.self_instructions: dict[str, int] = {}
        self.cumulative_instructions: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: (caller, callee) -> call count (the call-graph half of gprof)
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[_Frame] = []
        self._on_stack: dict[str, int] = {}       # name -> depth (recursion)
        self._last_event = 0
        self._machine = None
        self._images: dict[str, str] = {}
        self.finished = False

    def attach(self, engine: PinEngine) -> "GprofTool":
        if self._machine is not None:
            raise RuntimeError("tool already attached")
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self._on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self._on_enter, IARG.RTN_NAME)

    # ------------------------------------------------------------- analysis
    def _on_enter(self, name: str) -> None:
        # The analysis call runs *before* the routine's first instruction
        # executes (icount already includes it), so the caller is charged up
        # to ic-1 and the callee's span starts at its own first instruction.
        ic = self._machine.icount - 1
        stack = self._stack
        if stack:
            top = stack[-1]
            self.self_instructions[top.name] = (
                self.self_instructions.get(top.name, 0)
                + ic - self._last_event)
            key = (top.name, name)
            self.edges[key] = self.edges.get(key, 0) + 1
        self._last_event = ic
        stack.append(_Frame(name, ic))
        self._on_stack[name] = self._on_stack.get(name, 0) + 1
        self.calls[name] = self.calls.get(name, 0) + 1

    def _on_ret(self) -> None:
        stack = self._stack
        if not stack:
            return
        ic = self._machine.icount
        frame = stack.pop()
        name = frame.name
        self.self_instructions[name] = (
            self.self_instructions.get(name, 0) + ic - self._last_event)
        self._last_event = ic
        depth = self._on_stack[name] - 1
        self._on_stack[name] = depth
        elapsed = ic - frame.entry_icount
        if depth == 0:
            # only outermost activations add cumulative time (gprof's
            # recursion rule)
            self.cumulative_instructions[name] = (
                self.cumulative_instructions.get(name, 0) + elapsed)

    def _fini(self, exit_code: int) -> None:
        # Attribute the tail (between the last event and exit) to whatever
        # is still on the stack, innermost first.
        ic = self._machine.icount
        if self._stack:
            top = self._stack[-1]
            self.self_instructions[top.name] = (
                self.self_instructions.get(top.name, 0)
                + ic - self._last_event)
            self._last_event = ic
            for frame in self._stack:
                if self._on_stack.get(frame.name, 0) == 1:
                    self.cumulative_instructions[frame.name] = (
                        self.cumulative_instructions.get(frame.name, 0)
                        + ic - frame.entry_icount)
        self.finished = True

    # ------------------------------------------------------------- results
    def report(self, *, main_image_only: bool = True) -> FlatProfile:
        if not self.finished:
            raise RuntimeError("run the engine before asking for the report")
        rows = []
        for name, self_instr in self.self_instructions.items():
            if main_image_only and self._images.get(name, "main") != "main":
                continue
            rows.append(FlatRow(
                name=name,
                self_instructions=self_instr,
                cumulative_instructions=self.cumulative_instructions.get(
                    name, self_instr),
                calls=self.calls.get(name, 0)))
        rows.sort(key=lambda r: r.self_instructions, reverse=True)
        return FlatProfile(rows=rows,
                           total_instructions=self._machine.icount,
                           edges=dict(self.edges))


def run_gprof(program, *, fs=None, max_instructions: int | None = None,
              mem_size: int | None = None,
              main_image_only: bool = True) -> FlatProfile:
    """Convenience: profile ``program`` and return the flat profile."""
    kwargs = {"fs": fs}
    if mem_size is not None:
        kwargs["mem_size"] = mem_size
    engine = PinEngine(program, **kwargs)
    tool = GprofTool().attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report(main_image_only=main_image_only)
