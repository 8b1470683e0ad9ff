"""Shard execution: replay one shard under the full analysis stack.

A worker rebuilds a :class:`~repro.pin.PinEngine` from the shard's
snapshot, attaches the requested tools, seeds their attribution state from
the shard's call-stack image, runs to the shard boundary (exact budget) or
to guest exit (final shard, fini callbacks included), and extracts plain
picklable payloads for the merge stage.

Seeding is what makes mid-execution replay exact:

* tQUAD and QUAD rebuild their :class:`~repro.core.callstack.CallStack` by
  replaying ``enter(name, image)`` over the live frames — kernel
  attribution is a pure function of the frames below, so the replayed
  stack behaves identically to the serial one.
* gprof-sim adopts the frames with their *absolute* entry icounts
  (:meth:`~repro.gprofsim.tool.GprofTool.seed_frames`), so returns
  observed inside the shard charge cumulative time for the full
  activation, exactly as the serial run does.
* QUAD's shadow memory cannot be seeded cheaply (it is the whole write
  history), so a shard's sink *defers* reads whose producer is unknown
  within the shard (its ``defer_unknown`` tables), and the merge resolves
  them against the sequentially-composed shadow of all earlier shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..core.ledger import BandwidthLedger
from ..core.options import TQuadOptions
from ..core.profiler import TQuadTool
from ..gprofsim.tool import GprofTool
from ..obs import Telemetry
from ..pin import PinEngine
from ..quad.tracker import QuadTool
from ..vm.program import Program
from .checkpoint import ShardSpec


# ------------------------------------------------------------- tool specs
@dataclass(frozen=True)
class TQuadSpec:
    """Request a tQUAD profile in the parallel pipeline."""

    key: ClassVar[str] = "tquad"
    options: TQuadOptions = field(default_factory=TQuadOptions)
    #: Also collect capture pages (shipped home in the shard payload and
    #: merged by :mod:`repro.capture.segments`).
    capture: bool = False


@dataclass(frozen=True)
class QuadSpec:
    """Request a QUAD (data communication) profile."""

    key: ClassVar[str] = "quad"
    track_bindings: bool = True


@dataclass(frozen=True)
class GprofSpec:
    """Request a gprof-sim flat profile."""

    key: ClassVar[str] = "gprof"
    main_image_only: bool = True


ToolSpec = TQuadSpec | QuadSpec | GprofSpec


@dataclass(frozen=True)
class ShardRunnerFactory:
    """Picklable recipe for the supervisor's default runner.

    The supervisor ships a *factory* to each worker instead of a live
    runner so non-shard workloads (the corpus fleet) can ride the same
    fault-tolerant scheduling: any picklable callable with a
    ``result_type`` attribute that builds an object exposing
    ``execute(task) -> result_type`` and ``progress()`` works.
    """

    program: Program
    tool_specs: tuple[ToolSpec, ...]
    jit: bool = True

    result_type: ClassVar[type] = None  # type: ignore[assignment]

    def __call__(self, telemetry: Telemetry) -> "ShardRunner":
        return ShardRunner(self.program, self.tool_specs, jit=self.jit,
                           telemetry=telemetry)


# --------------------------------------------------------- shard payloads
@dataclass
class TQuadPayload:
    #: the shard's rows, detached from the tool's ledger (which the
    #: runner resets for its next shard)
    ledger: BandwidthLedger
    prefetches_skipped: int
    #: stream -> sealed capture pages (raw int64 bytes, shard-local
    #: kernel ids) when the spec asked for capture, else ``None``.
    capture_pages: dict[str, list[bytes]] | None = None
    #: shard-local kernel-id -> name table for remapping at merge.
    capture_kernels: list[str] | None = None


@dataclass
class GprofPayload:
    self_instructions: dict[str, int]
    cumulative_instructions: dict[str, int]
    calls: dict[str, int]
    edges: dict[tuple[str, str], int]


@dataclass
class ShardResult:
    index: int
    end_icount: int
    #: Guest exit code for the final shard, ``None`` for bounded shards.
    exit_code: int | None
    payloads: dict[str, object]


# ---------------------------------------------------------------- executor
def build_tools(engine: PinEngine,
                tool_specs: tuple[ToolSpec, ...]) -> list[tuple[ToolSpec,
                                                                object]]:
    """Attach one tool instance per spec on ``engine`` (unseeded)."""
    tools: list[tuple[ToolSpec, object]] = []
    for ts in tool_specs:
        if isinstance(ts, TQuadSpec):
            capture = None
            if ts.capture:
                from ..capture.writer import CaptureCollector

                capture = CaptureCollector()
            tool = TQuadTool(ts.options, capture=capture).attach(engine)
        elif isinstance(ts, QuadSpec):
            tool = QuadTool(track_bindings=ts.track_bindings).attach(engine)
            # a read that misses the shard-local shadow was last written
            # before the shard started: the merge resolves it
            tool.sink.defer_unknown = True
        elif isinstance(ts, GprofSpec):
            tool = GprofTool().attach(engine)
        else:
            raise TypeError(f"unknown tool spec {ts!r}")
        tools.append((ts, tool))
    return tools


def _seed_tool(ts: ToolSpec, tool, spec: ShardSpec) -> None:
    if isinstance(ts, GprofSpec):
        tool.seed_frames(spec.frames, spec.start_icount)
    else:
        for name, image, _entry in spec.frames:
            tool.callstack.enter(name, image)


class ShardRunner:
    """A reusable engine + tool set: compile once, replay many shards.

    Instrumented JIT compilation is the dominant fixed cost of a shard
    replay — compiled closures capture the machine's ``mem``/``x``/``f``
    and each tool's state containers *by identity*, so they cannot be
    shared between machines, but they survive both
    :meth:`~repro.vm.machine.Machine.restore` and the tools'
    ``reset()``.  Each worker process (and the inline executor) therefore
    keeps one runner and pays compilation once, not once per shard.
    """

    def __init__(self, program: Program, tool_specs: tuple[ToolSpec, ...],
                 *, jit: bool = True, telemetry: Telemetry | None = None):
        self.program = program
        self.tool_specs = tuple(tool_specs)
        self.jit = jit
        if telemetry is None:
            from .. import obs

            telemetry = obs.TELEMETRY
        self.telemetry = telemetry
        self._engine: PinEngine | None = None
        self._tools: list[tuple[ToolSpec, object]] | None = None

    def progress(self):
        """Monotone progress token for the supervisor's heartbeat: the
        replayed machine's ``icount`` stops advancing when a replay
        stalls, so the beat stops too."""
        engine = self._engine
        return engine.machine.icount if engine is not None else -1

    def execute(self, spec: ShardSpec) -> ShardResult:
        """Replay one shard and return its analysis payloads."""
        tele = self.telemetry
        if self._engine is None:
            self._engine = PinEngine(self.program, snapshot=spec.snapshot,
                                     jit=self.jit)
            self._tools = build_tools(self._engine, self.tool_specs)
        else:
            self._engine.machine.restore(spec.snapshot)
            for ts, tool in self._tools:
                tool.reset()
        engine, tools = self._engine, self._tools
        for ts, tool in tools:
            _seed_tool(ts, tool, spec)
        with tele.span("replay", cat="shard", shard=spec.index):
            if spec.end_icount is None:
                exit_code = engine.run()
            else:
                exit_code = engine.run_until(spec.end_icount)
                with tele.span("drain", cat="shard", shard=spec.index):
                    for ts, tool in tools:
                        if isinstance(ts, GprofSpec):
                            tool.flush_shard()
                        else:
                            tool.flush()
        tele.count("parallel/shards_replayed")
        with tele.span("payload", cat="shard", shard=spec.index):
            payloads: dict[str, object] = {}
            for ts, tool in tools:
                if isinstance(ts, TQuadSpec):
                    ledger = BandwidthLedger(tool.ledger.interval)
                    ledger.merge(tool.ledger)
                    payloads[ts.key] = TQuadPayload(
                        ledger=ledger,
                        prefetches_skipped=tool.prefetches_skipped,
                        capture_pages=(dict(tool.capture.pages)
                                       if ts.capture else None),
                        capture_kernels=(list(tool.callstack.interned_names)
                                         if ts.capture else None))
                elif isinstance(ts, QuadSpec):
                    payloads[ts.key] = tool.sink.export()
                elif isinstance(ts, GprofSpec):
                    payloads[ts.key] = GprofPayload(
                        self_instructions=tool.self_instructions,
                        cumulative_instructions=tool.cumulative_instructions,
                        calls=tool.calls, edges=tool.edges)
        return ShardResult(index=spec.index,
                           end_icount=engine.machine.icount,
                           exit_code=exit_code, payloads=payloads)


def execute_shard(program: Program, spec: ShardSpec,
                  tool_specs: tuple[ToolSpec, ...], *,
                  jit: bool = True) -> ShardResult:
    """Replay one shard in a one-off runner (convenience/test entry)."""
    return ShardRunner(program, tool_specs, jit=jit).execute(spec)


ShardRunnerFactory.result_type = ShardResult
