"""The benchmark's four workloads: set-up, the timed op, the correctness
references and the per-layer probes of a traced run.

An op calls the program only through the public functions of its layers
and wraps each call in ``span(layer, call)``.  Untraced, ``span`` is
:func:`untraced`, which returns the shared no-op span; traced, the spans
are the op's layer boundaries.  Layers are named after the modules they
time:

=========  ==========================================================
minic      ``repro.minic.build_program``
vm         ``repro.vm.Machine.run``
pin        ``repro.core.run_tquad``; ``PinEngine`` with tools attached
capture    ``repro.capture.capture_run``
decode     ``CaptureReader`` with the page cache off
pagecache  ``CaptureReader`` with the ``.capture.pages`` sidecar
replay     ``replay_tquad`` / ``replay_gprof`` / ``replay_quad`` /
           ``replay_many``
sweep      ``repro.sweep.sweep_tquad``
stream     ``replay_many`` / ``replay_tquad`` under a ``mem_limit``
approx     ``approx_replay_tquad``
render     ``repro.serialize.*_to_json`` and the reports' ``format_table``
phases     ``repro.core.cluster_kernel_phases``
=========  ==========================================================

Every artifact an op renders is checked against a digest computed by an
independent route: a live Pin-tool run with ``TQuadTool``, ``GprofTool``
and ``QuadTool`` attached for the reports, one standalone
``replay_tquad`` per sweep cell, and capture replay plus the Table IV
golden file for the live ``wfs-live`` op.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs, serialize
from repro.apps.wfs import SMALL, TINY, WfsConfig, make_workspace, wfs_source
from repro.capture import (CaptureReader, ReplayBundle, approx_replay_tquad,
                           capture_run, replay_gprof, replay_many,
                           replay_quad, replay_tquad, sidecar_path)
from repro.capture.approx import TOTAL_KEYS
from repro.core import (StackPolicy, TQuadOptions, TQuadTool,
                        cluster_kernel_phases, run_tquad)
from repro.gprofsim import GprofTool
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.sweep import SweepGrid, sweep_tquad
from repro.testing.workloads import WorkloadSpec, generate_workload
from repro.vm import Machine

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_TABLE4 = ROOT / "tests" / "golden" / "table4_phases.txt"

#: Every tool a capture records and a fused replay serves.
TOOLS = ("tquad", "gprof", "quad")
APPROX_RATE = 0.05
#: An approximate byte total further off than this many times its own
#: reported 95% bound fails (about four standard errors).
APPROX_BOUND_FACTOR = 2.0
#: Slice interval of the paper's Table IV runs (scaled like the guest).
WFS_INTERVAL = 5000
#: The 21 kernels of the paper's Tables I-IV.
PAPER_KERNELS = [
    "wav_store", "fft1d", "DelayLine_processChunk", "bitrev", "zeroRealVec",
    "AudioIo_setFrames", "perm", "cadd", "cmult", "Filter_process",
    "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
    "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
    "PrimarySource_deriveTP", "ldint",
]


@dataclass(frozen=True)
class Scale:
    """Guest sizes of one benchmark scale."""

    wfs: WfsConfig
    size: int            #: ring size of the capture / warm-replay guest
    steps: int
    cold_size: int       #: ring size of the bounded-cold guest
    cold_steps: int
    #: Streaming byte ceiling of ``pointer-bounded-cold``: small enough
    #: that its sweep pass spills on every seed.
    mem_limit: int
    setups: int          #: set-ups per run; ``setup_s`` is their median


SCALES = {
    "full": Scale(SMALL, size=1024, steps=4, cold_size=3072, cold_steps=2,
                  mem_limit=2 << 20, setups=3),
    "smoke": Scale(TINY, size=256, steps=2, cold_size=256, cold_steps=2,
                   mem_limit=64 << 10, setups=1),
}


def pointer_source(seed: int, size: int, steps: int) -> str:
    """The generated 8-kernel pointer-chasing guest for ``seed``."""
    return generate_workload(WorkloadSpec("pointer", seed=seed, size=size,
                                          kernels=8, steps=steps))


def untraced(layer: str, call: str):
    """The ``span`` of an untraced op."""
    return obs.NULL_SPAN


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(name: str, text: str) -> str:
    """The part of an artifact its digest covers.  A sweep's ``stats``
    carry page-cache counters that depend on the route, so only its cells
    are compared."""
    if name.endswith("sweep.json"):
        return json.dumps(json.loads(text)["cells"], sort_keys=True)
    return text


def gprof_text(flat) -> str:
    return flat.format_table() + "\n\n" + flat.format_call_graph()


#: Report kind -> the (extension, call, renderer) of each artifact.  The
#: renderers look ``serialize`` functions up at call time, so a patched
#: function is the one timed.
RENDERERS = {
    "tquad": (("json", "tquad_to_json", lambda r: serialize.tquad_to_json(r)),
              ("txt", "format_table", lambda r: r.format_table())),
    "gprof": (("json", "flat_to_json", lambda f: serialize.flat_to_json(f)),
              ("txt", "format_table", gprof_text)),
    "quad": (("json", "quad_to_json", lambda q: serialize.quad_to_json(q)),
             ("txt", "format_table", lambda q: q.format_table())),
    "sweep": (("json", "sweep_to_json",
               lambda s: serialize.sweep_to_json(s)),),
    "approx": (("json", "approx_to_json",
                lambda a: serialize.approx_to_json(a)),),
}


def render(span, artifacts: dict, name: str, kind: str, obj,
           exts=("json", "txt")) -> None:
    """Render ``obj`` as ``<name>.<ext>`` artifacts, one render span each."""
    for ext, call, fn in RENDERERS[kind]:
        if ext in exts:
            with span("render", call):
                artifacts[f"{name}.{ext}"] = fn(obj)


def render_bundle(span, artifacts: dict, bundle: ReplayBundle) -> None:
    for kind in ("tquad", "gprof", "quad", "sweep"):
        report = getattr(bundle, kind)
        if report is not None:
            render(span, artifacts, kind, kind, report)


def sweep_cells_text(path: Path, grid: SweepGrid) -> str:
    """The sweep reference: one standalone ``replay_tquad`` per cell."""
    with CaptureReader(path, page_cache=False) as reader:
        cells = [{"interval": c.interval, "stack": c.stack.value,
                  "exclude_libraries": c.exclude_libraries,
                  "report": serialize.tquad_to_dict(
                      replay_tquad(reader, c.options()))}
                 for c in grid.cells()]
    return json.dumps({"cells": cells})


def total_errors(totals: dict, history: dict) -> dict[str, float]:
    """Relative error of each approximate byte total in ``totals`` against
    an exact ledger ``history`` (``{kernel: {slice: counters}}``)."""
    truth = dict.fromkeys(TOTAL_KEYS, 0)
    for slices in history.values():
        for counters in slices.values():
            for j, key in enumerate(TOTAL_KEYS):
                truth[key] += counters[j]
    return {key: abs(totals[key] - truth[key]) / max(truth[key], 1)
            for key in TOTAL_KEYS}


def _timed(span, layer: str, call: str, fn):
    t0 = time.perf_counter()
    with span(layer, call):
        out = fn()
    return out, time.perf_counter() - t0


class Workload:
    """One workload: its guest, set-up, op, reference and probes.

    ``prepare`` is the set-up that writes files; the worker runs it, and
    every ``check``, in a short-lived child so the worker's peak RSS
    covers only imports and ops.  ``setup`` then loads what the op needs
    in the worker.
    """

    name = ""
    #: The inputs ignore ``--seed`` (one reference for every seed).
    fixed = False
    #: How the replay probes open captures (as the op does).
    page_cache = True
    #: Kernels the phase clustering probe groups (None: all).
    phase_kernels: list[str] | None = None
    grain = 64

    def __init__(self, scale: Scale, seed: int, workdir: str | Path):
        self.scale = scale
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path = self.workdir / "guest.capture"
        #: Guest instructions one op covers (known after the first op).
        self.instructions = 0

    # ------------------------------------------------------------- inputs
    def source(self) -> str:
        return pointer_source(self.seed, self.scale.size, self.scale.steps)

    def make_fs(self):
        return None

    @property
    def options(self) -> TQuadOptions:
        return TQuadOptions(slice_interval=self.grain)

    @property
    def grid(self) -> SweepGrid:
        """Intervals 1x, 4x, 16x and 64x the grain under both derivable
        stack views: the 8-cell grid of the analyze-many user."""
        g = self.grain
        return SweepGrid(intervals=(g, 4 * g, 16 * g, 64 * g),
                         stacks=(StackPolicy.BOTH, StackPolicy.EXCLUDE))

    def capture_guest(self, path: Path) -> dict:
        return capture_run(build_program(self.source()), str(path),
                           fs=self.make_fs(), tools=TOOLS,
                           options=self.options)

    # ------------------------------------------------------------- set-up
    def prepare(self) -> None:
        """Write the set-up capture (runs in its own child)."""

    def setup(self) -> None:
        """Load what the op needs (runs in the worker)."""

    def data_bytes(self, artifacts: dict[str, str]) -> int:
        """Bytes of the capture the op writes or reads plus the bytes of
        the artifacts it renders."""
        size = self.path.stat().st_size if self.path.exists() else 0
        return size + sum(len(text.encode()) for text in artifacts.values())

    # ---------------------------------------------------------------- op
    def op(self, span) -> dict[str, str]:
        raise NotImplementedError

    def outputs(self, artifacts: dict[str, str]) -> dict[str, str]:
        """The texts the check compares (the op's artifacts by default)."""
        return artifacts

    def reference(self) -> dict[str, str]:
        """The same texts, by an independent route."""
        raise NotImplementedError

    def extra_errors(self, texts: dict[str, str]) -> list[str]:
        return []

    def check(self, artifacts: dict[str, str],
              expected: dict[str, str] | None) -> list[str]:
        """Errors of one op's outputs against the expected digests."""
        if not expected:
            return ["no reference digests for this workload and seed"]
        texts = self.outputs(artifacts)
        errors = [f"{name}: not rendered" for name in expected
                  if name not in texts]
        errors += [f"{name}: no reference digest" for name in texts
                   if name not in expected]
        errors += [f"{name}: digest differs from the reference"
                   for name in texts
                   if name in expected
                   and digest(canonical(name, texts[name])) != expected[name]]
        return errors + self.extra_errors(texts)

    # ------------------------------------------------------------- probes
    def probe(self, span) -> dict[str, float]:
        """Per-layer probes outside any op, on this workload's guest."""
        m: dict[str, float] = {}
        opts = self.options
        path = self.workdir / "probe.capture"

        program, m["minic.compile_s"] = _timed(
            span, "minic", "build_program",
            lambda: build_program(self.source()))
        m["minic.instrs"] = len(program.instrs)

        machine = Machine(program, fs=self.make_fs())
        _, bare = _timed(span, "vm", "Machine.run", machine.run)
        m["vm.run_s"] = bare
        m["vm.guest_instrs"] = machine.icount
        m["vm.minstr_per_s"] = machine.icount / bare / 1e6

        def live():
            engine = PinEngine(program, fs=self.make_fs())
            for tool in (TQuadTool(opts), QuadTool(), GprofTool()):
                tool.attach(engine)
            engine.run()

        _, m["pin.live_s"] = _timed(span, "pin", "PinEngine.run", live)
        m["pin.slowdown_x"] = m["pin.live_s"] / bare

        manifest, m["capture.run_s"] = _timed(
            span, "capture", "capture_run",
            lambda: capture_run(program, str(path), fs=self.make_fs(),
                                tools=TOOLS, options=opts))
        streams = manifest["streams"]
        decoded = sum(s["rows"] * s["stride"] * 8 for s in streams.values())
        m["capture.record_s"] = m["capture.run_s"] - m["pin.live_s"]
        m["capture.bytes"] = path.stat().st_size
        m["capture.decoded_bytes"] = decoded
        m["capture.rows"] = sum(s["rows"] for s in streams.values())
        m["capture.compress_x"] = decoded / m["capture.bytes"]

        def cold_pass():
            with CaptureReader(path, page_cache=False) as reader:
                for stream in reader.streams:
                    for _ in reader.pages(stream):
                        pass
                return reader.stats["decoded_pages"]

        m["decode.pages"], m["decode.cold_s"] = _timed(
            span, "decode", "CaptureReader.pages", cold_pass)
        m["decode.mib_per_s"] = decoded / 2**20 / m["decode.cold_s"]

        reader, m["pagecache.build_s"] = _timed(
            span, "pagecache", "CaptureReader", lambda: CaptureReader(path))
        reader.close()
        reader, m["pagecache.open_s"] = _timed(
            span, "pagecache", "CaptureReader", lambda: CaptureReader(path))
        if not self.page_cache:
            reader.close()
            reader = CaptureReader(path, page_cache=False)
        with reader:
            tq, m["replay.tquad_s"] = _timed(
                span, "replay", "replay_tquad",
                lambda: replay_tquad(reader, opts))
            _, m["replay.gprof_s"] = _timed(
                span, "replay", "replay_gprof", lambda: replay_gprof(reader))
            _, m["replay.quad_s"] = _timed(
                span, "replay", "replay_quad", lambda: replay_quad(reader))
            _, m["replay.reslice_s"] = _timed(
                span, "replay", "replay_tquad",
                lambda: replay_tquad(
                    reader, TQuadOptions(slice_interval=4 * self.grain)))
            _, m["replay.fused_s"] = _timed(
                span, "replay", "replay_many",
                lambda: replay_many(reader, options=opts, grid=self.grid))
            sweep, m["sweep.grid_s"] = _timed(
                span, "sweep", "sweep_tquad",
                lambda: sweep_tquad(reader, self.grid))
            stats = reader.stats
            requests = (stats["decoded_pages"] + stats["page_cache_hits"]
                        + stats["disk_cache_hits"])
            m["pagecache.hit_ratio"] = stats["disk_cache_hits"] / requests
        m["sweep.cells"] = len(sweep)
        m["sweep.rows_per_s"] = sum(
            s["rows"] for name, s in streams.items()
            if name.startswith("tquad")) / m["sweep.grid_s"]

        limit = self.scale.mem_limit
        with CaptureReader(path, page_cache=False) as reader:
            bundle, m["stream.exact_s"] = _timed(
                span, "stream", "replay_many",
                lambda: replay_many(reader, options=opts, grid=self.grid,
                                    mem_limit=limit))
            # the sweep pass holds the carry tables that spill; its own
            # budget figures, since the passes after it overwrite the
            # ``stream/*`` gauges with theirs
            stats = bundle.sweep.stats
            m["stream.peak_resident_bytes"] = stats["peak_resident_bytes"]
            m["stream.spill_bytes"] = stats["spilled_bytes"]
            _, exact_s = _timed(
                span, "stream", "replay_tquad",
                lambda: replay_tquad(reader, opts, mem_limit=limit))
            est, m["approx.s"] = _timed(
                span, "approx", "approx_replay_tquad",
                lambda: approx_replay_tquad(reader, opts, rate=APPROX_RATE,
                                            seed=0, mem_limit=limit))
        m["approx.speedup_x"] = exact_s / m["approx.s"]
        m["approx.worst_err_pct"] = 100 * max(
            total_errors(est.totals, tq.ledger.history).values())

        _, m["phases.s"] = _timed(
            span, "phases", "cluster_kernel_phases",
            lambda: cluster_kernel_phases(tq, kernels=self.phase_kernels,
                                          max_phases=5))
        path.unlink()
        sidecar_path(path).unlink(missing_ok=True)
        return m


class WfsLive(Workload):
    """The paper's case study on the live Pin-tool path: minic, vm and pin
    do the work; capture, decode and sweep do none."""

    name = "wfs-live"
    fixed = True
    phase_kernels = PAPER_KERNELS
    grain = WFS_INTERVAL

    def source(self) -> str:
        return wfs_source(self.scale.wfs)

    def make_fs(self):
        return make_workspace(self.scale.wfs)

    def setup(self) -> None:
        self.src = self.source()

    def op(self, span) -> dict[str, str]:
        arts: dict[str, str] = {}
        with span("minic", "build_program"):
            program = build_program(self.src)
        with span("pin", "run_tquad"):
            report = run_tquad(program, fs=self.make_fs(),
                               options=self.options)
        self.instructions = report.total_instructions
        render(span, arts, "tquad", "tquad", report)
        with span("phases", "cluster_kernel_phases"):
            analysis = cluster_kernel_phases(report, kernels=PAPER_KERNELS,
                                             max_phases=5)
        with span("render", "format_table"):
            arts["table4.txt"] = analysis.format_table()
        return arts

    def reference(self) -> dict[str, str]:
        path = self.workdir / "reference.capture"
        capture_run(build_program(self.source()), str(path),
                    fs=self.make_fs(), tools=("tquad",), options=self.options)
        with CaptureReader(path, page_cache=False) as reader:
            report = replay_tquad(reader, self.options)
        arts: dict[str, str] = {}
        render(untraced, arts, "tquad", "tquad", report)
        arts["table4.txt"] = cluster_kernel_phases(
            report, kernels=PAPER_KERNELS, max_phases=5).format_table()
        return arts

    def extra_errors(self, texts: dict[str, str]) -> list[str]:
        if self.scale.wfs != SMALL:
            return []
        if not GOLDEN_TABLE4.exists():
            return [f"missing golden file {GOLDEN_TABLE4}"]
        if texts["table4.txt"] + "\n" != GOLDEN_TABLE4.read_text():
            return ["table4.txt differs from tests/golden/table4_phases.txt"]
        return []


class PointerCapture(Workload):
    """The write side: execution plus recording sinks plus the deflate
    writer; the replay layers do nothing."""

    name = "pointer-capture"

    def setup(self) -> None:
        self.program = build_program(self.source())

    def op(self, span) -> dict[str, str]:
        with span("capture", "capture_run"):
            manifest = capture_run(self.program, str(self.path),
                                   tools=TOOLS, options=self.options)
        self.instructions = manifest["total_instructions"]
        return {}

    def outputs(self, artifacts: dict[str, str]) -> dict[str, str]:
        """Replays of the op's capture, so the check does not depend on
        the capture format."""
        texts: dict[str, str] = {}
        with CaptureReader(self.path, page_cache=False) as reader:
            bundle = replay_many(reader, options=self.options)
        render(untraced, texts, "tquad", "tquad", bundle.tquad, ("json",))
        render(untraced, texts, "gprof", "gprof", bundle.gprof, ("json",))
        render(untraced, texts, "quad", "quad", bundle.quad, ("json",))
        return texts

    def reference(self) -> dict[str, str]:
        (report,), flat, quad = live_reports(build_program(self.source()),
                                             [self.grain])
        texts: dict[str, str] = {}
        render(untraced, texts, "tquad", "tquad", report, ("json",))
        render(untraced, texts, "gprof", "gprof", flat, ("json",))
        render(untraced, texts, "quad", "quad", quad, ("json",))
        return texts


class PointerWarmReplay(Workload):
    """The read side of the same data for the analyze-many user:
    bucket/fold and render dominate, pages come from the mmapped
    sidecar."""

    name = "pointer-warm-replay"
    reslice = 256

    def prepare(self) -> None:
        self.capture_guest(self.path)
        CaptureReader(self.path).close()      # builds the sidecar

    def op(self, span) -> dict[str, str]:
        arts: dict[str, str] = {}
        with span("pagecache", "CaptureReader"):
            reader = CaptureReader(self.path)
        with reader:
            self.instructions = reader.manifest["total_instructions"]
            with span("replay", "replay_tquad"):
                report = replay_tquad(
                    reader, TQuadOptions(slice_interval=self.reslice))
            render(span, arts, "reslice", "tquad", report)
            with span("replay", "replay_many"):
                bundle = replay_many(reader, options=self.options,
                                     grid=self.grid)
        render_bundle(span, arts, bundle)
        return arts

    def reference(self) -> dict[str, str]:
        (report, reslice), flat, quad = live_reports(
            build_program(self.source()), [self.grain, self.reslice])
        arts: dict[str, str] = {}
        render(untraced, arts, "reslice", "tquad", reslice)
        render_bundle(untraced, arts,
                      ReplayBundle(tquad=report, gprof=flat, quad=quad))
        path = self.workdir / "reference.capture"
        self.capture_guest(path)
        arts["sweep.json"] = sweep_cells_text(path, self.grid)
        return arts


class PointerBoundedCold(Workload):
    """First contact with a capture far over the memory budget: decode,
    the bounded streaming passes (whose sweep carry spills to disk) and
    approx do the work."""

    name = "pointer-bounded-cold"
    page_cache = False
    #: Fine enough that the sweep's carry tables outgrow the ceiling and
    #: spill on every seed (at grain 2000 they stay far below it).
    grain = 64

    def source(self) -> str:
        return pointer_source(self.seed + 4, self.scale.cold_size,
                              self.scale.cold_steps)

    @property
    def grid(self) -> SweepGrid:
        return SweepGrid(intervals=(self.grain, 2 * self.grain))

    def prepare(self) -> None:
        self.capture_guest(self.path)

    def op(self, span) -> dict[str, str]:
        arts: dict[str, str] = {}
        with span("decode", "CaptureReader"):
            reader = CaptureReader(self.path, page_cache=False)
        with reader:
            self.instructions = reader.manifest["total_instructions"]
            with span("approx", "approx_replay_tquad"):
                est = approx_replay_tquad(reader, self.options,
                                          rate=APPROX_RATE, seed=0,
                                          mem_limit=self.scale.mem_limit)
            render(span, arts, "approx", "approx", est)
            with span("stream", "replay_many"):
                bundle = replay_many(reader, options=self.options,
                                     grid=self.grid,
                                     mem_limit=self.scale.mem_limit)
        render_bundle(span, arts, bundle)
        return arts

    def reference(self) -> dict[str, str]:
        (report,), flat, quad = live_reports(build_program(self.source()),
                                             [self.grain])
        arts: dict[str, str] = {}
        render_bundle(untraced, arts,
                      ReplayBundle(tquad=report, gprof=flat, quad=quad))
        path = self.workdir / "reference.capture"
        self.capture_guest(path)
        arts["sweep.json"] = sweep_cells_text(path, self.grid)
        with CaptureReader(path, page_cache=False) as reader:
            est = approx_replay_tquad(reader, self.options, rate=APPROX_RATE,
                                      seed=0, mem_limit=self.scale.mem_limit)
        render(untraced, arts, "approx", "approx", est)
        return arts

    def extra_errors(self, texts: dict[str, str]) -> list[str]:
        """The sampled totals must land within ``APPROX_BOUND_FACTOR``
        times the 95% bounds the approximate replay reports for them."""
        approx = json.loads(texts["approx.json"])
        errors = total_errors(approx["totals"],
                              json.loads(texts["tquad.json"])["history"])
        return [f"approx {key} is off by {err:.2%}, more than "
                f"{APPROX_BOUND_FACTOR:g} x its 95% bound "
                f"{approx['rel_err_95'][key]:.2%}"
                for key, err in errors.items()
                if err > APPROX_BOUND_FACTOR * approx["rel_err_95"][key]]


def live_reports(program, intervals: list[int]) -> tuple:
    """One live Pin-tool run of ``program`` with a ``TQuadTool`` per slice
    interval, a ``GprofTool`` and a ``QuadTool`` attached (the tools
    ``run_tquad``, ``run_gprof`` and ``run_quad`` attach one at a time);
    returns ``(tquad_reports, flat_profile, quad_report)``."""
    engine = PinEngine(program)
    tquads = [TQuadTool(TQuadOptions(slice_interval=iv)).attach(engine)
              for iv in intervals]
    gprof = GprofTool().attach(engine)
    quad = QuadTool().attach(engine)
    engine.run()
    return [t.report() for t in tquads], gprof.report(), quad.report()


WORKLOADS = {cls.name: cls for cls in (WfsLive, PointerCapture,
                                       PointerWarmReplay, PointerBoundedCold)}


def make(name: str, scale: str, seed: int, workdir: str | Path) -> Workload:
    return WORKLOADS[name](SCALES[scale], seed, workdir)


def reference_digests(name: str, scale: str, seed: int,
                      workdir: str) -> dict[str, str]:
    """Digests of the reference texts (the driver runs it in a child)."""
    texts = make(name, scale, seed, workdir).reference()
    return {n: digest(canonical(n, t)) for n, t in sorted(texts.items())}
