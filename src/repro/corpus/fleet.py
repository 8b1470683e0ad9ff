"""The capture-corpus regression fleet: run, verify, update.

For every roster entry (:mod:`repro.corpus.entries`) the fleet captures
the guest once into a content-addressed store, replays all three tools
plus a small sweep grid *from the capture* in one fused page pass
(:func:`repro.capture.replay.replay_many`), and renders a fixed artifact
set — JSON and table text per tool, the sweep grid, and a deterministic
``meta.json``:

========== =====================================================
artifact    contents
========== =====================================================
tquad.json  :func:`repro.serialize.tquad_to_json` at the entry grain
tquad.txt   the rendered tQUAD table
gprof.json  :func:`repro.serialize.flat_to_json`
gprof.txt   flat profile + call graph
quad.json   :func:`repro.serialize.quad_to_json`
quad.txt    the rendered QUAD table
sweep.json  a 2 intervals x 2 stack-policy grid from the capture
meta.json   run identity (label, digest, icount, exit code, grain,
            pages served by the replay)
========== =====================================================

``verify`` byte-diffs each artifact against the committed golden tree
(``tests/golden/corpus/<entry>/``); ``update`` rewrites the tree and
prunes stale fixture directories.  Every artifact is a pure function of
the guest binary + workspace, so any diff is a real behaviour change in
the VM, the instrumentation, the capture codec, or the replay engines.

``jobs > 1`` fans the roster onto the fault-tolerant
:class:`~repro.parallel.supervise.Supervisor` (one entry per worker
task, crash/hang recovery included).  Entries are independent and every
artifact is deterministic, so :meth:`FleetReport.canonical_json` — the
report minus wall-clock timings — is byte-identical across any
``jobs`` setting against equivalent store states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from ..capture import CaptureReader, replay_many
from ..core import TQuadOptions
from ..core.options import StackPolicy
from ..obs import TELEMETRY
from ..serialize import (flat_to_json, quad_to_json, sweep_to_json,
                         tquad_to_json)
from ..sweep import SweepGrid
from .entries import CorpusEntry, fleet_entries
from .store import CaptureStore

#: Default golden-fixture tree (relative to the repo root / CI checkout).
DEFAULT_GOLDEN = Path("tests") / "golden" / "corpus"

ARTIFACTS = ("tquad.json", "tquad.txt", "gprof.json", "gprof.txt",
             "quad.json", "quad.txt", "sweep.json", "meta.json")


def entry_grid(entry: CorpusEntry) -> SweepGrid:
    """The per-entry sweep grid: both interval doublings, both derivable
    stack views (the capture records ``StackPolicy.BOTH``)."""
    return SweepGrid(intervals=(entry.interval, 2 * entry.interval),
                     stacks=(StackPolicy.BOTH, StackPolicy.EXCLUDE))


#: Reader counters that depend on page-cache state (warm sidecar vs
#: fresh decode vs ``--no-page-cache``) — kept out of the golden
#: artifacts, which must be a pure function of the guest, and reported
#: through :class:`EntryReport` instead.  Their sum — pages served —
#: is route-invariant and stays in ``meta.json``.
_VOLATILE_STATS = ("decoded_pages", "page_cache_hits", "disk_cache_hits")

#: Streaming-tier counters: a function of ``--mem-limit``, not of the
#: guest, so the golden sweep artifact must not carry them.
_STREAMING_STATS = ("peak_resident_bytes", "spilled_bytes", "spill_runs")


def render_artifacts(entry: CorpusEntry, store: CaptureStore, *,
                     mem_limit: int | None = None,
                     approx: tuple[float, int] | None = None
                     ) -> tuple[dict[str, str], dict]:
    """Capture (or reuse) ``entry`` and render its full artifact set.

    Returns ``(artifacts, replay_stats)``: the byte-diffable artifact
    set plus the reader's cache counters for the fleet report.

    ``mem_limit`` replays under the bounded-memory streaming tier — the
    exact artifacts stay byte-identical, only the replay counters move.
    ``approx`` (a ``(rate, seed)`` pair; ``run`` mode only) adds a
    ``tquad_approx.json`` / ``tquad_approx.txt`` pair *on top of* the
    exact set; golden trees never contain them.
    """
    from ..capture import program_digest

    with TELEMETRY.span(f"fleet:{entry.name}", cat="corpus"):
        program = entry.build_program()
        sha = program_digest(program)
        path = store.capture(entry, program, sha)
        with CaptureReader(path, page_cache=store.page_cache) as reader, \
                TELEMETRY.span(f"replay:{entry.name}", cat="corpus"):
            bundle = replay_many(
                reader, tools=("tquad", "gprof", "quad"),
                options=TQuadOptions(slice_interval=entry.interval),
                grid=entry_grid(entry), mem_limit=mem_limit)
            extra: dict[str, str] = {}
            if approx is not None:
                from ..capture import approx_replay_tquad
                from ..serialize import approx_to_json

                rate, seed = approx
                est = approx_replay_tquad(
                    reader, TQuadOptions(slice_interval=entry.interval),
                    rate=rate, seed=seed, mem_limit=mem_limit)
                extra["tquad_approx.json"] = approx_to_json(est)
                extra["tquad_approx.txt"] = (
                    est.report.format_table() + "\n\n"
                    + "\n".join(est.summary_lines()) + "\n")
            man = reader.manifest
            replay_stats = {**reader.stats,
                            "page_cache": reader.page_cache_state}
    tq, flat, quad, sweep = (bundle.tquad, bundle.gprof, bundle.quad,
                             bundle.sweep)
    sweep.stats = {k: v for k, v in sweep.stats.items()
                   if k not in _VOLATILE_STATS + _STREAMING_STATS}
    meta = {
        "entry": entry.name,
        "kind": entry.kind,
        "label": entry.label,
        "program_sha256": sha,
        "grain": entry.interval,
        "total_instructions": man["total_instructions"],
        "exit_code": man["exit_code"],
        "kernels": len(man["kernels"]),
        "routines": len(man["routines"]),
        "sweep_cells": len(sweep),
        "replay": {"pages_served": sum(replay_stats.get(k, 0)
                                       for k in _VOLATILE_STATS)},
    }
    return {
        "tquad.json": tquad_to_json(tq),
        "tquad.txt": tq.format_table() + "\n",
        "gprof.json": flat_to_json(flat),
        "gprof.txt": (flat.format_table() + "\n\n"
                      + flat.format_call_graph() + "\n"),
        "quad.json": quad_to_json(quad),
        "quad.txt": quad.format_table() + "\n",
        "sweep.json": sweep_to_json(sweep),
        "meta.json": json.dumps(meta, indent=2, sort_keys=True) + "\n",
        **extra,
    }, replay_stats


# ------------------------------------------------------------ fleet report
@dataclass
class EntryReport:
    """One entry's outcome in a fleet pass."""

    name: str
    label: str
    status: str                    #: ok | drift | missing | error | stale
    seconds: float = 0.0
    drifted: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    error: str = ""
    #: Replay page-cache counters from the entry's ``meta.json``.
    replay: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"name": self.name, "label": self.label,
               "status": self.status,
               "seconds": round(self.seconds, 3)}
        if self.drifted:
            out["drifted"] = list(self.drifted)
        if self.missing:
            out["missing"] = list(self.missing)
        if self.error:
            out["error"] = self.error
        if self.replay:
            out["replay"] = dict(self.replay)
        return out


@dataclass
class FleetReport:
    """Machine-readable outcome of one ``run``/``verify``/``update``."""

    mode: str
    entries: list[EntryReport] = field(default_factory=list)
    captures_reused: int = 0
    captures_executed: int = 0
    sidecars_built: int = 0
    sidecars_reused: int = 0
    sidecars_rebuilt: int = 0

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    @property
    def pages_decoded(self) -> int:
        return sum(e.replay.get("decoded_pages", 0) for e in self.entries)

    @property
    def page_cache_hits(self) -> int:
        return sum(e.replay.get("page_cache_hits", 0)
                   for e in self.entries)

    @property
    def disk_cache_hits(self) -> int:
        return sum(e.replay.get("disk_cache_hits", 0)
                   for e in self.entries)

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "ok": self.ok,
            "entries": [e.to_json() for e in self.entries],
            "captures": {"reused": self.captures_reused,
                         "executed": self.captures_executed},
            "page_cache": {"sidecars_built": self.sidecars_built,
                           "sidecars_reused": self.sidecars_reused,
                           "sidecars_rebuilt": self.sidecars_rebuilt,
                           "pages_decoded": self.pages_decoded,
                           "mem_hits": self.page_cache_hits,
                           "disk_hits": self.disk_cache_hits},
        }, indent=2, sort_keys=True) + "\n"

    def canonical_json(self) -> str:
        """``to_json`` minus per-entry wall-clock timings — the part of
        the report that is a pure function of roster + store state, and
        therefore byte-identical across ``--jobs`` settings."""
        data = json.loads(self.to_json())
        for entry in data["entries"]:
            entry.pop("seconds", None)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.status] = counts.get(e.status, 0) + 1
        parts = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        return (f"corpus {self.mode}: {len(self.entries)} entries "
                f"({parts}); captures: {self.captures_executed} executed, "
                f"{self.captures_reused} reused; sidecars: "
                f"{self.sidecars_built} built, {self.sidecars_reused} "
                f"reused, {self.sidecars_rebuilt} rebuilt")


def _run_one(entry: CorpusEntry, store: CaptureStore, *,
             mem_limit: int | None = None,
             approx: tuple[float, int] | None = None,
             ) -> tuple[EntryReport, dict[str, str] | None]:
    start = time.perf_counter()
    try:
        artifacts, replay = render_artifacts(entry, store,
                                             mem_limit=mem_limit,
                                             approx=approx)
    except Exception as err:  # a broken guest must not sink the fleet
        return EntryReport(name=entry.name, label=entry.label,
                           status="error", error=f"{type(err).__name__}: "
                                                 f"{err}",
                           seconds=time.perf_counter() - start), None
    return EntryReport(name=entry.name, label=entry.label, status="ok",
                       seconds=time.perf_counter() - start,
                       replay=replay), artifacts


# ------------------------------------------------------- parallel mapping
@dataclass(frozen=True)
class FleetTask:
    """One roster entry as a supervisor task (``index`` orders results)."""

    index: int
    entry: CorpusEntry


@dataclass
class FleetTaskResult:
    """One entry's rendered outcome plus the worker's store-counter
    deltas (the parent folds them into its own store)."""

    index: int
    report: EntryReport
    artifacts: dict[str, str] | None
    store_hits: int = 0
    store_misses: int = 0
    sidecars_built: int = 0
    sidecars_reused: int = 0
    sidecars_rebuilt: int = 0


class FleetRunner:
    """Worker-side executor for :class:`FleetTask`.

    The heartbeat token pairs the task counter with the live guest
    engine's ``icount`` (wired through ``CaptureStore.on_engine``), so a
    worker stalled inside a long capture still beats while the guest
    makes progress — and stops beating when it truly hangs.
    """

    def __init__(self, root, *, page_cache: bool = True,
                 mem_limit: int | None = None,
                 approx: tuple[float, int] | None = None,
                 telemetry=None) -> None:
        self.store = CaptureStore(root, page_cache=page_cache)
        self.store.on_engine = self._adopt_engine
        self.mem_limit = mem_limit
        self.approx = approx
        self._engine = None
        self._ticks = 0

    def _adopt_engine(self, engine) -> None:
        self._engine = engine

    def progress(self):
        engine = self._engine
        return (self._ticks,
                engine.machine.icount if engine is not None else -1)

    def execute(self, task: FleetTask) -> FleetTaskResult:
        self._ticks += 1
        s = self.store
        before = (s.hits, s.misses, s.sidecars_built, s.sidecars_reused,
                  s.sidecars_rebuilt)
        report, artifacts = _run_one(task.entry, s,
                                     mem_limit=self.mem_limit,
                                     approx=self.approx)
        after = (s.hits, s.misses, s.sidecars_built, s.sidecars_reused,
                 s.sidecars_rebuilt)
        deltas = [b - a for b, a in zip(after, before)]
        return FleetTaskResult(index=task.index, report=report,
                               artifacts=artifacts, store_hits=deltas[0],
                               store_misses=deltas[1],
                               sidecars_built=deltas[2],
                               sidecars_reused=deltas[3],
                               sidecars_rebuilt=deltas[4])


@dataclass(frozen=True)
class FleetRunnerFactory:
    """Picklable :class:`FleetRunner` recipe for the supervisor."""

    root: str
    page_cache: bool = True
    mem_limit: int | None = None
    approx: tuple[float, int] | None = None

    result_type: ClassVar[type] = FleetTaskResult

    def __call__(self, telemetry) -> FleetRunner:
        return FleetRunner(self.root, page_cache=self.page_cache,
                           mem_limit=self.mem_limit, approx=self.approx,
                           telemetry=telemetry)


def _map_entries(entries, store: CaptureStore, *, jobs: int = 1,
                 deadline: float | None = None,
                 mem_limit: int | None = None,
                 approx: tuple[float, int] | None = None):
    """Yield ``(EntryReport, artifacts | None)`` per roster entry, in
    roster order — serially, or across a supervised worker fleet."""
    if jobs <= 1:
        for entry in entries:
            yield _run_one(entry, store, mem_limit=mem_limit,
                           approx=approx)
        return
    from ..parallel.supervise import DEFAULT_DEADLINE, Supervisor

    factory = FleetRunnerFactory(str(store.root),
                                 page_cache=store.page_cache,
                                 mem_limit=mem_limit, approx=approx)
    supervisor = Supervisor(
        jobs=jobs, runner_factory=factory,
        deadline=deadline if deadline is not None else DEFAULT_DEADLINE)
    tasks = [FleetTask(index=i, entry=e) for i, e in enumerate(entries)]
    results = supervisor.run(tasks)
    for result in results:
        store.hits += result.store_hits
        store.misses += result.store_misses
        store.sidecars_built += result.sidecars_built
        store.sidecars_reused += result.sidecars_reused
        store.sidecars_rebuilt += result.sidecars_rebuilt
        yield result.report, result.artifacts


def _snapshot(store: CaptureStore) -> tuple[int, ...]:
    return (store.hits, store.misses, store.sidecars_built,
            store.sidecars_reused, store.sidecars_rebuilt)


def _settle(report: FleetReport, store: CaptureStore,
            before: tuple[int, ...]) -> None:
    after = _snapshot(store)
    (report.captures_reused, report.captures_executed,
     report.sidecars_built, report.sidecars_reused,
     report.sidecars_rebuilt) = tuple(b - a for b, a in
                                      zip(after, before))


def run_fleet(*, store: CaptureStore | None = None,
              nightly: bool | None = None, only: str | None = None,
              out_dir: str | Path | None = None, jobs: int = 1,
              deadline: float | None = None,
              mem_limit: int | None = None,
              approx: tuple[float, int] | None = None) -> FleetReport:
    """Capture + replay every active entry; optionally write artifacts.

    ``out_dir`` (when given) receives the same tree ``update`` would
    write under the golden root — useful for inspecting a drift.
    ``mem_limit`` replays every entry under the bounded-memory tier;
    ``approx`` adds the sampled ``tquad_approx.*`` artifacts (run mode
    only — they never enter the golden tree).
    """
    store = store or CaptureStore()
    before = _snapshot(store)
    report = FleetReport(mode="run")
    entries = fleet_entries(nightly=nightly, only=only)
    for entry_report, artifacts in _map_entries(entries, store, jobs=jobs,
                                                deadline=deadline,
                                                mem_limit=mem_limit,
                                                approx=approx):
        if artifacts is not None and out_dir is not None:
            _write_tree(Path(out_dir) / entry_report.name, artifacts)
        report.entries.append(entry_report)
    _settle(report, store, before)
    return report


def _write_tree(directory: Path, artifacts: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (directory / name).write_text(text, encoding="utf-8")


def _stale_dirs(golden_root: Path, *, all_tiers: bool) -> list[str]:
    """Golden subdirectories no roster entry owns.

    A PR-tier pass must not flag nightly fixtures, so staleness is judged
    against the *full* roster unless ``all_tiers`` is False for a
    filtered run (``only=...``), where staleness is skipped entirely.
    """
    if not all_tiers or not golden_root.is_dir():
        return []
    known = {e.name for e in fleet_entries(nightly=True)}
    return sorted(p.name for p in golden_root.iterdir()
                  if p.is_dir() and p.name not in known)


def verify_fleet(*, golden_root: str | Path = DEFAULT_GOLDEN,
                 store: CaptureStore | None = None,
                 nightly: bool | None = None,
                 only: str | None = None, jobs: int = 1,
                 deadline: float | None = None,
                 mem_limit: int | None = None) -> FleetReport:
    """Re-render every active entry and byte-diff it against the golden
    tree; stale fixture directories fail the pass too.  ``mem_limit``
    verifies through the streaming tier — the artifacts must still match
    the golden bytes exactly."""
    golden_root = Path(golden_root)
    store = store or CaptureStore()
    before = _snapshot(store)
    report = FleetReport(mode="verify")
    entries = fleet_entries(nightly=nightly, only=only)
    for entry_report, artifacts in _map_entries(entries, store, jobs=jobs,
                                                deadline=deadline,
                                                mem_limit=mem_limit):
        if artifacts is not None:
            base = golden_root / entry_report.name
            for name, text in artifacts.items():
                path = base / name
                if not path.exists():
                    entry_report.missing.append(name)
                elif path.read_text(encoding="utf-8") != text:
                    entry_report.drifted.append(name)
            if entry_report.missing:
                entry_report.status = "missing"
            if entry_report.drifted:
                entry_report.status = "drift"
        report.entries.append(entry_report)
    for name in _stale_dirs(golden_root, all_tiers=only is None):
        report.entries.append(EntryReport(
            name=name, label="", status="stale",
            error="golden fixtures exist but no roster entry does; "
                  "run `tquad corpus update` to prune"))
    _settle(report, store, before)
    return report


def update_fleet(*, golden_root: str | Path = DEFAULT_GOLDEN,
                 store: CaptureStore | None = None,
                 nightly: bool | None = None,
                 only: str | None = None, jobs: int = 1,
                 deadline: float | None = None,
                 mem_limit: int | None = None) -> FleetReport:
    """Rewrite the golden tree from fresh renders and prune stale
    fixture directories (full-roster passes only)."""
    import shutil

    golden_root = Path(golden_root)
    store = store or CaptureStore()
    before = _snapshot(store)
    report = FleetReport(mode="update")
    entries = fleet_entries(nightly=nightly, only=only)
    for entry_report, artifacts in _map_entries(entries, store, jobs=jobs,
                                                deadline=deadline,
                                                mem_limit=mem_limit):
        if artifacts is not None:
            _write_tree(golden_root / entry_report.name, artifacts)
        report.entries.append(entry_report)
    for name in _stale_dirs(golden_root, all_tiers=only is None):
        shutil.rmtree(golden_root / name)
        report.entries.append(EntryReport(name=name, label="",
                                          status="ok",
                                          error="stale fixtures pruned"))
    _settle(report, store, before)
    return report
