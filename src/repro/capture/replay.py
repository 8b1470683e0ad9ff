"""Vectorized re-analysis of captures — no VM execution involved.

Each ``replay_*`` function rebuilds one tool's report from the captured
streams, byte-identical to what the tool would have produced on a direct
run (the property tests in ``tests/property/test_prop_capture.py`` and
the golden-table tests assert this at the serialized-artifact level):

* :func:`replay_tquad` — a one-cell pass of the sweep engine
  (:mod:`repro.sweep.engine`); a capture recorded at grain ``g``
  replays exactly at any interval that is a multiple of ``g``.
* :func:`replay_gprof` — the call/return event stream is a balanced-
  parenthesis sequence, so the :class:`~repro.gprofsim.tool.GprofTool`
  state machine is replayed *vectorized*: frames pair up under a stable
  sort by depth, parents come from per-depth ``searchsorted``, and the
  recursion rule reduces to a same-name-ancestor test.  The result is
  byte-identical to the sequential walk, reproducing even its
  dict-insertion-order-dependent tie-breaking.
* :func:`replay_quad` — the packed record pages are drained through a
  fresh :class:`~repro.quad.shadow.PagedQuadSink`, rebuilding the shadow
  state with the same vectorized scatters as the live run.

The manifest is outside input: before a ``calls`` or ``quad.raw`` row
indexes a manifest table, its id is checked against that table, and
every QUAD access against the manifest's ``mem_size``
(:class:`~repro.capture.format.CaptureFormatError` otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.callstack import CallStack
from ..core.npsort import stable_argsort
from ..core.options import StackPolicy, TQuadOptions
from ..core.report import TQuadReport
from ..gprofsim.report import FlatProfile, FlatRow
from ..obs import TELEMETRY
from .format import (CaptureFormatError, CaptureMismatchError,
                     STREAM_CALLS, STREAM_QUAD, library_rows_of,
                     require_tool)
from .reader import CaptureReader, StreamingCursor
from .streaming import MemBudget

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from ..sweep.engine import SweepResult
    from ..sweep.grid import SweepGrid


# ------------------------------------------------------------------ tQUAD
def _resolve_tquad_options(manifest: dict,
                           options: TQuadOptions | None) -> TQuadOptions:
    mo = manifest["options"]
    grain = int(mo["grain"])
    captured = StackPolicy(mo["stack"])
    if options is None:
        return TQuadOptions(slice_interval=grain, stack=captured,
                            exclude_libraries=bool(mo["exclude_libraries"]))
    if bool(options.exclude_libraries) != bool(mo["exclude_libraries"]):
        if mo["exclude_libraries"]:
            raise CaptureMismatchError(
                "capture was recorded with --exclude-libs; replay requires "
                "--exclude-libs too (the dropped library accesses are not "
                "in the file)")
        if library_rows_of(manifest) != "marked":
            raise CaptureMismatchError(
                "capture predates library-marked kernel ids and cannot "
                "derive the --exclude-libs view; re-record the capture")
        # marked capture: the exclude-libs view is a row mask (below)
    if options.slice_interval % grain:
        raise CaptureMismatchError(
            f"slice interval {options.slice_interval} is not a multiple of "
            f"the capture grain {grain}; re-record with a finer grain")
    if captured is not StackPolicy.BOTH and options.stack is not captured:
        raise CaptureMismatchError(
            f"capture was recorded with stack policy "
            f"'{captured.value}' and can only replay that policy "
            f"(record with 'both' to derive either view)")
    return options


def replay_tquad(reader: CaptureReader,
                 options: TQuadOptions | None = None,
                 telemetry=TELEMETRY, *,
                 mem_limit: int | None = None) -> TQuadReport:
    """Rebuild a :class:`TQuadReport` from a capture.

    ``options`` may re-slice (any multiple of the capture grain) and, for
    captures recorded under ``StackPolicy.BOTH``, derive either
    single-sided view; defaults to the capture's own recording options.

    The replay is a one-cell :func:`~repro.sweep.sweep_tquad` pass — the
    sweep engine is the only code that buckets tQUAD pages — and
    ``mem_limit`` is that pass's streaming byte ceiling (byte-identical
    report, ``stream/*`` gauges published).
    """
    from ..sweep.engine import _one_cell

    manifest = reader.manifest
    require_tool(manifest, "tquad")
    options = _resolve_tquad_options(manifest, options)
    with telemetry.span("replay", cat="capture", tool="tquad",
                        interval=options.slice_interval):
        report, _, _ = _one_cell(
            reader, options, telemetry,
            MemBudget(mem_limit) if mem_limit else None, None)
    telemetry.count("capture/replays")
    return report


# -------------------------------------------------------------- gprof-sim
def _checked_call_pages(pages, n_routines: int, total: int):
    """Yield ``calls`` pages whose routine ids index the manifest's
    ``n_routines``-entry table (-1 marks a return) and whose icounts lie
    in ``[0, total]`` and never decrease, within a page or across pages:
    the recorder appends the raw ``machine.icount`` as the guest runs."""
    prev = 0
    for index, page in enumerate(pages):
        if page.shape[0]:
            where = f"corrupt capture page {STREAM_CALLS}[{index}]: "
            rid = page[:, 1]
            lo, hi = int(rid.min()), int(rid.max())
            if lo < -1 or hi >= n_routines:
                raise CaptureFormatError(
                    f"{where}routine id {lo if lo < -1 else hi} is outside "
                    f"the manifest's {n_routines}-entry routine table")
            ic = page[:, 0]
            lo, hi = int(ic.min()), int(ic.max())
            if lo < 0 or hi > total:
                raise CaptureFormatError(
                    f"{where}icount {lo if lo < 0 else hi} is outside the "
                    f"run's [0, {total}]")
            if int(ic[0]) < prev or bool((ic[1:] < ic[:-1]).any()):
                raise CaptureFormatError(f"{where}icounts decrease")
            prev = int(ic[-1])
        yield page


def _first_seen(keys):
    """``np.unique(keys, return_index=True, return_counts=True)`` by one
    stable sort: the distinct keys ascending, the index of each one's
    first occurrence, and its count."""
    order = stable_argsort(keys)
    s = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1]))
                            if s.size else np.empty(0, bool))
    return s[starts], order[starts], np.diff(np.append(starts, s.size))


def _gprof_charges(raw, rid, nrid, icv, total):
    """Vectorized equivalent of gprof-sim's sequential stack walk.

    The event stream is prefix-balanced (underflowing returns already
    dropped), so frames pair up combinatorially: events at the same
    frame depth strictly alternate entry/return, making a stable sort
    by depth the whole matching step.  Returns per-name-id arrays plus
    the bookkeeping the caller needs to rebuild gprof-sim's exact
    dict-insertion orders.
    """
    n = raw.size
    n_names = nrid.size and int(nrid.max()) + 1
    entry = rid >= 0
    depth = np.cumsum(np.where(entry, 1, -1))
    fd = depth + ~entry           # depth of the frame the event touches
    order = stable_argsort(fd)
    gstart = np.flatnonzero(
        np.concatenate(([True], fd[order][1:] != fd[order][:-1])))
    offs = np.arange(n) - np.repeat(gstart, np.diff(np.append(gstart, n)))
    ret_pos = np.flatnonzero(offs & 1)    # odd offset in group == return
    ret_ev = order[ret_pos]
    ent_ev = order[ret_pos - 1]
    match = np.full(n, n, np.int64)       # n == "frame never returns"
    match[ent_ev] = ret_ev

    # the frame charged by each event: returns charge the frame they
    # pop; entries charge the parent frame one depth up (if any)
    charge = np.full(n, -1, np.int64)
    charge[ret_ev] = ent_ev
    ent_all = np.flatnonzero(entry)
    fd_ent = fd[ent_all]
    for d in range(2, (int(fd_ent.max()) if ent_all.size else 0) + 1):
        cur = ent_all[fd_ent == d]
        if not cur.size:
            continue
        pool = ent_all[fd_ent == d - 1]
        charge[cur] = pool[np.searchsorted(pool, cur) - 1]

    # self time: each event charges the gap since the previous event
    gaps = np.diff(icv, prepend=0)
    charged = np.flatnonzero(charge >= 0)         # in event order
    ch_nid = nrid[rid[charge[charged]]]
    self_by = np.zeros(n_names, np.int64)
    np.add.at(self_by, ch_nid, gaps[charged])
    open_ev = ent_all[match[ent_all] == n]        # final stack, bottom up
    if open_ev.size:                              # tail attribution
        top_nid = int(nrid[rid[open_ev[-1]]])
        self_by[top_nid] += total - int(icv[-1])
    else:
        top_nid = -1

    # cumulative: a frame counts iff no enclosing frame has its name
    # (gprof-sim's recursion rule).  Same-name frames nest or are
    # disjoint, so "has ancestor" is an exclusive running max of return
    # positions within each name group.
    fi, fj = ent_all, match[ent_all]
    fn = nrid[rid[fi]]
    ordf = stable_argsort(fn)       # fi is already ascending: stable
                                    # sort by name == lexsort((fi, fn))
    gid = np.cumsum(np.concatenate(
        ([True], fn[ordf][1:] != fn[ordf][:-1]))) - 1
    keyed = gid * (n + 2) + fj[ordf]
    excl_max = np.empty(fi.size, np.int64)
    excl_max[0] = -1
    excl_max[1:] = np.maximum.accumulate(keyed)[:-1] - gid[1:] * (n + 2)
    outer = ordf[excl_max <= fi[ordf]]            # no same-name ancestor
    cum_by = np.zeros(n_names, np.int64)
    cum_seen = np.zeros(n_names, bool)
    closed = outer[fj[outer] < n]
    np.add.at(cum_by, fn[closed], icv[fj[closed]] - icv[fi[closed]])
    cum_seen[fn[closed]] = True
    if open_ev.size:                              # tail cumulative
        open_nid = nrid[rid[open_ev]]
        sole = open_ev[np.bincount(open_nid, minlength=n_names)
                       [open_nid] == 1]
        np.add.at(cum_by, nrid[rid[sole]], total - icv[sole])
        cum_seen[nrid[rid[sole]]] = True

    # reconstruct dict-insertion orders: self_instr inserts a name the
    # first time it is charged; edges insert on first caller->callee hit
    ins = ch_nid[np.sort(_first_seen(ch_nid)[1])].tolist()
    if top_nid >= 0 and top_nid not in set(ins):
        ins.append(top_nid)
    ent2 = ent_all[charge[ent_all] >= 0]
    ekey = (nrid[rid[charge[ent2]]].astype(np.int64) * n_names
            + nrid[rid[ent2]])
    uk, first_e, counts = _first_seen(ekey)
    eorder = np.argsort(first_e, kind="stable")
    edge_items = [(int(uk[j]) // n_names, int(uk[j]) % n_names,
                   int(counts[j])) for j in eorder]
    calls_by = np.bincount(nrid[rid[ent_all]], minlength=n_names)
    return self_by, cum_by, cum_seen, calls_by, ins, edge_items


def replay_gprof(reader: CaptureReader, *, main_image_only: bool = True,
                 telemetry=TELEMETRY,
                 mem_limit: int | None = None) -> FlatProfile:
    """Rebuild a :class:`FlatProfile` from the captured call/return
    events — vectorized, byte-identical to gprof-sim's sequential
    charging algorithm (including its insertion-order tie-breaking).

    The balanced-parenthesis pairing is a whole-stream computation, so
    ``mem_limit`` bounds the decode path (streaming page reads, sidecar
    mmap views when warm) and accounts the assembled column against the
    budget gauges — call-event streams are orders of magnitude smaller
    than the tQUAD record streams, so this is the one replay whose
    result array may legitimately exceed a tight ceiling.
    """
    manifest = reader.manifest
    require_tool(manifest, "gprof")
    routines = [r[0] for r in manifest["routines"]]
    images = manifest["images"]
    total = manifest["total_instructions"]
    rows: list[FlatRow] = []
    edges: dict[tuple[str, str], int] = {}
    budget = MemBudget(mem_limit) if mem_limit else None
    with telemetry.span("replay", cat="capture", tool="gprof"):
        parts = []
        if reader.has_stream(STREAM_CALLS):
            pages = (StreamingCursor(reader, STREAM_CALLS, budget=budget)
                     if budget else reader.pages(STREAM_CALLS))
            parts = list(_checked_call_pages(pages, len(routines), total))
        col = (np.concatenate(parts, axis=0) if parts
               else np.empty((0, 2), np.int64))
        if budget:
            budget.touch(col.nbytes)
        raw, rid = col[:, 0], col[:, 1]
        # the live tool ignores a return with no open frame: exactly
        # the events driving the running depth to a new strict low
        entry = rid >= 0
        depth = np.cumsum(np.where(entry, 1, -1))
        low_prev = np.minimum.accumulate(
            np.concatenate(([0], depth)))[:-1]
        bad = (~entry) & (depth < low_prev)
        if bad.any():
            keep = ~bad
            raw, rid, entry = raw[keep], rid[keep], entry[keep]
        if raw.size:
            # routines may alias names; charge by first name id, the
            # way the sequential walk's name-keyed dicts collapse them
            first_id: dict[str, int] = {}
            nrid = np.array([first_id.setdefault(nm, i)
                             for i, nm in enumerate(routines)], np.int64)
            (self_by, cum_by, cum_seen, calls_by, ins,
             edge_items) = _gprof_charges(raw, rid, nrid,
                                          raw - entry, total)
            for nid in ins:
                name = routines[nid]
                si = int(self_by[nid])
                if main_image_only and images.get(name, "main") != "main":
                    continue
                rows.append(FlatRow(
                    name=name, self_instructions=si,
                    cumulative_instructions=(int(cum_by[nid])
                                             if cum_seen[nid] else si),
                    calls=int(calls_by[nid])))
            edges = {(routines[p], routines[c]): cnt
                     for p, c, cnt in edge_items}
    rows.sort(key=lambda r: r.self_instructions, reverse=True)
    if budget:
        budget.publish(telemetry)
    telemetry.count("capture/replays")
    return FlatProfile(rows=rows, total_instructions=total, edges=edges)


# ------------------------------------------------------------------- QUAD
#: The access widths the ISA records (indexed by a record's 5-bit size).
_QUAD_SIZES = np.isin(np.arange(32), (1, 2, 4, 8))


def _checked_quad_pages(pages, n_kernels: int, mem_size: int):
    """Yield ``quad.raw`` pages flattened, once the manifest can place
    every record: the kernel-id field (0 marks a dropped access) within
    the ``n_kernels``-entry table, a size the ISA records (1, 2, 4 or 8
    bytes; the drain's per-record fields assume it), and ``ea + size``
    within ``mem_size`` — the VM faults past it, and a faulting run
    writes no manifest."""
    from ..quad.shadow import ADDR_MASK, KID_SHIFT, TAIL_SHIFT

    for index, page in enumerate(pages):
        vals = page.ravel()
        if not vals.size:
            continue
        # SP markers are negative: the maximum is the largest record,
        # whose top bits hold the largest kernel-id field
        kid1 = int(vals.max()) >> KID_SHIFT
        if kid1 > n_kernels:
            raise CaptureFormatError(
                f"corrupt capture page {STREAM_QUAD}[{index}]: kernel id "
                f"{kid1 - 1} is outside the manifest's {n_kernels}-entry "
                f"QUAD kernel table")
        record = vals >= 0
        size = (vals >> (TAIL_SHIFT + 1)) & 31
        odd = ~_QUAD_SIZES[size]
        if np.any(odd, where=record):
            bad = int(size[np.flatnonzero(odd & record)[0]])
            raise CaptureFormatError(
                f"corrupt capture page {STREAM_QUAD}[{index}]: an access "
                f"of {bad} bytes; the ISA records 1, 2, 4 or 8")
        last = int(np.max((vals & ADDR_MASK) + size, where=record,
                          initial=0))
        if last > mem_size:
            raise CaptureFormatError(
                f"corrupt capture page {STREAM_QUAD}[{index}]: an access "
                f"ends at {last:#x}, past the manifest's mem_size "
                f"{mem_size:#x}")
        yield vals


def replay_quad(reader: CaptureReader, *, track_bindings: bool = True,
                telemetry=TELEMETRY, mem_limit: int | None = None):
    """Rebuild a :class:`~repro.quad.report.QuadReport` by draining the
    captured packed-record pages through a fresh paged shadow.

    ``mem_limit`` streams the record pages (bounded decode window) and
    shrinks the drain batch so the transient packed-record buffers fit
    the ceiling; the shadow state itself is the report being built, not
    working memory, and its footprint shows in ``shadow_stats``.
    """
    from ..quad.shadow import ADDR_MASK, PagedQuadSink
    from . import PAGE_BATCH_ROWS

    manifest = reader.manifest
    require_tool(manifest, "quad")
    mem_size = manifest["mem_size"]
    # every access is checked against mem_size, and a record's address
    # field is ADDR_MASK wide
    if (not isinstance(mem_size, int)
            or not 0 < mem_size <= ADDR_MASK + 1):
        raise CaptureFormatError(
            f"corrupt capture manifest: mem_size {mem_size!r} is outside "
            f"(0, {ADDR_MASK + 1}]")
    callstack = CallStack()
    for name in manifest["quad_kernels"]:
        callstack.intern(name)
    sink = PagedQuadSink(callstack, track_bindings=track_bindings)
    budget = MemBudget(mem_limit) if mem_limit else None
    with telemetry.span("replay", cat="capture", tool="quad"):
        if reader.has_stream(STREAM_QUAD):
            # pages seal at the capture-time flush cadence, usually far
            # below the drain cap; per-drain fixed costs dominate small
            # drains, so batch pages up to the shared replay tunable
            # (bounded by the cap the drain's sort keys rely on) before
            # draining
            batch = PAGE_BATCH_ROWS
            if budget:
                pages = StreamingCursor(reader, STREAM_QUAD,
                                        budget=budget)
                batch = min(batch, max(mem_limit // 64, 4096))
            else:
                pages = reader.pages(STREAM_QUAD)
            sink.drain_stream(
                _checked_quad_pages(pages, len(callstack.interned_names),
                                    mem_size),
                batch_rows=batch)
        report = sink.report(
            images=manifest["images"],
            total_instructions=manifest["total_instructions"])
    if budget:
        budget.publish(telemetry)
    telemetry.count("capture/replays")
    return report


# ------------------------------------------------------- fused multi-tool
#: Tools :func:`replay_many` can serve in one pass.
REPLAY_TOOLS = ("tquad", "gprof", "quad")


@dataclass
class ReplayBundle:
    """Every report produced by one :func:`replay_many` pass."""

    tquad: TQuadReport | None = None
    gprof: FlatProfile | None = None
    quad: Any | None = None                      #: QuadReport
    sweep: "SweepResult | None" = None


def replay_many(reader: CaptureReader, *,
                tools: tuple[str, ...] = REPLAY_TOOLS,
                options: TQuadOptions | None = None,
                grid: "SweepGrid | None" = None,
                telemetry=TELEMETRY,
                mem_limit: int | None = None) -> ReplayBundle:
    """Serve several tools (and optionally a sweep grid) from one pass.

    The serial pattern — ``replay_tquad`` then ``sweep_tquad`` — decodes
    every tQUAD page twice.  Here the tQUAD report rides *inside* the
    sweep pass: the requested grid is widened with the cell the
    ``options`` describe (whatever kernel filter either names: the
    filter shapes a report's options, never its ledger), the combined
    grid is filled in a single decode pass, and the bundle's
    ``tquad``/``sweep`` are pulled out of it — each remaining stream
    (``calls``, ``quad.raw``) has exactly one consumer, so every page in
    the capture is served exactly once.  Per
    tool the result is byte-identical to the standalone ``replay_*`` /
    ``sweep_tquad`` call (the property suite and the corpus golden tree
    pin this).

    ``tools`` picks from ``tquad``/``gprof``/``quad``; ``grid`` (a
    :class:`~repro.sweep.grid.SweepGrid`) additionally fills
    ``bundle.sweep``.  Validation runs before any page is read.
    ``mem_limit`` threads the streaming byte ceiling into every
    constituent replay — each report stays byte-identical to its
    unbounded counterpart.
    """
    from ..sweep.engine import restrict_sweep, sweep_tquad
    from ..sweep.grid import SweepGrid

    tools = tuple(tools)
    unknown = [t for t in tools if t not in REPLAY_TOOLS]
    if unknown:
        raise ValueError(f"unknown replay tools: {unknown!r}")
    if not tools and grid is None:
        raise ValueError("replay_many needs at least one tool or a grid")
    manifest = reader.manifest
    bundle = ReplayBundle()
    want_tquad = "tquad" in tools
    opts = None
    if want_tquad:
        require_tool(manifest, "tquad")
        opts = _resolve_tquad_options(manifest, options)
    with telemetry.span("replay_many", cat="capture",
                        tools=",".join(tools) or "sweep"):
        if want_tquad or grid is not None:
            wide = grid or SweepGrid(
                intervals=(opts.slice_interval,), stacks=(opts.stack,),
                library_modes=(opts.exclude_libraries,))
            if want_tquad:
                # the kernel filter is part of a report's options, not of
                # its ledger: the report rides the grid whatever filter
                # either names
                wide = SweepGrid(
                    intervals=tuple(set(wide.intervals)
                                    | {opts.slice_interval}),
                    stacks=tuple(set(wide.stacks) | {opts.stack}),
                    library_modes=tuple(set(wide.library_modes)
                                        | {opts.exclude_libraries}),
                    kernels=wide.kernels)
            result = sweep_tquad(reader, wide, telemetry=telemetry,
                                 mem_limit=mem_limit)
            if want_tquad:
                report = result.report(opts.slice_interval, opts.stack,
                                       opts.exclude_libraries)
                bundle.tquad = replace(report, options=opts,
                                       images=dict(report.images))
            if grid is not None:
                bundle.sweep = restrict_sweep(result, grid, manifest,
                                              reader)
        if "gprof" in tools:
            bundle.gprof = replay_gprof(reader, telemetry=telemetry,
                                        mem_limit=mem_limit)
        if "quad" in tools:
            bundle.quad = replay_quad(reader, telemetry=telemetry,
                                      mem_limit=mem_limit)
    return bundle
