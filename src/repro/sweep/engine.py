"""The batched sweep engine: decode each capture page once, fill a grid.

A sweep answers "what does this run look like under *every* analysis
config" without paying the per-config replay cost.  Where N calls to
:func:`repro.capture.replay.replay_tquad` decode and un-delta every page
N times, :func:`sweep_tquad` walks each tQUAD stream exactly once
(through a :class:`~repro.capture.reader.PageCursor`) and serves the
whole interval × stack-policy × library-mode grid from that single pass:

* **decode** — each page is decoded once; the library markers
  (``kernel_id <= -2``) and dropped-row sentinels (``-1``) become column
  masks, and every row is bucketed at the *gcd grain* of the requested
  intervals.  Rows are accumulated once per library mode the grid
  needs (library rows kept or dropped), every valid row of each, or
  only the rows with exclusive bytes when each of the mode's cells is
  exclusive-only (see the fold).  An exact pass sums each run of
  adjacent filtered rows that share a ``(kernel, fine-slice)`` key
  (:func:`~repro.core.npsort.run_sum`) before accumulating: pages
  recorded in event mode hold one row per access, in long runs of one
  kernel and slice.
* **bucket** — the per-page rows group into one sparse
  ``(kernel, fine-slice) -> (incl, excl)`` table per stream and library
  mode (a :class:`~repro.capture.streaming.SortedTableAcc` groups them
  as they arrive, during the decode), and each mode's read and write
  tables merge into one table of the four ledger counters, kernels
  numbered in name order (the ledger's).
* **fold** — each coarser interval ``m * grain`` is an exact segment-sum
  of the mode's fine table (``slice // m``); no re-read, no re-decode.
  An exclusive-only cell (``EXCLUDE`` from a ``BOTH`` capture) keeps
  the folded rows whose read or write excl sum is nonzero: byte counts
  are never negative (:func:`_check_page`), so those are exactly the
  keys of the rows with exclusive bytes.
* **report** — every cell's table lands in its own ledger as one grouped
  chunk (:meth:`~repro.core.ledger.BandwidthLedger.add`), so each cell
  is a normal :class:`~repro.core.report.TQuadReport`, byte-identical (at
  the ``tquad_to_json`` level) to a live run with the same options — the
  property suite in ``tests/property/test_prop_sweep.py`` asserts this
  cell by cell.

Every grouping step, the accumulators' compaction included, is one
:func:`~repro.core.npsort.group_sum` call, or for a page's runs its
last step, :func:`~repro.core.npsort.run_sum`: integer sums throughout,
so every route and every ceiling yields the same bytes.

This is the only code that buckets tQUAD pages: a single
:func:`~repro.capture.replay.replay_tquad` is a one-cell pass, and the
approximate tier (:func:`~repro.capture.approx.approx_replay_tquad`) is
the sampled pass for one cell plus a post-pass over the per-cell sums
the pass hands back through a module-private path.

Each phase runs under an :mod:`repro.obs` span (``cat="sweep"``) so
traces show where sweep time goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, NamedTuple

import numpy as np

from ..capture.format import (CaptureFormatError, STREAM_TQUAD_READ,
                              STREAM_TQUAD_WRITE, require_tool)
from ..capture.reader import CaptureReader, PageCursor, StreamingCursor
from ..capture.replay import _resolve_tquad_options
from ..capture.streaming import (MemBudget, SortedTableAcc, SpillPool,
                                 sample_mask)
from ..core.ledger import BandwidthLedger
from ..core.npsort import group_sum, run_sum
from ..core.options import StackPolicy, TQuadOptions
from ..core.report import TQuadReport
from ..obs import TELEMETRY
from .grid import SweepCell, SweepGrid

_STREAMS = ((STREAM_TQUAD_READ, False), (STREAM_TQUAD_WRITE, True))


@dataclass
class SweepResult:
    """The filled grid: one :class:`TQuadReport` per cell."""

    grid: SweepGrid
    reports: dict[SweepCell, TQuadReport]
    total_instructions: int
    grain: int
    stats: dict[str, int] = field(default_factory=dict)

    def report(self, interval: int,
               stack: StackPolicy = StackPolicy.BOTH,
               exclude_libraries: bool = False) -> TQuadReport:
        cell = SweepCell(interval=interval, stack=StackPolicy(stack),
                         exclude_libraries=bool(exclude_libraries),
                         kernels=self.grid.kernels)
        try:
            return self.reports[cell]
        except KeyError:
            raise KeyError(
                f"cell (interval={interval}, stack={StackPolicy(stack).value}, "
                f"exclude_libraries={exclude_libraries}) is not in this "
                f"sweep's grid") from None

    def by_interval(self, *, stack: StackPolicy = StackPolicy.BOTH,
                    exclude_libraries: bool = False
                    ) -> dict[int, TQuadReport]:
        """One row of the grid, keyed by interval (the multipass shape)."""
        return {iv: self.report(iv, stack, exclude_libraries)
                for iv in self.grid.intervals}

    def __iter__(self) -> Iterator[tuple[SweepCell, TQuadReport]]:
        for cell in sorted(self.reports, key=lambda c: c.key):
            yield cell, self.reports[cell]

    def __len__(self) -> int:
        return len(self.reports)


def _cell_combo(cell: SweepCell, captured: StackPolicy,
                captured_excl_libs: bool) -> tuple[bool, bool]:
    """The row-filter combination a cell reads from: (drop library rows,
    keep only rows with exclusive bytes).  Passes accumulate by the
    first (only the rows with exclusive bytes for a mode whose cells
    all keep only those); the second is a projection of the folded
    table."""
    drop_lib = cell.exclude_libraries and not captured_excl_libs
    excl_only = (captured is StackPolicy.BOTH
                 and cell.stack is StackPolicy.EXCLUDE)
    return (drop_lib, excl_only)


def grid_stats(grid: SweepGrid, manifest: dict, pages_walked: int,
               reader_stats: dict) -> dict[str, int]:
    """The ``SweepResult.stats`` block for ``grid`` — shared between
    :func:`sweep_tquad` and the fused-replay restriction so a sweep
    served out of a wider combined pass reports the same stats a
    standalone sweep of the same grid would."""
    mo = manifest["options"]
    captured = StackPolicy(mo["stack"])
    captured_excl_libs = bool(mo["exclude_libraries"])
    cells = grid.cells()
    combos = {_cell_combo(c, captured, captured_excl_libs) for c in cells}
    return {"cells": len(cells), "pages_walked": pages_walked,
            "grain": reduce(math.gcd, grid.intervals),
            "combos": len(combos), **reader_stats}


#: Stats keys the streaming/sampled paths add — present only when the
#: corresponding mode ran, so default sweeps serialise unchanged (the
#: corpus golden tree byte-diffs ``stats`` verbatim).
_STREAM_STATS = ("peak_resident_bytes", "spilled_bytes", "spill_runs",
                 "sample_rate", "sample_seed", "rows_walked",
                 "sampled_rows", "rel_err_95")


def restrict_sweep(result: SweepResult, grid: SweepGrid, manifest: dict,
                   reader: CaptureReader) -> SweepResult:
    """Project a wider sweep down to ``grid`` (every cell of ``grid``
    must be in ``result``) — grain and stats are recomputed as if the
    narrower grid had been swept directly."""
    reports = {cell: result.reports[cell] for cell in grid.cells()}
    stats = grid_stats(grid, manifest, result.stats["pages_walked"],
                       reader.stats)
    stats.update({k: result.stats[k] for k in _STREAM_STATS
                  if k in result.stats})
    return SweepResult(
        grid=grid, reports=reports,
        total_instructions=result.total_instructions,
        grain=reduce(math.gcd, grid.intervals),
        stats=stats)


def sweep_tquad(reader: CaptureReader, grid: SweepGrid,
                telemetry=TELEMETRY, *,
                mem_limit: int | None = None,
                sample: tuple[float, int] | None = None) -> SweepResult:
    """Fill ``grid`` from one decode pass over ``reader``'s tQUAD streams.

    Raises :class:`~repro.capture.format.CaptureMismatchError` if any
    grid cell is not derivable from the capture (non-multiple interval,
    underivable stack policy or library mode) — validation runs for the
    whole grid before any page is read — and
    :class:`~repro.capture.format.CaptureFormatError` if a page holds a
    row the manifest cannot place (a kernel id outside its kernel table,
    an instruction count outside its slices).

    Per-combo partials compact incrementally, once at least
    :data:`~repro.capture.PAGE_BATCH_ROWS` rows and as many rows as the
    carry holds are pending.  ``mem_limit`` switches the bucket pass to
    bounded accumulation: pages stream (mmap views when the sidecar is
    warm, bounded decode otherwise), and carry tables that push past the
    ceiling spill to disk as sorted runs merged back blockwise — integer
    segment sums are associative, so every cell is byte-identical to the
    unbounded sweep (the streaming property suite pins this).
    ``sample=(rate, seed)`` Bernoulli-samples rows before bucketing and
    Horvitz-Thompson rescales each cell's counters by ``1/rate``; the
    stats block then reports the sampled row counts and a 95%-confidence
    relative error bound on the total inclusive bytes.  Both add their
    stats keys only when active, keeping default sweeps
    serialisation-identical.
    """
    budget = MemBudget(mem_limit) if mem_limit else None
    return _sweep(reader, grid, telemetry, budget, sample)[0]


class _CellSample(NamedTuple):
    """What a sampled pass keeps of one cell for the approximate tier's
    post-pass (:func:`repro.capture.approx.approx_replay_tquad`), all
    before the ``1/rate`` rescale: per ledger counter the sum and sum of
    squares of the sampled, filtered rows, and each kernel's bytes."""

    sums: np.ndarray             #: float64[4], ledger counter order
    sumsqs: np.ndarray           #: float64[4]
    kernel_bytes: np.ndarray     #: int64[len(kernels)]


def _check_page(page: np.ndarray, stream: str, index: int,
                n_kernels: int, fine: int, n_fine: int,
                prev: int) -> tuple[int, int]:
    """Reject rows the manifest cannot place before they become keys,
    and rows no recording sink writes (a negative byte count, an
    instruction count below the one before it, ``prev`` being the
    stream's last so far); returns the page's smallest raw kernel id
    (negative when it holds library-marked or dropped rows) and the
    stream's last instruction count after it.

    Keys are ``kernel * n_fine + slice`` (kernels numbered in name
    order): a slice index of ``n_fine`` or more would spill into the next
    kernel's keys, and a kernel id past the table would index out of it.
    Library-marked ids (``<= -2``) decode to ``-2 - id``; ``-1`` rows
    are dropped, never bucketed.  The sinks append rows as the guest
    runs, so instruction counts never decrease, within a page or
    across the pages of a stream.
    """
    if page.shape[0] == 0:
        return 0, prev
    kid = page[:, 3]
    min_kid = int(kid.min())
    worst = max(int(kid.max()), -2 - min_kid)
    if worst >= n_kernels:
        raise CaptureFormatError(
            f"corrupt capture page {stream}[{index}]: kernel id {worst} "
            f"is outside the manifest's {n_kernels}-entry kernel table")
    ic = page[:, 0]
    lo, hi = int(ic[0]), int(ic[-1])
    if 1 <= lo < prev or bool((ic[1:] < ic[:-1]).any()):
        raise CaptureFormatError(
            f"corrupt capture page {stream}[{index}]: icounts decrease")
    # nondecreasing: the first and last rows bound the page
    if lo < 1 or (hi - 1) // fine >= n_fine:
        bad = lo if lo < 1 else hi
        raise CaptureFormatError(
            f"corrupt capture page {stream}[{index}]: instruction count "
            f"{bad} is outside the manifest's {n_fine} slices of {fine} "
            f"instructions")
    least = min(int(page[:, 1].min()), int(page[:, 2].min()))
    if least < 0:
        raise CaptureFormatError(
            f"corrupt capture page {stream}[{index}]: a row of {least} "
            f"bytes (byte counts are never negative)")
    return min_kid, hi


def _sweep(reader: CaptureReader, grid: SweepGrid, telemetry,
           budget: MemBudget | None,
           sample: tuple[float, int] | None
           ) -> tuple[SweepResult, dict[SweepCell, _CellSample] | None]:
    """The one pass behind :func:`sweep_tquad`,
    :func:`~repro.capture.replay.replay_tquad` and the approximate tier.

    ``budget`` (unlimited or not) selects the streaming page cursor,
    charges the accumulators and publishes the stream stats; without
    one they group under an unlimited budget of their own.  With
    ``sample`` set the second value maps every cell to its
    :class:`_CellSample`, otherwise it is ``None``.
    """
    if sample is not None:
        rate, sample_seed = float(sample[0]), int(sample[1])
        if not (0.0 < rate < 1.0):
            raise ValueError(
                f"sampling rate must be in (0, 1), got {rate!r}")
    else:
        rate = sample_seed = None
    manifest = reader.manifest
    require_tool(manifest, "tquad")
    mo = manifest["options"]
    captured = StackPolicy(mo["stack"])
    captured_excl_libs = bool(mo["exclude_libraries"])
    cells = grid.cells()
    for cell in cells:
        _resolve_tquad_options(manifest, cell.options())

    fine = reduce(math.gcd, grid.intervals)
    total = int(manifest["total_instructions"])
    n_fine = (max(total, 1) - 1) // fine + 1
    names = manifest["kernels"]
    # keys number kernels in name order, so every table is in its
    # ledger's order; dropped rows (id -1, masked out) key from the end
    ordered = sorted(names)
    pos = {name: i for i, name in enumerate(ordered)}
    rank = np.array([pos[name] for name in names], np.int64)
    kid_base = np.append(rank * n_fine, -n_fine)
    images = dict(manifest["images"])
    combos = {_cell_combo(c, captured, captured_excl_libs) for c in cells}

    reports: dict[SweepCell, TQuadReport] = {}
    samples: dict[SweepCell, _CellSample] | None = (
        {} if rate is not None else None)
    pages_walked = 0
    rows_read = rows_bucketed = 0
    samp = ({"sampled_rows": 0, "sum": 0.0, "sumsq": 0.0}
            if rate is not None else None)
    with telemetry.span("sweep", cat="sweep", tool="tquad",
                        cells=len(cells), grain=fine,
                        intervals=",".join(map(str, grid.intervals))), \
            SpillPool(budget) as pool:
        # ------------------------------------------------ decode (one pass)
        # per (stream, library mode): an accumulator that groups the
        # pages' (keys, incl, excl) partials as they arrive, so no sweep
        # holds every page's partials at once; under a memory budget its
        # carry also spills.  Only the library modes are accumulated:
        # an exclusive-only cell is a projection of its mode's table
        # (see the fold)
        from ..capture import PAGE_BATCH_ROWS
        libs = sorted({drop_lib for drop_lib, _ in combos})
        # a library mode whose every cell is exclusive-only reads no
        # incl counter or moment, so its filter also drops the rows
        # without exclusive bytes (never negative: _check_page)
        excl_libs = {drop_lib for drop_lib in libs
                     if (drop_lib, False) not in combos}
        locs = [(stream, drop_lib) for stream, _ in _STREAMS
                for drop_lib in libs]
        charged = budget if budget is not None else MemBudget()
        accs = {loc: SortedTableAcc(charged, PAGE_BATCH_ROWS)
                for loc in locs}
        # sampled runs: per (stream, library mode) float sums of the
        # filtered rows' (incl, incl², excl, excl²) — the approximate
        # tier's variance estimate needs row-level squares, not table sums
        moments = ({loc: np.zeros(4) for loc in locs}
                   if rate is not None else None)

        with telemetry.span("sweep.decode", cat="sweep"):
            for si, (stream, _) in enumerate(_STREAMS):
                src = (StreamingCursor(reader, stream, budget=budget)
                       if budget is not None
                       else PageCursor(reader, stream))
                last_ic = 0
                for pi, page in enumerate(src):
                    pages_walked += 1
                    rows_read += page.shape[0]
                    min_kid, last_ic = _check_page(
                        page, stream, pi, len(names), fine, n_fine,
                        last_ic)
                    if rate is not None:
                        n = page.shape[0]
                        keep = sample_mask(sample_seed, si, pi, n, rate)
                        kept = int(keep.sum())
                        samp["sampled_rows"] += kept
                        if kept == 0:
                            continue
                        if kept < n:
                            page = page[keep]
                        vals = page[:, 1].astype(float)
                        samp["sum"] += float(vals.sum())
                        samp["sumsq"] += float((vals * vals).sum())
                    kid_raw = page[:, 3]
                    if kid_raw.size and min_kid >= 0:
                        # fast path: no library rows, no dropped rows —
                        # the common page needs no masks at all (a
                        # sampled page keeps a subset of the rows, so
                        # the whole page's minimum decides for it too)
                        lib = valid = None
                        has_lib = False
                        kid = kid_raw
                    else:
                        lib = kid_raw < -1
                        valid = kid_raw != -1
                        has_lib = bool(lib.any())
                        kid = np.where(lib, -2 - kid_raw, kid_raw)
                    sl = (page[:, 0] - 1) // fine
                    key = kid_base[kid] + sl
                    incl, excl = page[:, 1], page[:, 2]
                    # each library mode's row filter selects rows (two
                    # modes share one selection on a page without
                    # library rows when both keep or both drop the rows
                    # without exclusive bytes), and the accumulators
                    # group what they get as it arrives
                    done: dict[tuple[bool, bool], tuple | None] = {}
                    for drop_lib in libs:
                        eff = (drop_lib and has_lib, drop_lib in excl_libs)
                        if eff not in done:
                            mask = valid & ~lib if eff[0] else valid
                            if eff[1]:
                                mask = (excl != 0 if mask is None
                                        else mask & (excl != 0))
                            done[eff] = _select(
                                mask, key, incl, excl, rate is None,
                                moments is not None)
                        if done[eff] is not None:
                            chunk, mom = done[eff]
                            rows_bucketed += chunk[0].size
                            accs[stream, drop_lib].add(*chunk)
                            if mom is not None:
                                moments[stream, drop_lib] += mom
                    if budget is not None and budget.over:
                        # fold pending chunks first — usually enough;
                        # carry that still busts the ceiling goes to disk
                        for acc in accs.values():
                            acc.compact()
                        if budget.over:
                            for acc in accs.values():
                                acc.spill(pool)
        # ------------- bucket (group partials, merge read and write tables)
        # per library mode one sparse (kernel, fine slice) table of the
        # four ledger counters
        fine_tables: dict[bool, tuple[np.ndarray, ...]] = {}
        with telemetry.span("sweep.bucket", cat="sweep"):
            for drop_lib in libs:
                # an accumulator's table is already grouped (and merged
                # back from any spill runs)
                (kr, ir, er), (kw, iw, ew) = (
                    accs.pop((stream, drop_lib)).finalize()
                    for stream, _ in _STREAMS)
                zr, zw = np.zeros_like(kr), np.zeros_like(kw)
                fine_tables[drop_lib] = group_sum(*map(np.concatenate, (
                    (kr, kw), (ir, zw), (er, zw), (zr, iw), (zr, ew))))
        # -------------------------------- fold (exact coarse segment sums)
        folded: dict[tuple[tuple[bool, bool], int],
                     tuple[np.ndarray, ...]] = {}
        with telemetry.span("sweep.fold", cat="sweep"):
            for cell in cells:
                drop_lib, excl_only = combo = _cell_combo(
                    cell, captured, captured_excl_libs)
                base = (drop_lib, False), cell.interval
                if base not in folded:
                    # fine keys ascend kernel-major, so rounding slices
                    # down to a multiple of m keeps them nondecreasing
                    keys, *cols = fine_tables[drop_lib]
                    m = cell.interval // fine
                    keys, *cols = group_sum(keys - keys % n_fine % m,
                                            *cols)
                    folded[base] = (keys // n_fine, keys % n_fine // m,
                                    cols)
                if excl_only and (combo, cell.interval) not in folded:
                    # the rows with exclusive bytes: _check_page rejects
                    # negative byte counts, so a key holds such a row
                    # exactly when its read or write excl sum is nonzero
                    kid, slices, cols = folded[base]
                    keep = (cols[1] | cols[3]) != 0
                    folded[combo, cell.interval] = (
                        kid[keep], slices[keep], [c[keep] for c in cols])
        # ----------------------------------- report (one ledger per cell)
        with telemetry.span("sweep.report", cat="sweep"):
            for cell in cells:
                combo = _cell_combo(cell, captured, captured_excl_libs)
                zero_excl = (captured is StackPolicy.BOTH
                             and cell.stack is StackPolicy.INCLUDE)
                # the cell ledger's one chunk, folded on first read; the
                # cell's stack view zeroes the counters it drops
                kid, slices, cols = folded[combo, cell.interval]
                drop = (combo[1], zero_excl) * 2
                mat = np.zeros((kid.size, 4), dtype=np.int64)
                for j, col in enumerate(cols):
                    if not drop[j]:
                        mat[:, j] = col
                if rate is not None:
                    samples[cell] = _cell_sample(
                        moments, combo, zero_excl, kid, mat, rank)
                    # Horvitz-Thompson: one 1/rate rescale at the very
                    # end keeps every cell consistent with the same
                    # sampled row set
                    mat = np.rint(mat / rate).astype(np.int64)
                ledger = BandwidthLedger(cell.interval)
                ledger.add(ordered, kid, slices, mat)
                reports[cell] = TQuadReport(
                    ledger=ledger,
                    options=cell.options(),
                    total_instructions=total, images=dict(images),
                    complete=True)
    telemetry.count("sweep/runs")
    telemetry.count("sweep/rows_read", rows_read)
    telemetry.count("sweep/rows_bucketed", rows_bucketed)
    telemetry.gauge("sweep/cells", len(cells))
    stats = grid_stats(grid, manifest, pages_walked, reader.stats)
    if budget is not None:
        budget.publish(telemetry)
        stats.update(peak_resident_bytes=budget.peak,
                     spilled_bytes=budget.spilled_bytes,
                     spill_runs=budget.spill_runs)
    if rate is not None:
        s = samp["sum"]
        rel = (1.96 * math.sqrt(samp["sumsq"] * (1.0 - rate)) / s
               if s > 0 else 0.0)
        stats.update(sample_rate=rate, sample_seed=sample_seed,
                     rows_walked=rows_read,
                     sampled_rows=samp["sampled_rows"],
                     rel_err_95=round(rel, 6))
    result = SweepResult(grid=grid, reports=reports,
                         total_instructions=total, grain=fine, stats=stats)
    return result, samples


def _select(mask: np.ndarray | None, key: np.ndarray, incl: np.ndarray,
            excl: np.ndarray, exact: bool, with_moments: bool):
    """The ``(keys, incl, excl)`` chunk of a page's rows that ``mask``
    keeps (every row when ``None``) and, ``with_moments``, its
    ``(incl, incl², excl, excl²)`` float sums — or ``None`` when it
    keeps no row.  An ``exact`` pass sums each run of adjacent rows
    sharing a key (an event-mode page holds one row per access, in runs
    of one kernel and slice); a sampled pass hands on rows, whose
    squares its moments need.  The chunk never aliases the page: the
    accumulators keep it past the page."""
    if mask is None or mask.all():
        chunk = (key, incl, excl)
    elif mask.any():
        chunk = (key[mask], incl[mask], excl[mask])
    else:
        return None
    if exact:
        chunk = run_sum(chunk[0], chunk[1:])
    if chunk[1] is incl:
        chunk = (key, incl.copy(), excl.copy())
    mom = None
    if with_moments:
        inf = chunk[1].astype(float)
        exf = chunk[2].astype(float)
        mom = np.array([inf.sum(), (inf * inf).sum(),
                        exf.sum(), (exf * exf).sum()])
    return chunk, mom


def _cell_sample(moments, combo, zero_excl: bool, kid: np.ndarray,
                 mat: np.ndarray, rank: np.ndarray) -> _CellSample:
    """One cell's :class:`_CellSample`, zeroing the counters the cell's
    stack view drops exactly as its (unscaled) ``mat`` does.  ``kid``
    numbers kernels in name order; ``rank`` maps manifest ids to it.

    ``moments`` are the cell's library mode's: an exclusive-only cell's
    rows without exclusive bytes add nothing to its excl moments, and
    it reads no incl moment."""
    sums, sumsqs = np.zeros(4), np.zeros(4)
    drop_lib, excl_only = combo
    for (stream, write) in _STREAMS:
        m = moments[stream, drop_lib]
        col = 2 if write else 0
        if not excl_only:
            sums[col], sumsqs[col] = m[0], m[1]
        if not zero_excl:
            sums[col + 1], sumsqs[col + 1] = m[2], m[3]
    owners, owned = group_sum(kid, mat.sum(axis=1))
    kernel_bytes = np.zeros(rank.size, np.int64)
    kernel_bytes[owners] = owned
    return _CellSample(sums, sumsqs, kernel_bytes[rank])


def _one_cell(reader: CaptureReader, options: TQuadOptions, telemetry,
              budget: MemBudget | None,
              sample: tuple[float, int] | None
              ) -> tuple[TQuadReport, dict[str, int], _CellSample | None]:
    """A single replay as a one-cell pass: the report (carrying the
    caller's resolved ``options``), the pass's stats and, when sampled,
    the cell's :class:`_CellSample`."""
    grid = SweepGrid(intervals=(options.slice_interval,),
                     stacks=(options.stack,),
                     library_modes=(options.exclude_libraries,),
                     kernels=options.kernels)
    result, samples = _sweep(reader, grid, telemetry, budget, sample)
    (cell, report), = result.reports.items()
    report.options = options
    return report, result.stats, (samples[cell] if samples else None)
