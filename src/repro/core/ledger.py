"""Per-kernel, per-slice memory bandwidth accounting.

The ledger is the "memory bandwidth usage data list" plus the "mutual
kernel-to-bandwidth data map list" of the paper's pseudocode (Fig. 3).  Four
counters are kept for every (kernel, slice) pair::

    [read incl. stack, read excl. stack, write incl. stack, write excl. stack]

so one profiling pass yields both of the paper's stack-inclusion views.

The ledger is one columnar table: a kernel-name table in Python ``sorted``
order, plus ``int64`` slice and counter columns sorted by (kernel, slice),
one row per pair.  Writers append *grouped chunks* with :meth:`add` — the
live recording flush and the sweep engine's cells both land their rows
this way — and the first read folds the pending chunks
into the table once, with one :func:`~repro.core.npsort.group_sum` over
packed (kernel, slice) keys.  Integer addition commutes, so chunks may
arrive in any order and split any way; every reader (:meth:`kernels`,
:meth:`series`, :meth:`table`, :attr:`history`) sees the same table.  A
chunk already in the table's order (a sweep cell's, whose kernels are
numbered in name order) folds without a sort.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .npsort import group_sum

#: Counter indices.
R_INCL, R_EXCL, W_INCL, W_EXCL = 0, 1, 2, 3


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_NO_ROWS = _frozen(np.empty(0, np.int64))
_NO_COUNTERS = _frozen(np.empty((0, 4), np.int64))
_NO_BOUNDS = _frozen(np.zeros(1, np.int64))


class BandwidthLedger:
    """Accumulates byte counts into time slices of ``interval`` instructions.

    Slice ``s`` covers instructions ``s*interval+1 … (s+1)*interval``
    (instruction counts are 1-based at the time an analysis call runs).
    Rows whose counters are all zero are kept: a (kernel, slice) pair the
    writers named is part of the table.
    """

    __slots__ = ("interval", "_chunks", "_names", "_bounds", "_slices",
                 "_counters")

    def __init__(self, interval: int):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.reset()

    def reset(self) -> None:
        """Start a fresh accounting run on the same ledger object.

        The table is *replaced*, not cleared in place, so views handed
        out earlier (series arrays) stay valid and frozen.
        """
        self._chunks: list[tuple] = []
        self._names: tuple[str, ...] = ()
        #: kernel ``k`` owns rows ``_bounds[k]:_bounds[k + 1]``
        self._bounds = _NO_BOUNDS
        self._slices = _NO_ROWS
        self._counters = _NO_COUNTERS

    # -- writers --------------------------------------------------------------
    def add(self, names: Sequence[str], kid, slices, counters) -> None:
        """Append one grouped chunk: row ``i`` adds ``counters[i]`` (the
        four counters, in counter-index order) to kernel
        ``names[kid[i]]`` in slice ``slices[i]``.

        ``names`` is copied, so the caller may keep growing its own
        table (the recording flush passes the call stack's interned-name
        list, which grows as new kernels are entered).
        The arrays are kept as given until the fold, so the caller must
        not modify them afterwards.
        """
        if len(kid):
            self._chunks.append((
                tuple(names), np.asarray(kid, np.int64),
                np.asarray(slices, np.int64),
                np.asarray(counters, np.int64).reshape(-1, 4)))

    def accumulate(self, name: str, slice_index: int, r_incl: int,
                   r_excl: int, w_incl: int, w_excl: int) -> None:
        """Add counts to ``name``'s counters in slice ``slice_index``:
        a one-row :meth:`add`."""
        self.add((name,), (0,), (slice_index,),
                 ((r_incl, r_excl, w_incl, w_excl),))

    def _table_chunk(self) -> tuple:
        kid = np.repeat(np.arange(len(self._names), dtype=np.int64),
                        np.diff(self._bounds))
        return (self._names, kid, self._slices, self._counters)

    def _fold(self) -> None:
        """Fold the pending chunks into the table: map each chunk's
        kernel ids onto the union name table and sum rows that share a
        (kernel, slice) pair."""
        if not self._chunks:
            return
        chunks, self._chunks = self._chunks, []
        if self._slices.size:
            chunks.append(self._table_chunk())
        names = sorted(set().union(*(c[0] for c in chunks)))
        pos = {name: i for i, name in enumerate(names)}
        kid = np.concatenate([
            np.array([pos[n] for n in c[0]], np.int64)[c[1]]
            for c in chunks])
        sl = np.concatenate([c[2] for c in chunks])
        cnt = np.concatenate([c[3] for c in chunks])
        # one (kernel, slice) key per row, kernel-major
        lo = int(sl.min())
        width = int(sl.max()) - lo + 1
        if len(names) * width >> 63:
            raise OverflowError("(kernel, slice) keys overflow int64")
        keys, *sums = group_sum(kid * width + (sl - lo), *cnt.T)
        kid = keys // width
        # the kernel table keeps only kernels that own rows
        first = np.flatnonzero(np.concatenate(([True],
                                               kid[1:] != kid[:-1])))
        self._names = tuple(names[k] for k in kid[first].tolist())
        self._bounds = _frozen(np.append(first, kid.size))
        self._slices = _frozen(keys % width + lo)
        self._counters = _frozen(np.column_stack(sums))

    # -- readers --------------------------------------------------------------
    def kernels(self) -> list[str]:
        """Kernels with at least one row, in ``sorted`` order."""
        self._fold()
        return list(self._names)

    def series(self, name: str) -> "KernelSeries":
        """Per-slice arrays for one kernel (read-only views of the
        table)."""
        self._fold()
        names = self._names
        k = bisect_left(names, name)
        if k == len(names) or names[k] != name:
            return KernelSeries(name, self.interval, _NO_ROWS, _NO_ROWS,
                                _NO_ROWS, _NO_ROWS, _NO_ROWS)
        i, j = self._bounds[k], self._bounds[k + 1]
        c = self._counters[i:j]
        return KernelSeries(name, self.interval, self._slices[i:j],
                            c[:, R_INCL], c[:, R_EXCL], c[:, W_INCL],
                            c[:, W_EXCL])

    def table(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray,
                             np.ndarray]:
        """The whole table, read-only: ``(names, bounds, slices,
        counters)``.  Kernel ``k`` is ``names[k]`` and owns rows
        ``bounds[k]:bounds[k + 1]`` of the ``slices`` column and of the
        ``(rows, 4)`` ``counters`` matrix."""
        self._fold()
        return self._names, self._bounds, self._slices, self._counters

    @property
    def history(self) -> dict[str, dict[int, tuple[int, int, int, int]]]:
        """The table as ``{kernel: {slice: counters}}``, built on each
        read: writing to it does not change the ledger."""
        self._fold()
        slices = self._slices.tolist()
        rows = list(map(tuple, self._counters.tolist()))
        b = self._bounds.tolist()
        return {name: dict(zip(slices[b[k]:b[k + 1]], rows[b[k]:b[k + 1]]))
                for k, name in enumerate(self._names)}


@dataclass
class KernelSeries:
    """Per-slice bandwidth data of one kernel (sparse: active slices only)."""

    name: str
    interval: int
    slices: np.ndarray       #: slice indices where any counter is non-zero
    read_incl: np.ndarray
    read_excl: np.ndarray
    write_incl: np.ndarray
    write_excl: np.ndarray

    def total(self, *, write: bool, include_stack: bool) -> int:
        arr = self._pick(write, include_stack)
        return int(arr.sum())

    def _pick(self, write: bool, include_stack: bool) -> np.ndarray:
        if write:
            return self.write_incl if include_stack else self.write_excl
        return self.read_incl if include_stack else self.read_excl

    def bandwidth(self, *, write: bool, include_stack: bool) -> np.ndarray:
        """Bytes per instruction for each active slice."""
        return self._pick(write, include_stack) / float(self.interval)

    def combined(self, *, include_stack: bool) -> np.ndarray:
        """Read+write bytes per active slice."""
        if include_stack:
            return self.read_incl + self.write_incl
        return self.read_excl + self.write_excl

    def active_mask(self, *, include_stack: bool) -> np.ndarray:
        return self.combined(include_stack=include_stack) > 0

    def activity_span(self, *, include_stack: bool = True
                      ) -> tuple[int, int, int]:
        """(first slice, last slice, number of active slices).

        "activity span represents the number of time slices in which the
        kernel is active (accesses memory)" — Table IV caption.
        """
        mask = self.active_mask(include_stack=include_stack)
        active = self.slices[mask]
        if active.size == 0:
            return (-1, -1, 0)
        return (int(active[0]), int(active[-1]), int(active.size))

    def average_bandwidth(self, *, write: bool, include_stack: bool) -> float:
        """Mean bytes/instruction over the kernel's *active* slices."""
        mask = self.active_mask(include_stack=True)
        n = int(mask.sum())
        if n == 0:
            return 0.0
        total = int(self._pick(write, include_stack)[mask].sum())
        return total / (n * self.interval)

    def max_bandwidth(self, *, include_stack: bool) -> float:
        """Peak combined (read+write) bytes/instruction over slices."""
        combined = self.combined(include_stack=include_stack)
        if combined.size == 0:
            return 0.0
        return float(combined.max()) / self.interval

    def peak(self, *, include_stack: bool = True) -> tuple[int, float]:
        """(slice index, bytes/instruction) of the bandwidth maximum.

        The paper withholds "the detailed information about the timings of
        the maximum bandwidth usage … here" (§V-B); this provides it.
        """
        combined = self.combined(include_stack=include_stack)
        if combined.size == 0:
            return (-1, 0.0)
        i = int(np.argmax(combined))
        return (int(self.slices[i]), float(combined[i]) / self.interval)

    def bursts(self, *, include_stack: bool = True,
               max_gap: int = 0) -> list[tuple[int, int]]:
        """Exact activity intervals: maximal runs of active slices.

        §V-B: "tQUAD is capable of providing the detailed information about
        the exact time intervals in which a kernel is communicating with
        the memory."  ``max_gap`` merges bursts separated by at most that
        many idle slices (the paper "merely ignores" stray activations
        outside a kernel's main span; callers can do the same by inspecting
        burst lengths).
        """
        mask = self.active_mask(include_stack=include_stack)
        active = self.slices[mask]
        if active.size == 0:
            return []
        out: list[tuple[int, int]] = []
        start = prev = int(active[0])
        for s in active[1:]:
            s = int(s)
            if s - prev > max_gap + 1:
                out.append((start, prev))
                start = s
            prev = s
        out.append((start, prev))
        return out

    def dense(self, n_slices: int, *, write: bool,
              include_stack: bool) -> np.ndarray:
        """Bytes per slice as a dense array of length ``n_slices``."""
        out = np.zeros(n_slices, dtype=np.int64)
        arr = self._pick(write, include_stack)
        valid = self.slices < n_slices
        out[self.slices[valid]] = arr[valid]
        return out
