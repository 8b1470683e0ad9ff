"""Per-kernel, per-slice memory bandwidth accounting.

The ledger is the "memory bandwidth usage data list" plus the "mutual
kernel-to-bandwidth data map list" of the paper's pseudocode (Fig. 3).  Four
counters are kept for every (kernel, slice) pair::

    [read incl. stack, read excl. stack, write incl. stack, write excl. stack]

so one profiling pass yields both of the paper's stack-inclusion views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Counter indices.
R_INCL, R_EXCL, W_INCL, W_EXCL = 0, 1, 2, 3


class BandwidthLedger:
    """Accumulates byte counts into time slices of ``interval`` instructions.

    Slice ``s`` covers instructions ``s*interval+1 … (s+1)*interval``
    (instruction counts are 1-based at the time an analysis call runs).
    """

    __slots__ = ("interval", "history")

    def __init__(self, interval: int):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.history: dict[str, dict[int, tuple[int, int, int, int]]] = {}

    def reset(self) -> None:
        """Start a fresh accounting run on the same ledger object.

        ``history`` is *replaced*, not cleared — a previously extracted
        reference (e.g. a shard payload) stays valid and frozen.
        """
        self.history = {}

    def accumulate(self, name: str, slice_index: int, r_incl: int,
                   r_excl: int, w_incl: int, w_excl: int) -> None:
        """Add counts to ``name``'s counters in slice ``slice_index``.

        The recording path (:mod:`repro.core.recording`) aggregates whole
        buffers of accesses with NumPy and lands the per-(kernel, slice)
        sums here; addition commutes, so out-of-order flushes and shard
        merges compose.
        """
        hk = self.history.get(name)
        if hk is None:
            hk = self.history[name] = {}
        c = hk.get(slice_index)
        if c is None:
            hk[slice_index] = (r_incl, r_excl, w_incl, w_excl)
        else:
            hk[slice_index] = (c[0] + r_incl, c[1] + r_excl,
                               c[2] + w_incl, c[3] + w_excl)

    # -- queries --------------------------------------------------------------
    def kernels(self) -> list[str]:
        return sorted(self.history)

    def slices_of(self, name: str) -> dict[int, tuple[int, int, int, int]]:
        return self.history.get(name, {})

    def series(self, name: str) -> "KernelSeries":
        """Dense per-slice arrays for one kernel."""
        data = self.history.get(name, {})
        if not data:
            empty = np.zeros(0, dtype=np.int64)
            return KernelSeries(name, self.interval, empty, empty.copy(),
                                empty.copy(), empty.copy(), empty.copy())
        slices = np.array(sorted(data), dtype=np.int64)
        counters = np.array([data[s] for s in slices], dtype=np.int64)
        return KernelSeries(name, self.interval, slices,
                            counters[:, R_INCL], counters[:, R_EXCL],
                            counters[:, W_INCL], counters[:, W_EXCL])


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
