"""Spans, counters and gauges over a monotonic clock.

The profiler treats itself as an observable system: every coarse unit of
work — a compile, a capture replay, a record-buffer drain, a sweep — is
wrapped in a :meth:`Telemetry.span`, and structural facts (superblocks
compiled, worker tasks retried, shadow pages resident) land in counters
and gauges.

Overhead discipline
-------------------

Instrumentation is *phase-granular*, never per-instruction: no telemetry
call sits on the VM dispatch path or inside an analysis thunk.  When
tracing is disabled (the default) :meth:`Telemetry.span` returns a shared
no-op context manager, so a disabled span costs one attribute test plus a
``with`` on a ``__slots__``-only singleton; counters and gauges are plain
dict stores and stay live even when tracing is off (they are the cheap,
always-on part of the system — e.g. the ``--jobs`` clamp is recorded
whether or not a trace is being collected).

Memory
------

An enabled span also records where the process's memory stood: the
resident set at its close (``rss_kib``, from ``/proc/self/statm``) and
the process peak (``ru_maxrss``) at its open and at its close
(``peak_open_kib``, ``peak_close_kib``), all in KiB.  A span whose
``peak_close_kib`` exceeds its ``peak_open_kib`` raised the high-water
mark itself.  The reads (:func:`read_peak` at the open, it and
:func:`read_rss` at the close) happen outside the span's timed interval,
and disabled telemetry makes none.

Clock
-----

Timestamps come from ``time.monotonic_ns`` — on Linux a system-wide
monotonic clock, so spans recorded in worker processes land on the same
timeline as the parent's and the merged Chrome trace lines up without
cross-process clock translation.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable

try:
    import resource
except ImportError:  # pragma: no cover - not on every platform
    resource = None

#: KiB per page of ``/proc/self/statm``.
_PAGE_KIB = (os.sysconf("SC_PAGE_SIZE") // 1024
             if hasattr(os, "sysconf") else 4)
#: ``ru_maxrss`` is in bytes on macOS and in KiB elsewhere.
_MAXRSS_DIV = 1024 if sys.platform == "darwin" else 1


def read_peak() -> int | None:
    """The process's peak resident set (``ru_maxrss``) in KiB, or
    ``None`` where the platform does not report it."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // _MAXRSS_DIV


def read_rss() -> int | None:
    """The process's resident set in KiB (``/proc/self/statm``), or
    ``None`` where the platform has no such file."""
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
    except OSError:
        return None
    try:
        return int(os.read(fd, 128).split()[1]) * _PAGE_KIB
    finally:
        os.close(fd)


class _NullSpan:
    """Shared no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **args) -> None:
        """Nothing is recorded."""


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself into the owning telemetry on exit."""

    __slots__ = ("_tele", "name", "cat", "tid", "args", "t0", "peak0")

    def __init__(self, tele: "Telemetry", name: str, cat: str, tid: int,
                 args: dict):
        self._tele = tele
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args

    def __enter__(self) -> "_Span":
        self.peak0 = read_peak()
        self.t0 = self._tele.clock()
        return self

    def __exit__(self, *exc) -> bool:
        tele = self._tele
        dur = tele.clock() - self.t0
        self.args.update(rss_kib=read_rss(), peak_open_kib=self.peak0,
                         peak_close_kib=read_peak())
        tele.events.append((self.name, self.cat, self.t0, dur, self.tid,
                            self.args))
        return False

    def note(self, **args) -> None:
        """Add ``args`` to the span's own: a figure known only once its
        work is done."""
        self.args.update(args)


class Telemetry:
    """A run-scoped collection of spans, counters and gauges.

    ``events`` holds complete spans as plain tuples
    ``(name, cat, ts_ns, dur_ns, tid, args)`` — picklable, so worker
    processes ship their events back to the parent wholesale
    (:meth:`take_events` / :meth:`adopt`).
    """

    def __init__(self, enabled: bool = False,
                 clock: Callable[[], int] = time.monotonic_ns):
        self.enabled = enabled
        self.clock = clock
        self.events: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    # ------------------------------------------------------------- recording
    def span(self, name: str, cat: str = "run", tid: int = 0, **args):
        """Context manager timing one unit of work (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, tid, args)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a monotonic counter (always on)."""
        c = self.counters
        c[name] = c.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a level-style metric (always on)."""
        self.gauges[name] = value

    def instant(self, name: str, cat: str = "run", tid: int = 0,
                **args) -> None:
        """A zero-duration marker event (no-op when disabled)."""
        if self.enabled:
            self.events.append((name, cat, self.clock(), 0, tid, args))

    # ------------------------------------------------- cross-process merging
    def take_events(self) -> list[tuple]:
        """Detach and return the recorded spans (worker → wire)."""
        events, self.events = self.events, []
        return events

    def adopt(self, events: list[tuple], tid: int) -> None:
        """Merge spans shipped from another process, re-tagged to ``tid``."""
        self.events.extend((name, cat, ts, dur, tid, args)
                           for name, cat, ts, dur, _tid, args in events)

    def merge_counters(self, counters: dict[str, int]) -> None:
        for name, n in counters.items():
            self.count(name, n)

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        self.events = []
        self.counters = {}
        self.gauges = {}

    # ------------------------------------------------------------ reporting
    def span_stats(self) -> dict[tuple[str, str], tuple]:
        """Aggregate spans by name and category:
        ``{(name, cat): (count, total_ns, peak_rise_kib)}``.  The rise is
        the largest ``peak_close_kib - peak_open_kib`` of any instance,
        or ``None`` when no instance recorded both (instants do not)."""
        stats: dict[tuple[str, str], tuple] = {}
        for name, cat, _ts, dur, _tid, args in self.events:
            n, total, rise = stats.get((name, cat), (0, 0, None))
            hi, lo = args.get("peak_close_kib"), args.get("peak_open_kib")
            if hi is not None and lo is not None:
                rise = max(hi - lo, rise or 0)
            stats[name, cat] = (n + 1, total + dur, rise)
        return stats
