"""Buffered access recording: the profiler hot path of the superblock tier.

The paper's tQUAD analysis routines do attribution work (call-stack
lookup, slice arithmetic, dict updates) on *every* memory access.  The
recording path splits that into two halves, the same shape low-overhead
instrumenters such as Examem use:

* **record** (hot): append one ``(icount, incl_bytes, excl_bytes,
  kernel_id)`` quad to a flat ``array('q')`` (:class:`RecordBuffers`).
  The stack policy is applied *at emission time* — the byte columns
  already encode include/exclude-stack attribution, so the flush needs no
  ``ea``/``sp`` replay.  Inside a superblock the appends are inlined into
  generated code, one bulk write per trace segment, and on the common
  path pre-aggregated to one quad per segment (:mod:`repro.vm.superblock`);
  on the per-instruction tier the same quads are produced by
  :func:`make_recorder` closures.  ``kernel_id`` is the call stack's
  pre-interned :attr:`~repro.core.callstack.CallStack.rec_id` — no
  strings, no dicts.
* **hand on** (cold): when a buffer passes its soft capacity (checked at
  superblock entry / in the recorder closures) or at fini, the sealed
  buffer goes to one of two places.  A live tool's :class:`RecordingSink`
  aggregates it: it views the buffer as a NumPy matrix, groups it by
  ``(kernel, slice)`` with :func:`~repro.core.npsort.group_sum` — the
  group-by the sweep engine buckets capture pages with, keyed here on
  the buffer's own slice range — and lands the byte sums in the ledger
  as one grouped chunk (:meth:`BandwidthLedger.add`).  A capture-attached
  tool's :class:`CapturingRecordingSink` only spills it as a capture
  page; the analysis happens when the capture is replayed
  (:mod:`repro.capture.replay`), so a live run is the only path that
  folds while the guest executes.

The produced ledger table is identical to the per-event reference,
:class:`repro.testing.oracles.PerEventTQuadTool` — the differential
tests in ``tests/unit/test_superblock.py`` assert report equality for
every stack policy.
"""

from __future__ import annotations

from array import array

import numpy as np

from .callstack import CallStack
from .ledger import BandwidthLedger
from .npsort import group_sum
from .options import StackPolicy

#: Soft buffer capacity in *elements* (4 per record): flushes trigger at the
#: first superblock entry (or recorder call) past this size.
DEFAULT_CAP = 1 << 16


class RecordBuffers:
    """Flat access buffers: the record-sink contract of
    :mod:`repro.vm.superblock`.

    ``read_buf``/``write_buf`` (``array('q')`` of flattened quads), a
    ``tag`` exposing ``rec_id``, ``track_incl``/``track_excl``/``interval``
    describing what the emission side must record, a soft ``cap``, and
    ``flush_read``/``flush_write``, which hand a sealed buffer to
    :meth:`_flush` and leave it empty.
    """

    __slots__ = ("read_buf", "write_buf", "tag", "cap", "policy",
                 "track_incl", "track_excl", "interval")

    def __init__(self, callstack: CallStack, policy: StackPolicy,
                 interval: int, *, cap: int = DEFAULT_CAP):
        self.read_buf = array("q")
        self.write_buf = array("q")
        self.tag = callstack
        self.cap = cap
        self.policy = policy
        self.track_incl = policy is not StackPolicy.EXCLUDE
        self.track_excl = policy is not StackPolicy.INCLUDE
        self.interval = interval

    def flush_read(self) -> None:
        self._flush(self.read_buf, write=False)

    def flush_write(self) -> None:
        self._flush(self.write_buf, write=True)

    def flush(self) -> None:
        self.flush_read()
        self.flush_write()

    def _flush(self, buf: array, *, write: bool) -> None:
        raise NotImplementedError


class RecordingSink(RecordBuffers):
    """Record buffers plus their NumPy bulk aggregator into a ledger."""

    __slots__ = ("ledger",)

    def __init__(self, ledger: BandwidthLedger, callstack: CallStack,
                 policy: StackPolicy, *, cap: int = DEFAULT_CAP):
        super().__init__(callstack, policy, ledger.interval, cap=cap)
        self.ledger = ledger

    def _flush(self, buf: array, *, write: bool) -> None:
        n = len(buf) // 4
        if n == 0:
            return
        arr = np.frombuffer(buf, dtype=np.int64).reshape(n, 4).copy()
        del buf[:]
        kid = arr[:, 3]
        if kid.min() < 0:
            # kid == -1 marks dropped accesses (no kernel yet / excluded
            # library frames); kid <= -2 marks library-frame accesses
            # attributed to kernel ``-2 - kid`` (see CallStack.mark_library)
            mask = kid != -1
            if not mask.all():
                arr = arr[mask]
                if arr.shape[0] == 0:
                    return
                kid = arr[:, 3]
            lib = kid < -1
            if lib.any():
                kid = np.where(lib, -2 - kid, kid)
        # key on the buffer's own slice range: a buffer covers a few
        # slices, so the keys stay dense whatever the run length
        sl = (arr[:, 0] - 1) // self.interval
        first = int(sl.min())
        width = int(sl.max()) - first + 1
        keys, incl, excl = group_sum(kid * width + (sl - first),
                                     arr[:, 1], arr[:, 2])
        counters = np.zeros((keys.size, 4), np.int64)
        col = 2 if write else 0
        counters[:, col] = incl
        counters[:, col + 1] = excl
        self.ledger.add(self.tag.interned_names, keys // width,
                        keys % width + first, counters)


class CapturingRecordingSink(RecordBuffers):
    """Record buffers that spill every sealed buffer to a capture sink
    (any object with ``add(stream, data)`` — see
    :mod:`repro.capture.writer`) and stop there.

    This is the record half of capture once / analyze many: no ledger is
    folded while the guest runs, because the capture's replay
    (:mod:`repro.capture.replay`) rebuilds it from these exact quads.  The
    hot path is the live sink's — emission appends to the same flat
    buffers through the same bound methods — and the capture cost is one
    ``tobytes`` per *flush* (every ~64k elements), not per event.
    ``interval`` is the capture grain: it decides where superblocks may
    aggregate, so it shapes the recorded rows.
    """

    __slots__ = ("capture",)

    #: stream names, kept in sync with repro.capture.format
    READ_STREAM = "tquad.read"
    WRITE_STREAM = "tquad.write"

    def __init__(self, callstack: CallStack, policy: StackPolicy,
                 interval: int, capture, *, cap: int = DEFAULT_CAP):
        super().__init__(callstack, policy, interval, cap=cap)
        self.capture = capture

    def _flush(self, buf: array, *, write: bool) -> None:
        if buf:
            self.capture.add(self.WRITE_STREAM if write else
                             self.READ_STREAM, buf.tobytes())
            del buf[:]


def make_recorder(sink: RecordBuffers, machine, *, write: bool):
    """A per-instruction-tier analysis routine that records into ``sink``.

    Carries ``record_sink``/``record_kind`` attributes so the Pin engine's
    block planner recognizes it and inlines the equivalent append into
    generated superblocks; when called directly (unfused or budget-tail
    execution) it produces bit-identical quads, reading the exact
    ``machine.icount`` that the per-instruction run loop maintains.  One
    specialization per stack policy keeps the closure branch-free.
    """
    buf = sink.write_buf if write else sink.read_buf
    flush = sink.flush_write if write else sink.flush_read
    tag = sink.tag
    cap = sink.cap

    if sink.track_incl and sink.track_excl:
        def record(ea: int, size: int, sp: int,
                   _a=buf.extend, _buf=buf, _tag=tag, _m=machine) -> None:
            _a((_m.icount, size, size if ea < sp else 0, _tag.rec_id))
            if len(_buf) > cap:
                flush()
    elif sink.track_incl:
        def record(ea: int, size: int, sp: int,
                   _a=buf.extend, _buf=buf, _tag=tag, _m=machine) -> None:
            _a((_m.icount, size, 0, _tag.rec_id))
            if len(_buf) > cap:
                flush()
    else:
        def record(ea: int, size: int, sp: int,
                   _a=buf.extend, _buf=buf, _tag=tag, _m=machine) -> None:
            if ea < sp:
                _a((_m.icount, 0, size, _tag.rec_id))
                if len(_buf) > cap:
                    flush()

    record.record_sink = sink
    record.record_kind = "write" if write else "read"
    return record
