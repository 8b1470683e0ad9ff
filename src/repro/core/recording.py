"""Buffered access recording: the profiler hot path of the superblock tier.

The paper's tQUAD analysis routines do attribution work (call-stack
lookup, slice arithmetic, dict updates) on *every* memory access.  The
recording path splits that into two halves, the same shape low-overhead
instrumenters such as Examem use:

* **record** (hot): append one ``(icount, incl_bytes, excl_bytes,
  kernel_id)`` quad to a flat ``array('q')``.  The stack policy is applied
  *at emission time* — the byte columns already encode
  include/exclude-stack attribution, so the flush needs no ``ea``/``sp``
  replay.  Inside a superblock the appends are inlined into generated code
  and, on the common path, pre-aggregated to one quad per trace segment
  (:mod:`repro.vm.superblock`); on the per-instruction tier the same quads
  are produced by :func:`make_recorder` closures.  ``kernel_id`` is the
  call stack's pre-interned
  :attr:`~repro.core.callstack.CallStack.rec_id` — no strings, no dicts.
* **aggregate** (cold): when a buffer passes its soft capacity (checked at
  superblock entry / in the recorder closures) or at fini,
  :class:`RecordingSink` views the buffer as a NumPy matrix, groups by
  ``(kernel, slice)`` and lands the byte sums in
  :meth:`BandwidthLedger.accumulate`.

The produced ledger history is identical to the per-event reference,
:class:`repro.testing.oracles.PerEventTQuadTool` — the differential
tests in ``tests/unit/test_superblock.py`` assert report equality for
every stack policy.
"""

from __future__ import annotations

from array import array

import numpy as np

from .callstack import CallStack
from .ledger import BandwidthLedger
from .options import StackPolicy

#: Soft buffer capacity in *elements* (4 per record): flushes trigger at the
#: first superblock entry (or recorder call) past this size.
DEFAULT_CAP = 1 << 16


class RecordingSink:
    """Flat access buffers plus their NumPy bulk aggregator.

    Implements the record-sink contract of :mod:`repro.vm.superblock`:
    ``read_buf``/``write_buf`` (``array('q')`` of flattened quads), a
    ``tag`` exposing ``rec_id``, ``track_incl``/``track_excl``/``interval``
    describing what the emission side must record, a soft ``cap``, and
    ``flush_read``/``flush_write``.
    """

    __slots__ = ("read_buf", "write_buf", "tag", "cap", "ledger", "policy",
                 "track_incl", "track_excl", "interval")

    def __init__(self, ledger: BandwidthLedger, callstack: CallStack,
                 policy: StackPolicy, *, cap: int = DEFAULT_CAP):
        self.read_buf = array("q")
        self.write_buf = array("q")
        self.tag = callstack
        self.cap = cap
        self.ledger = ledger
        self.policy = policy
        self.track_incl = policy is not StackPolicy.EXCLUDE
        self.track_excl = policy is not StackPolicy.INCLUDE
        self.interval = ledger.interval

    def reset(self) -> None:
        """Drop any unflushed records (for tool reuse across runs)."""
        del self.read_buf[:]
        del self.write_buf[:]

    def flush_read(self) -> None:
        self._flush(self.read_buf, write=False)

    def flush_write(self) -> None:
        self._flush(self.write_buf, write=True)

    def flush(self) -> None:
        self.flush_read()
        self.flush_write()

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
        ic, incl, excl = arr[:, 0], arr[:, 1], arr[:, 2]
        sl = (ic - 1) // self.interval
        base = int(sl.max()) + 1
        uniq, inv = np.unique(kid * base + sl, return_inverse=True)
        incl_t = np.bincount(inv, weights=incl,
                             minlength=uniq.size).astype(np.int64)
        excl_t = np.bincount(inv, weights=excl,
                             minlength=uniq.size).astype(np.int64)
        names = self.tag.interned_names
        accumulate = self.ledger.accumulate
        for j in range(uniq.size):
            k_id, s = divmod(int(uniq[j]), base)
            if write:
                accumulate(names[k_id], s, 0, 0, int(incl_t[j]),
                           int(excl_t[j]))
            else:
                accumulate(names[k_id], s, int(incl_t[j]), int(excl_t[j]),
                           0, 0)


class CapturingRecordingSink(RecordingSink):
    """A :class:`RecordingSink` that also spills every sealed buffer to a
    capture sink (any object with ``add(stream, data)`` — see
    :mod:`repro.capture.writer`) before aggregating it.

    The hot path is untouched: emission still appends to the same flat
    buffers through the same bound methods, and the capture cost is one
    ``tobytes`` per *flush* (every ~64k elements), not per event.  The
    captured pages are therefore the exact quads the ledger aggregation
    consumed, which is what makes replay byte-identical.
    """

    __slots__ = ("capture",)

    #: stream names, kept in sync with repro.capture.format
    READ_STREAM = "tquad.read"
    WRITE_STREAM = "tquad.write"

    def __init__(self, ledger: BandwidthLedger, callstack: CallStack,
                 policy: StackPolicy, capture, *, cap: int = DEFAULT_CAP):
        super().__init__(ledger, callstack, policy, cap=cap)
        self.capture = capture

    def _flush(self, buf: array, *, write: bool) -> None:
        if buf:
            self.capture.add(self.WRITE_STREAM if write else
                             self.READ_STREAM, buf.tobytes())
        super()._flush(buf, write=write)


def make_recorder(sink: RecordingSink, machine, *, write: bool):
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
