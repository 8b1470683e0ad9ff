"""Paged, kernel-ID-interned shadow memory — QUAD's vectorized hot path.

The original QUAD resolves every access one byte at a time against a
``dict[int, str]`` last-writer map and four Python sets per kernel (kept
as the differential tests' reference,
:class:`repro.testing.oracles.PerByteQuadTool`).  This module uses the
structure production memory instrumenters (Examem, the Valgrind
working-set tool) use:

* :class:`ShadowPages` — 64 KiB pages of ``int32`` interned writer ids
  (0 = never written).  Writes are vectorized slice/fancy assignments,
  reads gather whole words of producers in one NumPy indexing operation.
* :class:`PlaneBitmap` — UnMA (unique memory address) tracking as per-page
  byte flags, marked by bulk fancy assignment and popcounted only at
  report time, replacing the per-kernel Python sets.  All (kernel, view)
  bitmaps share one plane-keyed store so marking needs no per-kernel
  loop.
* Both find their pages through a sorted key table, so their memory
  follows the pages in use, never the guest's address space.
* :class:`PagedQuadSink` — a buffered recording path mirroring
  :mod:`repro.core.recording`: the engine appends one packed ``int64`` per
  access into an ``array('q')`` buffer which is drained in bulk — binding
  accumulation, OUT-byte attribution and UnMA marking all happen
  per-buffer, not per-access.

This module is the only owner of the sink's counter layout: the sink
renders its own :class:`~repro.quad.report.QuadReport`
(:meth:`PagedQuadSink.report`).

Record format (the emission hot path writes exactly one ``append``)::

    (rec_id + 1) << 43 | size << 38 | is_write << 37 | ea

The effective address sits in the low bits so the generated emission code
ORs it into a hoisted per-(kernel, size, kind) constant with no shift.

A kernel-id field of 0 (``rec_id == -1``) marks a dropped access.  The
stack pointer is not part of the record: whenever SP changes, the emitter
appends a negative *marker* ``-1 - sp`` and the drain forward-fills it —
SP changes orders of magnitude less often than memory is accessed.

Exactness
---------

The drain is byte-identical to the per-byte walk.  It decodes each record
once — SP taken from the marker positions, dropped accesses removed —
into a packed *payload* ``kernel << 5 | is_write << 4 | nb``: the
kernel's index among those present in the drain (plus one), and ``nb``,
the access's bytes below SP.  One integer ``bincount`` over (payload,
size) yields all four access counters and both IN byte columns.

Aligned 8-byte accesses (the overwhelming majority) are *word events*.
Words touched by a sub-word or misaligned access in the same drain are
expanded, together with every colliding word access, into one *byte
event* per byte; the two partitions touch disjoint words, so their
relative order cannot matter.  Each partition runs the same scan:

1. one ``np.sort`` of ``unit << 21 | seq`` keys (the unit is the word, or
   the byte address).  The keys are unique, so the sort keeps program
   order within each unit;
2. a read's producer is the last write at or before it in its unit, found
   by one running-maximum scan; a unit opened by a read starts from its
   persistent writer, gathered and tested for uniformity once per unit.
   Only the reads of a word whose persistent bytes disagree expand to
   bytes;
3. OUT bytes and bindings come from one integer ``bincount`` over
   (producer, payload), indexed by the kernels in the drain.  New pairs
   enter the binding table in (producer, consumer) order within each
   credit pass;
4. UnMA marks each distinct (unit, kernel, kind, stack bytes) once;
5. the last write of each unit is written back.

Stack classification is per *byte* for the byte-denominated columns
(``a < sp`` each byte) and per access (``ea < sp``) for the access
counters.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from ..core.callstack import CallStack
from ..obs import TELEMETRY as _TELEMETRY
from .report import KernelIO, QuadReport

#: log2 of the shadow page size in bytes.
PAGE_SHIFT = 16
PAGE = 1 << PAGE_SHIFT
#: 8-byte words per page.
WORDS = PAGE >> 3

#: Bit layout of one packed record.
KID_SHIFT = 43
TAIL_SHIFT = 37
ADDR_MASK = (1 << TAIL_SHIFT) - 1

#: Soft buffer capacity in records.  A drain's sort keys hold each
#: event's sequence number in their low ``_SEQ`` bits, so the records per
#: drain must stay below 2^18 (each expands to at most 8 byte events);
#: the cap leaves slack for the records one superblock can append past
#: the entry-time check.
DEFAULT_RAW_CAP = (1 << 17) - 512

#: Sequence bits of a drain's sort keys.
_SEQ = 21
#: Page ids of ``ADDR_MASK``-wide addresses: the low bits of a UnMA
#: page key, under the plane id.
_PID_BITS = TAIL_SHIFT - PAGE_SHIFT
#: Eight UnMA flag bytes, stored as one ``int64``: a marked word.
_FULL_WORD = np.int64(0x0101010101010101)
#: The values of a 4-bit payload field (size or stack bytes).
_AR16 = np.arange(16)
#: The values of a record's 6-bit ``size << 1 | is_write`` field.
_TAILS = np.arange(64)
#: The access widths the ISA records, indexed by a record's 5-bit size.
_ISA_SIZE = np.isin(np.arange(32), (1, 2, 4, 8))
#: Tail fields whose size the ISA never records.
_ODD_TAILS = ~_ISA_SIZE[_TAILS >> 1]
#: Table key that ends every page table (above any real key).
_END = np.iinfo(np.int64).max


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of non-negative integer ``keys`` —
    ``np.unique`` by one ``np.sort`` (NumPy's own hashes integer arrays,
    10-50x slower than the sort on a drain's keys), in 32 bits when the
    keys fit, which sorts twice as fast."""
    keys = keys.ravel()
    if keys.size and keys.max() < 1 << 31:
        keys = keys.astype(np.int32)
    s = np.sort(keys)
    first = np.empty(s.size, bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _concat_aranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) - np.repeat(ends - counts, counts)


class _Pages:
    """Fixed-size pages of one dtype found through a sorted key table.

    Lookups are a ``searchsorted`` over the keys in use, so memory
    follows the pages touched, never the key space.  Row 0 of the
    backing array is a permanent zero page that reads of unallocated
    keys resolve to; an ``_END`` key closes the table so every search
    lands inside it.
    """

    __slots__ = ("_keys", "_rows", "_data")

    def __init__(self, dtype) -> None:
        self._keys = np.array([_END], np.int64)
        self._rows = np.zeros(1, np.int64)
        self._data = np.zeros((1, PAGE), dtype)

    @property
    def n_pages(self) -> int:
        return self._keys.size - 1

    def _find(self, keys: np.ndarray, create: bool) -> np.ndarray:
        """Backing rows of ``keys``; missing pages are allocated when
        ``create``, else read as the zero page."""
        at = np.searchsorted(self._keys, keys)
        miss = self._keys[at] != keys
        if not miss.any():
            return self._rows[at]
        if not create:
            rows = self._rows[at]
            rows[miss] = 0
            return rows
        new = _distinct(keys[miss])
        lo = self._keys.size                 # rows in use, zero page included
        hi = lo + new.size
        if hi > self._data.shape[0]:
            data = np.zeros((max(hi, 2 * self._data.shape[0]), PAGE),
                            self._data.dtype)
            data[:lo] = self._data[:lo]
            self._data = data
        keys_all = np.concatenate([self._keys[:-1], new])
        order = np.argsort(keys_all)
        self._keys = np.append(keys_all[order], _END)
        self._rows = np.append(np.concatenate(
            [self._rows[:-1], np.arange(lo, hi)])[order], 0)
        return self._rows[np.searchsorted(self._keys, keys)]

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self._keys.nbytes + self._rows.nbytes


class ShadowPages(_Pages):
    """Byte-granular last-writer map as pages of ``int32`` writer ids.

    Values are ``interned_id + 1``; 0 means the byte was never written.
    A page's key is ``addr >> PAGE_SHIFT``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(np.int32)

    def gather_words(self, words: np.ndarray) -> np.ndarray:
        """(n, 8) matrix of writer ids for each aligned 8-byte word."""
        rows = self._find(words >> (PAGE_SHIFT - 3), create=False)
        return self._data.reshape(-1, WORDS, 8)[rows, words & (WORDS - 1)]

    def gather_bytes(self, addrs: np.ndarray) -> np.ndarray:
        rows = self._find(addrs >> PAGE_SHIFT, create=False)
        return self._data[rows, addrs & (PAGE - 1)]

    def set_words(self, words: np.ndarray, writer1: np.ndarray) -> None:
        """Store ``writer1[i]`` (already +1 encoded) over all 8 bytes of
        each word (words must be distinct)."""
        rows = self._find(words >> (PAGE_SHIFT - 3), create=True)
        self._data.reshape(-1, WORDS, 8)[rows, words & (WORDS - 1)] = \
            writer1[:, None]

    def set_bytes(self, addrs: np.ndarray, writer1: np.ndarray) -> None:
        """Scatter-store per-byte writers (addresses must be distinct)."""
        rows = self._find(addrs >> PAGE_SHIFT, create=True)
        self._data[rows, addrs & (PAGE - 1)] = writer1


class PlaneBitmap(_Pages):
    """Every UnMA bitmap of one sink in a single paged ``uint8`` store.

    A *plane* is one (kernel, view) bitmap, keyed ``kid * 4 + view``; a
    page's key is ``plane << _PID_BITS | addr >> PAGE_SHIFT``.  Pages of
    all planes share one backing array, so the drain marks bytes across
    every kernel and view in a single fancy scatter — no per-kernel
    Python loop.  Marking is idempotent (flag stores), hence
    duplicate-safe.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(np.uint8)

    def mark_words(self, planes: np.ndarray, words: np.ndarray) -> None:
        """Mark all 8 bytes of each aligned word in each event's plane."""
        if not words.size:
            return
        rows = self._find((planes << _PID_BITS)
                          | (words >> (PAGE_SHIFT - 3)), create=True)
        self._data.view(np.int64)[rows, words & (WORDS - 1)] = _FULL_WORD

    def mark_bytes(self, planes: np.ndarray, addrs: np.ndarray) -> None:
        if not addrs.size:
            return
        rows = self._find((planes << _PID_BITS) | (addrs >> PAGE_SHIFT),
                          create=True)
        self._data[rows, addrs & (PAGE - 1)] = 1

    def count(self, plane: int) -> int:
        """Cardinality of one plane (popcount over its pages)."""
        lo, hi = np.searchsorted(self._keys, [plane << _PID_BITS,
                                              (plane + 1) << _PID_BITS])
        if lo == hi:
            return 0
        return int(self._data[self._rows[lo:hi]].sum(dtype=np.int64))


# counter row indices of PagedQuadSink._counts
_IN_INCL, _IN_EXCL, _OUT_INCL, _OUT_EXCL = 0, 1, 2, 3
_READS, _WRITES, _READS_NS, _WRITES_NS = 4, 5, 6, 7

# UnMA views
_V_IN_INCL, _V_IN_EXCL, _V_OUT_INCL, _V_OUT_EXCL = 0, 1, 2, 3


def _kernel_io(c: np.ndarray, unma: list[int]) -> KernelIO:
    """One kernel's report row from its counter column ``c`` and its four
    UnMA cardinalities (indexed by view)."""
    return KernelIO(
        in_bytes_incl=int(c[_IN_INCL]), in_bytes_excl=int(c[_IN_EXCL]),
        out_bytes_incl=int(c[_OUT_INCL]), out_bytes_excl=int(c[_OUT_EXCL]),
        in_unma_incl=unma[_V_IN_INCL], in_unma_excl=unma[_V_IN_EXCL],
        out_unma_incl=unma[_V_OUT_INCL], out_unma_excl=unma[_V_OUT_EXCL],
        reads=int(c[_READS]), writes=int(c[_WRITES]),
        reads_nonstack=int(c[_READS_NS]),
        writes_nonstack=int(c[_WRITES_NS]))


def _producer_table(kids: np.ndarray, held: np.ndarray):
    """A drain's producer table — its kernels (``kids``, global ids),
    then every other persistent writer in ``held`` — and ``held``
    (interned id + 1; 0 never written) as 1-based indices into it."""
    ids = _distinct(held)
    ids = ids[ids > 0] - 1
    table = np.concatenate([kids, np.setdiff1d(ids, kids,
                                               assume_unique=True)])
    order = np.argsort(table)
    at = order[np.searchsorted(table, held - 1, sorter=order)]
    return table, np.where(held > 0, at + 1, 0)


class RawRecordBuffer:
    """Packed QUAD records: the raw record-sink contract of
    :mod:`repro.vm.superblock`.

    ``raw`` is true, ``buf`` receives packed records
    (``read_buf``/``write_buf`` alias it so the generic cap check
    applies), ``last_sp`` carries the SP-marker protocol state, ``tag``
    exposes ``rec_id``, and ``flush`` hands the sealed buffer on.
    ``interval == 0`` keeps superblocks in exact event mode.
    """

    raw = True
    track_incl = True
    track_excl = True
    interval = 0
    kid_shift = KID_SHIFT
    tail_shift = TAIL_SHIFT
    addr_mask = ADDR_MASK

    def __init__(self, callstack: CallStack, *,
                 cap: int = DEFAULT_RAW_CAP):
        self.tag = callstack
        self.cap = cap
        self.buf = array("q")
        self.read_buf = self.write_buf = self.buf
        self.last_sp = -1
        self.flush_read = self.flush_write = self.flush

    def flush(self) -> None:
        raise NotImplementedError


class PagedQuadSink(RawRecordBuffer):
    """Packed-record buffer + bulk drain over the paged shadow state:
    ``flush`` drains the sealed buffer into the shadow.

    A replayed sink is given ``limits``, the ``(kernel table size,
    mem_size)`` of the capture's manifest: :meth:`drain_stream` then
    checks every record against them as it decodes each batch (see
    :meth:`_decode`).  A live sink's records come from the VM and are
    not checked."""

    def __init__(self, callstack: CallStack, *,
                 track_bindings: bool = True,
                 cap: int = DEFAULT_RAW_CAP,
                 limits: tuple[int, int] | None = None):
        super().__init__(callstack, cap=cap)
        self.track_bindings = track_bindings
        self.limits = limits
        self._sp0 = 0
        self.shadow = ShadowPages()
        self._counts = np.zeros((8, 8), np.int64)
        #: all per-kernel [in_incl, in_excl, out_incl, out_excl] UnMA
        #: bitmaps in one plane-keyed store (plane = kid * 4 + view).
        self._unma = PlaneBitmap()
        #: (producer_kid, consumer_kid) -> [bytes incl, bytes excl]
        self.kid_bindings: dict[tuple[int, int], list[int]] = {}

    # ---------------------------------------------------------- plumbing
    def _ensure_kernels(self) -> None:
        nk = len(self.tag.interned_names)
        if self._counts.shape[1] < nk:
            cap = max(nk, self._counts.shape[1] * 2)
            counts = np.zeros((8, cap), np.int64)
            counts[:, :self._counts.shape[1]] = self._counts
            self._counts = counts

    def stats(self) -> dict[str, int]:
        """Shadow footprint: pages, resident bytes, interned kernels."""
        return {
            "page_size": PAGE,
            "shadow_pages": self.shadow.n_pages,
            "unma_pages": self._unma.n_pages,
            "resident_bytes": (self.shadow.resident_bytes
                               + self._unma.resident_bytes
                               + self._counts.nbytes),
            "interned_kernels": len(self.tag.interned_names),
        }

    # ------------------------------------------------------------- drain
    def flush(self) -> None:
        if self.buf:
            vals = np.frombuffer(self.buf, dtype=np.int64).copy()
            del self.buf[:]
            self._drain(vals)

    def drain_stream(self, chunks, batch_rows: int | None = None) -> None:
        """Drain raw packed-record pages in bounded batches.

        The chunk-friendly face of :meth:`_drain` for streaming replays:
        ``chunks`` yields the pages of a ``quad.raw`` stream, arrays of
        packed records of any length and shape, which are re-cut to
        ``batch_rows`` (clamped to the drain cap — the sort keys'
        sequence field holds fewer than 2**18 records per drain) with
        tail carry between chunks, so callers never concatenate the
        full stream.  Each batch carries the page of each of its rows,
        which a rejected record's error names.
        """
        cap = (self.cap if batch_rows is None
               else max(min(int(batch_rows), self.cap), 1))
        tail = None
        for i, vals in enumerate(chunks):
            vals = vals.ravel()
            # the index and first row in ``vals`` of each page with rows
            # in it
            if tail is None:
                index, start = [i], [0]
            else:
                index.append(i)
                start.append(tail.size)
                vals = np.concatenate([tail, vals])
                tail = None
            lo = 0
            while vals.size - lo >= cap:
                self._drain(vals[lo:lo + cap],
                            (np.array(start) - lo, index, vals[lo + cap:]))
                lo += cap
            if vals.size - lo:
                tail = vals[lo:]
                # keep the pages the tail holds rows of
                first = bisect_right(start, lo) - 1
                index = index[first:]
                start = [max(row - lo, 0) for row in start[first:]]
        if tail is not None:
            self._drain(tail, (np.array(start), index, tail[:0]))

    def _drain(self, vals: np.ndarray, pages=None) -> None:
        """Drain one sealed buffer of packed rows (records and SP
        markers) into the shadow, counters, bindings and UnMA planes.
        ``pages`` (from :meth:`drain_stream`) holds the first row and
        index of each page with rows in ``vals``, and the rows that
        follow ``vals`` in the stream up to the end of its last page."""
        _TELEMETRY.count("quad/records_drained", vals.size)
        with _TELEMETRY.span("drain", cat="quad", records=vals.size):
            with _TELEMETRY.span("drain.decode", cat="quad"):
                decoded = self._decode(vals, pages)
            if decoded is None:
                return
            a, pl, size, kids = decoded
            with _TELEMETRY.span("drain.count", cat="quad"):
                self._count(pl, size, kids)
            if size is None:                    # every record a full word
                self._scan(a << (_SEQ - 3), pl, kids, 8)
                return
            # words ever touched sub-word/misaligned this buffer, plus
            # every full-word access colliding with them, take the byte
            # scan; the partitions touch disjoint words, so ordering
            # across them cannot be observed.
            full = (size == 8) & ((a & 7) == 0)
            pa, ps = a[~full], size[~full]
            slow_words = _distinct(np.concatenate([pa >> 3,
                                                   (pa + ps - 1) >> 3]))
            word = a >> 3
            # membership via binary search in the sorted unique slow set
            # — np.isin would re-sort the (much larger) word array instead
            at = np.searchsorted(slow_words, word)
            at[at == slow_words.size] = 0
            fast = full & (slow_words[at] != word)
            self._scan(a[fast] << (_SEQ - 3), pl[fast], kids, 8)
            slow = ~fast
            size = size[slow]
            off = _concat_aranges(size)
            pl = np.repeat(pl[slow], size)
            # one event per byte: below SP when its offset is under the
            # access's below-SP byte count
            pl = (pl & ~15) | (off < (pl & 15))
            self._scan((np.repeat(a[slow], size) + off) << _SEQ, pl, kids, 1)

    def _decode(self, vals: np.ndarray, pages=None):
        """One drain's records, decoded once: addresses, payloads, sizes
        (None when every record is a full word) and the global ids of
        the kernels present, ascending — or None if no record survives
        the SP markers and dropped accesses.

        A replayed sink checks each record, dropped ones included, from
        the fields it decodes anyway, before any of them reaches the
        shadow: a kernel-id field within the manifest's table (one
        ``max``, taken before that field sizes the histogram), a size
        the ISA records (the histogram's columns) and ``ea + size``
        within ``mem_size`` (one ``max``; exactly only when an address
        lies within 8 bytes of the end)."""
        mpos = np.flatnonzero(vals < 0)
        sp = self._sp0
        r = vals
        if mpos.size:
            sps = np.empty(mpos.size + 1, np.int64)
            sps[0] = sp
            np.subtract(-1, vals[mpos], out=sps[1:])
            self._sp0 = int(sps[-1])
            # the records after each marker run under its SP
            sp = np.repeat(sps, np.diff(mpos, prepend=-1,
                                        append=vals.size) - 1)
            r = np.delete(vals, mpos)
        if not r.size:
            return None
        # one histogram of (kernel, size, is_write) finds the kernels
        # present, the dropped accesses and whether every record has
        # size 8; its key gathers each record's payload head
        t = r >> TAIL_SHIFT
        a = r & ADDR_MASK
        limits = self.limits
        if limits is not None and int(t.max()) >> 6 > limits[0]:
            self._reject(vals, pages)
        hist = np.bincount(t)
        hist = np.concatenate([hist, np.zeros(-hist.size % 64, np.int64)])
        hist = hist.reshape(-1, 64)
        if limits is not None and (
                hist[:, _ODD_TAILS].any()
                or int(a.max()) + 8 > limits[1]
                and int((a + ((t >> 1) & 31)).max()) > limits[1]):
            self._reject(vals, pages)
        if hist[0].any():                        # no kernel entered
            keep = t >= 64
            a, t = a[keep], t[keep]
            if mpos.size:
                sp = sp[keep]
            if not a.size:
                return None
            hist[0] = 0
        kids1 = np.flatnonzero(hist.any(axis=1))
        local = np.zeros(hist.shape[0], np.int64)
        local[kids1] = np.arange(1, kids1.size + 1)
        head = ((local[:, None] << 5) | ((_TAILS & 1) << 4)).ravel()
        self._ensure_kernels()
        nb = sp - a                              # bytes below SP
        if hist[:, (_TAILS >> 1) != 8].any() or np.bitwise_or.reduce(a) & 7:
            size = (t >> 1) & 31
            np.clip(nb, 0, size, out=nb)
        else:                                    # every record a full word
            size = None
            np.clip(nb, 0, 8, out=nb)
        pl = head[t]
        pl |= nb
        return a, pl, size, kids1 - 1

    def _reject(self, vals: np.ndarray, pages) -> None:
        """Raise the error of the page holding the first record of
        ``vals`` that a check of :meth:`_decode` fails, once one has:
        of that page's records, the message names the largest kernel id
        past the table, else the first size outside the ISA's, else the
        largest end address past ``mem_size``.  The page may run on past
        ``vals``; its earlier records, drained before, passed."""
        from ..capture.format import STREAM_QUAD, CaptureFormatError

        n_kernels, mem_size = self.limits
        start, index, after = pages
        rows = np.concatenate([vals, after])
        record = rows >= 0
        kid1 = rows >> KID_SHIFT
        size = (rows >> (TAIL_SHIFT + 1)) & 31
        end = (rows & ADDR_MASK) + size
        bad = [record & fails for fails in
               (kid1 > n_kernels, ~_ISA_SIZE[size], end > mem_size)]
        first = np.flatnonzero(bad[0] | bad[1] | bad[2])[0]
        # the last page starting at or before it
        page = np.searchsorted(start, first, side="right") - 1
        on = slice(max(start[page], 0), start[page + 1]
                   if page + 1 < start.size else rows.size)
        where = f"corrupt capture page {STREAM_QUAD}[{index[page]}]: "
        if bad[0][on].any():
            raise CaptureFormatError(
                f"{where}kernel id {int(kid1[on].max()) - 1} is outside "
                f"the manifest's {n_kernels}-entry QUAD kernel table")
        if bad[1][on].any():
            raise CaptureFormatError(
                f"{where}an access of {int(size[on][bad[1][on]][0])} "
                f"bytes; the ISA records 1, 2, 4 or 8")
        raise CaptureFormatError(
            f"{where}an access ends at {int(end[on][record[on]].max()):#x}, "
            f"past the manifest's mem_size {mem_size:#x}")

    def _count(self, pl: np.ndarray, size: np.ndarray | None,
               kids: np.ndarray) -> None:
        """All four access counters and both IN byte columns from one
        integer bincount over (payload, size)."""
        c = np.bincount((pl << 4) | (8 if size is None else size),
                        minlength=(kids.size + 1) << 9)
        # (kernel, is_write, bytes below SP, size); a nonstack access
        # (ea < sp) is one with a byte below SP
        c = c.reshape(-1, 2, 16, 16)[1:]
        rd, wr = c[:, 0], c[:, 1]
        counts = self._counts
        counts[_READS, kids] += rd.sum((1, 2))
        counts[_WRITES, kids] += wr.sum((1, 2))
        counts[_READS_NS, kids] += rd[:, 1:].sum((1, 2))
        counts[_WRITES_NS, kids] += wr[:, 1:].sum((1, 2))
        counts[_IN_INCL, kids] += rd.sum(1) @ _AR16
        counts[_IN_EXCL, kids] += rd.sum(2) @ _AR16

    # ------------------------------------------------------ the unit scan
    def _scan(self, key: np.ndarray, pl: np.ndarray, kids: np.ndarray,
              width: int) -> None:
        """Producers, OUT bytes, bindings, UnMA marks and write-back of
        one partition: ``width``-byte events (8: words, 1: bytes) with
        sort keys ``unit << _SEQ`` in program order."""
        n = key.size
        if not n:
            return
        assert n < (1 << _SEQ), "raw cap exceeded the sort-key bound"
        with _TELEMETRY.span("drain.bind", cat="quad", events=n):
            key |= np.arange(n)
            key.sort()
            unit = key >> _SEQ
            key &= (1 << _SEQ) - 1
            pl = pl[key]
            iw = (pl & 16).astype(bool)
            gs = np.empty(n, bool)
            gs[0] = True
            np.not_equal(unit[1:], unit[:-1], out=gs[1:])
            # sources: the writes and the first event of each unit; every
            # event takes its producer from the last source at or before
            # it — a write's own kernel, or for a unit a read opens, its
            # persistent writer (one gather and uniformity test per unit;
            # past the table: bytes of several writers)
            mk = np.flatnonzero(iw | gs)
            run = np.diff(mk, append=n)
            src = pl[mk] >> 5
            table, mixed = kids, np.empty(0, np.int64)
            opened = np.flatnonzero(~iw[mk])
            if opened.size:
                lead = unit[mk[opened]]
                held = (self.shadow.gather_words(lead) if width == 8
                        else self.shadow.gather_bytes(lead)[:, None])
                uniform = (held == held[:, :1]).all(axis=1)
                mixed = np.flatnonzero(~uniform)
                # table indices of each unit's first byte's writer, and of
                # every byte's writer in the mixed words
                table, writer = _producer_table(
                    kids, np.concatenate([held[:, 0], held[mixed].ravel()]))
                src[opened] = np.where(uniform, writer[:lead.size],
                                       table.size + 1)
            prod = np.repeat(src, run)
            if mixed.size:
                # reads of a word whose persistent bytes disagree: each
                # byte credits its own writer
                m = opened[mixed]
                q = np.repeat(mk[m], run[m]) + _concat_aranges(run[m])
                cons = pl[q, None]
                self._credit(np.repeat(writer[lead.size:].reshape(m.size, 8),
                                       run[m], axis=0).ravel(),
                             ((cons & ~15) | (_AR16[:8] < (cons & 15)))
                             .ravel(), table, kids, 1)
            self._credit(prod, pl, table, kids, width)
        first = np.flatnonzero(gs[mk])         # sources that open a unit
        with _TELEMETRY.span("drain.mark", cat="quad"):
            self._mark(unit, mk[first], pl, kids, width)
        with _TELEMETRY.span("drain.writeback", cat="quad"):
            # the last source of each unit, when it is a write
            j = mk[np.append(first[1:] - 1, mk.size - 1)]
            j = j[iw[j]]
            store = (self.shadow.set_words if width == 8
                     else self.shadow.set_bytes)
            store(unit[j], kids[(pl[j] >> 5) - 1] + 1)

    def _credit(self, prod: np.ndarray, pl: np.ndarray, table: np.ndarray,
                kids: np.ndarray, width: int) -> None:
        """Credit each read event's ``width`` bytes to its producer — a
        1-based index into ``table`` (0: never written; past the table:
        credited byte by byte instead) — and record the bindings.
        ``prod`` is consumed.

        The (producer, payload) bins are dense while they number no more
        than the events (or 4096); a drain with more kernels bins only
        the pairs present, so scratch never grows with the kernels
        squared."""
        nk = kids.size + 1
        if (table.size + 2) * nk * 32 <= max(prod.size, 4096):
            prod *= nk << 5
            prod += pl
            c = np.bincount(prod, minlength=(table.size + 2) * nk << 5)
            pair = None
        else:
            code = prod * nk + (pl >> 5)
            pair = _distinct(code)
            c = np.bincount((np.searchsorted(pair, code) << 5) | (pl & 31),
                            minlength=pair.size << 5)
        rd = c.reshape(-1, 32)[:, :16]            # reads, by bytes below SP
        used = np.flatnonzero(rd.any(axis=1))
        rd = rd[used]
        p, k = np.divmod(used if pair is None else pair[used], nk)
        ok = (p > 0) & (p <= table.size)
        p, k, rd = table[p[ok] - 1], kids[k[ok] - 1], rd[ok]
        incl = width * rd.sum(axis=1)
        excl = rd @ _AR16
        counts = self._counts
        np.add.at(counts[_OUT_INCL], p, incl)
        np.add.at(counts[_OUT_EXCL], p, excl)
        if not self.track_bindings:
            return
        bindings = self.kid_bindings
        # new pairs enter in (producer, consumer) order
        order = np.lexsort((k, p))
        for key, bi, be in zip(zip(p[order].tolist(), k[order].tolist()),
                               incl[order].tolist(), excl[order].tolist()):
            b = bindings.get(key)
            if b is None:
                bindings[key] = [bi, be]
            else:
                b[0] += bi
                b[1] += be

    def _mark(self, unit: np.ndarray, starts: np.ndarray, pl: np.ndarray,
              kids: np.ndarray, width: int) -> None:
        """UnMA marks, once per distinct (unit, kernel, kind, stack
        bytes).  The incl views take the whole unit; the excl views take
        it when all its bytes sit under SP and its below-SP bytes when it
        straddles SP.  The plane id ``kid * 4 + view`` moves the
        per-kernel dispatch into the index arithmetic."""
        bits = int(kids.size + 1).bit_length() + 5
        group = np.repeat(np.arange(starts.size),
                          np.diff(starts, append=unit.size))
        group <<= bits
        group |= pl
        t = _distinct(group)
        u = unit[starts[t >> bits]]
        p = t & ((1 << bits) - 1)
        planes = (kids[(p >> 5) - 1] << 2) + ((p >> 3) & 2)
        nb = p & 15
        whole = nb == width
        (self._unma.mark_words if width == 8 else self._unma.mark_bytes)(
            np.concatenate([planes, planes[whole] + 1]),
            np.concatenate([u, u[whole]]))
        straddle = (nb > 0) & ~whole
        if straddle.any():
            nn = nb[straddle]
            self._unma.mark_bytes(np.repeat(planes[straddle] + 1, nn),
                                  np.repeat(u[straddle] << 3, nn)
                                  + _concat_aranges(nn))

    # ---------------------------------------------------- materialization
    def report(self, *, images: dict[str, str],
               total_instructions: int) -> QuadReport:
        """The QUAD report of every record drained so far, kernels named
        by the call stack's intern table."""
        self.flush()
        self._ensure_kernels()
        names = self.tag.interned_names
        kernels: dict[str, KernelIO] = {}
        for kid, name in enumerate(names):
            c = self._counts[:, kid]
            if c[_READS] or c[_WRITES]:       # entered on its first access
                kernels[name] = _kernel_io(
                    c, [self._unma.count(kid * 4 + v) for v in range(4)])
        bindings = {(names[p], names[c]): list(v)
                    for (p, c), v in self.kid_bindings.items()}
        return QuadReport(kernels=kernels, bindings=bindings,
                          images=dict(images),
                          total_instructions=total_instructions,
                          shadow_stats=self.stats())


class CapturingPagedQuadSink(RawRecordBuffer):
    """Packed QUAD records spilled to a capture sink, and nothing else —
    the record half of the QUAD capture-once / analyze-many path.

    Each sealed buffer (SP markers included) becomes one ``quad.raw``
    page; no shadow is drained while the guest runs.  Replaying the pages
    through a fresh :class:`PagedQuadSink`'s ``_drain`` (chunked to the
    same cap) builds the shadow state and counters a live run would.
    """

    #: stream name, kept in sync with repro.capture.format
    STREAM = "quad.raw"

    def __init__(self, callstack: CallStack, capture, *,
                 cap: int = DEFAULT_RAW_CAP):
        super().__init__(callstack, cap=cap)
        self.capture = capture

    def flush(self) -> None:
        if self.buf:
            self.capture.add(self.STREAM, self.buf.tobytes())
            del self.buf[:]


def make_raw_recorder(sink: RawRecordBuffer, *, write: bool):
    """Per-instruction-tier analysis routine appending packed records.

    Carries ``record_sink``/``record_kind`` so the Pin engine's block
    planner inlines the equivalent append into generated superblocks; the
    closure itself serves unfused, predicated-fallback and budget-tail
    execution, maintaining the same SP-marker protocol.
    """
    buf = sink.buf
    cap = sink.cap
    flush = sink.flush
    tag = sink.tag
    wbit = 1 if write else 0

    def record(ea: int, size: int, sp: int, _a=buf.append, _buf=buf,
               _tag=tag, _s=sink) -> None:
        if _s.last_sp != sp:
            _s.last_sp = sp
            _a(-1 - sp)
        _a(((_tag.rec_id + 1) << KID_SHIFT)
           | (((size << 1) | wbit) << TAIL_SHIFT) | (ea & ADDR_MASK))
        if len(_buf) > cap:
            flush()

    record.record_sink = sink
    record.record_kind = "write" if write else "read"
    return record
