"""Paged, kernel-ID-interned shadow memory — QUAD's vectorized hot path.

The original QUAD resolves every access one byte at a time against a
``dict[int, str]`` last-writer map and four Python sets per kernel (kept
as the differential tests' reference,
:class:`repro.testing.oracles.PerByteQuadTool`).  This module uses the
structure production memory instrumenters (Examem, the Valgrind
working-set tool) use:

* :class:`ShadowPages` — a page table mapping ``addr >> PAGE_SHIFT`` to
  ``int32`` arrays of interned writer ids (0 = never written).  Writes are
  vectorized slice/fancy assignments, reads gather whole pages worth of
  producers in one NumPy indexing operation.
* :class:`PlaneBitmap` — UnMA (unique memory address) tracking as per-page
  byte flags, marked by bulk fancy assignment and popcounted only at
  report time, replacing the per-kernel Python sets.  All (kernel, view)
  bitmaps share one plane-keyed store so marking needs no per-kernel
  loop.
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

The drain is byte-identical to the per-byte walk.  Aligned 8-byte
accesses (the overwhelming majority) flow through a word-granular
vectorized pipeline: events are sorted by word with a *stable* (radix)
``argsort`` — ties keep program order within each word — and a
running-maximum scan finds the last write before each read.
Words ever touched by a sub-word or misaligned access in the same buffer
are routed, together with every colliding word access, through an exact
in-order per-byte walk; the two partitions touch disjoint words, so their
relative order cannot matter.  Stack classification is per *byte* for the
byte-denominated columns (``a < sp`` each byte) and per access (``ea <
sp``) for the access counters.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..core.callstack import CallStack
from ..core.npsort import stable_argsort
from ..obs import TELEMETRY as _TELEMETRY
from ..vm.layout import DEFAULT_MEM_SIZE
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

#: Soft buffer capacity in records.  The drain packs per-buffer byte
#: sums as ``excl << 21 | incl`` weights, so the records per drain must
#: stay below 2^18 (each touches at most 8 bytes); the cap leaves slack
#: for the records one superblock can append past the entry-time check.
DEFAULT_RAW_CAP = (1 << 17) - 512

_FULL_WORD = np.int64(0x0101010101010101)


def _concat_aranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) - np.repeat(ends - counts, counts)


class ShadowPages:
    """Byte-granular last-writer map as paged ``int32`` arrays.

    Values are ``interned_id + 1``; 0 means the byte was never written.
    Pages live as rows of one 2-D backing array so gathers and scatters
    that span pages stay fully vectorized; row 0 is a permanent zero page
    that unallocated page-table entries resolve to on reads.
    """

    __slots__ = ("lut", "_data", "n_pages")

    def __init__(self, mem_size: int = DEFAULT_MEM_SIZE):
        npids = max(1, -(-mem_size // PAGE))
        self.lut = np.full(npids, -1, np.int64)
        self._data = np.zeros((1, PAGE), np.int32)
        self.n_pages = 0

    def _need(self, max_pid: int) -> None:
        if max_pid >= self.lut.size:
            lut = np.full(max_pid + 1, -1, np.int64)
            lut[:self.lut.size] = self.lut
            self.lut = lut

    def _alloc(self, pid: int) -> int:
        slot = self.n_pages + 1
        if slot >= self._data.shape[0]:
            cap = max(4, self._data.shape[0] * 2)
            data = np.zeros((cap, PAGE), np.int32)
            data[:self._data.shape[0]] = self._data
            self._data = data
        self.lut[pid] = slot
        self.n_pages += 1
        return slot

    def _slots_rw(self, pids: np.ndarray) -> np.ndarray:
        self._need(int(pids.max()))
        s = self.lut[pids]
        if (s < 0).any():
            for pid in np.unique(pids[s < 0]):
                self._alloc(int(pid))
            s = self.lut[pids]
        return s

    def _slots_ro(self, pids: np.ndarray) -> np.ndarray:
        self._need(int(pids.max()))
        s = self.lut[pids]
        return np.where(s < 0, 0, s)

    # ------------------------------------------------------ bulk accessors
    def gather_words(self, words: np.ndarray) -> np.ndarray:
        """(n, 8) matrix of writer ids for each aligned 8-byte word."""
        s = self._slots_ro(words >> (PAGE_SHIFT - 3))
        base = (words & (WORDS - 1)) << 3
        return self._data[s[:, None], base[:, None] + np.arange(8)]

    def gather_bytes(self, addrs: np.ndarray) -> np.ndarray:
        s = self._slots_ro(addrs >> PAGE_SHIFT)
        return self._data[s, addrs & (PAGE - 1)]

    def set_words(self, words: np.ndarray, writer1: np.ndarray) -> None:
        """Store ``writer1[i]`` (already +1 encoded) over all 8 bytes of
        each word — the whole-word slice assign of the fast path."""
        s = self._slots_rw(words >> (PAGE_SHIFT - 3))
        v3 = self._data.reshape(self._data.shape[0], WORDS, 8)
        v3[s, words & (WORDS - 1)] = writer1[:, None]

    def set_bytes(self, addrs: np.ndarray, writer1: np.ndarray) -> None:
        """Scatter-store per-byte writers (addresses must be distinct)."""
        s = self._slots_rw(addrs >> PAGE_SHIFT)
        self._data[s, addrs & (PAGE - 1)] = writer1

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self.lut.nbytes


class PlaneBitmap:
    """Every UnMA bitmap of one sink in a single paged ``uint8`` store.

    A *plane* is one (kernel, view) bitmap, keyed ``kid * 4 + view``.
    Pages of all planes share one 2-D backing array, so the drain marks
    bytes across every kernel and view in a single fancy scatter — no
    per-kernel Python loop, no second sort by kernel id.  Marking is
    idempotent (flag stores), hence duplicate-safe.
    """

    __slots__ = ("_npids", "lut", "_data", "_slot_virt", "n_pages")

    def __init__(self, mem_size: int = DEFAULT_MEM_SIZE):
        self._npids = max(1, -(-mem_size // PAGE))
        self.lut = np.full(4 * self._npids, -1, np.int64)
        self._data = np.zeros((0, PAGE), np.uint8)
        self._slot_virt: list[int] = []   # slot -> plane * npids + pid
        self.n_pages = 0

    def _slots(self, planes: np.ndarray, pids: np.ndarray) -> np.ndarray:
        virt = planes * self._npids + pids
        vmax = int(virt.max())
        if vmax >= self.lut.size:
            lut = np.full(vmax + 1, -1, np.int64)
            lut[:self.lut.size] = self.lut
            self.lut = lut
        s = self.lut[virt]
        if (s < 0).any():
            for v in np.unique(virt[s < 0]).tolist():
                slot = self.n_pages
                if slot >= self._data.shape[0]:
                    cap = max(8, self._data.shape[0] * 2)
                    data = np.zeros((cap, PAGE), np.uint8)
                    data[:self._data.shape[0]] = self._data
                    self._data = data
                self.lut[v] = slot
                self._slot_virt.append(int(v))
                self.n_pages += 1
            s = self.lut[virt]
        return s

    def mark_words(self, planes: np.ndarray, words: np.ndarray) -> None:
        """Mark all 8 bytes of each aligned word in each event's plane."""
        if not words.size:
            return
        s = self._slots(planes, words >> (PAGE_SHIFT - 3))
        v64 = self._data.view(np.int64)
        v64[s, words & (WORDS - 1)] = _FULL_WORD

    def mark_bytes(self, planes: np.ndarray, addrs: np.ndarray) -> None:
        if not addrs.size:
            return
        s = self._slots(planes, addrs >> PAGE_SHIFT)
        self._data[s, addrs & (PAGE - 1)] = 1

    def _plane_slots(self, plane: int) -> list[tuple[int, int]]:
        """(pid, slot) pairs of one plane, in pid order."""
        lo, hi = plane * self._npids, (plane + 1) * self._npids
        return sorted((v - lo, slot)
                      for slot, v in enumerate(self._slot_virt)
                      if lo <= v < hi)

    def count(self, plane: int) -> int:
        """Cardinality of one plane (popcount over its pages)."""
        rows = [slot for _, slot in self._plane_slots(plane)]
        if not rows:
            return 0
        return int(self._data[rows].sum(dtype=np.int64))

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self.lut.nbytes


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
    ``flush`` drains the sealed buffer into the shadow."""

    def __init__(self, callstack: CallStack, *,
                 mem_size: int = DEFAULT_MEM_SIZE,
                 track_bindings: bool = True,
                 cap: int = DEFAULT_RAW_CAP):
        super().__init__(callstack, cap=cap)
        self.mem_size = mem_size
        self.track_bindings = track_bindings
        self._sp0 = 0
        self.shadow = ShadowPages(mem_size)
        self._counts = np.zeros((8, 8), np.int64)
        self._nk = 0
        #: all per-kernel [in_incl, in_excl, out_incl, out_excl] UnMA
        #: bitmaps in one plane-keyed store (plane = kid * 4 + view).
        self._unma = PlaneBitmap(mem_size)
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
        self._nk = nk

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
        n = len(self.buf)
        if not n:
            return
        _TELEMETRY.count("quad/records_drained", n)
        with _TELEMETRY.span("drain", cat="quad", records=n):
            vals = np.frombuffer(self.buf, dtype=np.int64).copy()
            del self.buf[:]
            self._drain(vals)

    def drain_stream(self, chunks, batch_rows: int | None = None) -> None:
        """Drain raw packed-record arrays in bounded batches.

        The chunk-friendly face of :meth:`_drain` for streaming replays:
        ``chunks`` yields 1-D packed-record arrays of any length, which
        are re-cut to ``batch_rows`` (clamped to the drain cap — the
        packed weight accumulators overflow past 2**18 records per
        drain) with tail carry between chunks, so callers never
        concatenate the full stream.
        """
        cap = (self.cap if batch_rows is None
               else max(min(int(batch_rows), self.cap), 1))
        tail = None
        for vals in chunks:
            if tail is not None:
                vals = np.concatenate([tail, vals])
                tail = None
            lo = 0
            while vals.size - lo >= cap:
                self._drain(vals[lo:lo + cap])
                lo += cap
            if vals.size - lo:
                tail = vals[lo:]
        if tail is not None:
            self._drain(tail)

    def _drain(self, vals: np.ndarray) -> None:
        neg = vals < 0
        if neg.any():
            markers = -vals[neg] - 1
            sp_stream = np.empty(markers.size + 1, np.int64)
            sp_stream[0] = self._sp0
            sp_stream[1:] = markers
            sp_all = sp_stream[np.cumsum(neg)]
            self._sp0 = int(sp_stream[-1])
            r = vals[~neg]
            sp = sp_all[~neg]
        else:
            r = vals
            sp = np.full(vals.size, self._sp0, np.int64)
        kid1 = r >> KID_SHIFT
        keep = kid1 != 0
        if not keep.all():
            r, sp, kid1 = r[keep], sp[keep], kid1[keep]
        if not r.size:
            return
        kid = kid1 - 1
        a = r & ADDR_MASK
        size = (r >> (TAIL_SHIFT + 1)) & 31
        iwi = (r >> TAIL_SHIFT) & 1

        self._ensure_kernels()
        nk = self._nk
        counts = self._counts
        # all four dynamic access counters from one bincount: index
        # kid + nk * (is_write + 2 * nonstack), nonstack per *access*
        c = np.bincount(kid + nk * (iwi + 2 * (a < sp)), minlength=4 * nk)
        counts[_READS, :nk] += c[0:nk] + c[2 * nk:3 * nk]
        counts[_WRITES, :nk] += c[nk:2 * nk] + c[3 * nk:4 * nk]
        counts[_READS_NS, :nk] += c[2 * nk:3 * nk]
        counts[_WRITES_NS, :nk] += c[3 * nk:4 * nk]
        nb_rec = np.clip(sp - a, 0, size)     # per-byte stack split
        isw = iwi.astype(bool)
        rd = ~isw
        rk = kid[rd]
        # packed weights (excl << 21 | incl): per-drain byte sums stay
        # under 2^21 (record cap 2^17 x 8 bytes), so the float64 bincount
        # accumulator is exact and one pass yields both columns
        wsum = np.bincount(rk, weights=size[rd] + (nb_rec[rd] << 21),
                           minlength=nk)[:nk].astype(np.int64)
        counts[_IN_INCL, :nk] += wsum & ((1 << 21) - 1)
        counts[_IN_EXCL, :nk] += wsum >> 21

        full = (size == 8) & ((a & 7) == 0)
        if full.all():
            self._drain_fast(a >> 3, kid, isw, sp)
            return
        # words ever touched sub-word/misaligned this buffer, plus every
        # full-word access colliding with them, take the exact slow walk;
        # the partitions touch disjoint words, so ordering across them
        # cannot be observed.
        pa, ps = a[~full], size[~full]
        slow_words = np.unique(np.concatenate([pa >> 3, (pa + ps - 1) >> 3]))
        word = a >> 3
        # membership via binary search in the sorted unique slow set —
        # np.isin would re-sort the (much larger) word array instead
        at = np.searchsorted(slow_words, word)
        at[at == slow_words.size] = 0
        collide = full & (slow_words[at] == word)
        fast = full & ~collide
        self._drain_fast(word[fast], kid[fast], isw[fast], sp[fast])
        slow = ~fast
        self._drain_slow(a[slow], size[slow], kid[slow], isw[slow],
                         sp[slow])

    # ------------------------------------------------- fast (word) path
    def _drain_fast(self, word: np.ndarray, kid: np.ndarray,
                    isw: np.ndarray, sp: np.ndarray) -> None:
        nf = word.size
        if not nf:
            return
        assert nf < (1 << 18), "raw cap exceeded the packed-weight bound"
        nb = np.clip(sp - (word << 3), 0, 8)
        # stable radix sort: ties keep program order, same ordering the
        # packed (word << 18) | seq key produced, without the key build
        order = stable_argsort(word)
        w = word[order]
        k = kid[order]
        iw = isw[order]
        nbo = nb[order]
        pos = np.arange(nf)
        gs = np.empty(nf, bool)
        gs[0] = True
        gs[1:] = w[1:] != w[:-1]
        gfirst = np.maximum.accumulate(np.where(gs, pos, 0))
        lastw = np.maximum.accumulate(np.where(iw, pos, -1))
        rd = ~iw

        # producer of each read: last in-buffer write to the same word,
        # else the persistent shadow (whole-word gather + uniformity test)
        prod = np.zeros(nf, np.int64)
        inbuf = rd & (lastw >= gfirst)
        prod[inbuf] = k[lastw[inbuf]] + 1
        pers = rd & ~inbuf
        if pers.any():
            pw = w[pers]
            mat = self.shadow.gather_words(pw)
            unif = (mat == mat[:, :1]).all(axis=1)
            prod[pers] = np.where(unif, mat[:, 0].astype(np.int64), -1)
            if not unif.all():
                nu = ~unif
                self._persistent_mixed(mat[nu], k[pers][nu], nbo[pers][nu])

        res = rd & (prod > 0)
        if res.any():
            self._accumulate_out(prod[res] - 1, k[res], np.full(res.sum(),
                                 8, np.int64), nbo[res])

        self._mark_fast(w, k, iw, nbo)

        # final shadow state: last write of each word group, whole word
        ends = np.nonzero(np.append(gs[1:], True))[0]
        fw = lastw[ends]
        ok = fw >= gfirst[ends]
        if ok.any():
            self.shadow.set_words(w[ends][ok], k[fw[ok]] + 1)

    def _accumulate_out(self, p: np.ndarray, c: np.ndarray,
                        n_incl: np.ndarray, n_excl: np.ndarray) -> None:
        """Credit producers with consumed bytes and record bindings.

        The (producer, consumer) key space is dense and tiny (interned
        kernels squared), so a direct ``bincount`` over flattened pair ids
        replaces a sort-based ``np.unique``."""
        nk = self._nk
        counts = self._counts
        # packed weights (excl << 21 | incl): exact in the float64
        # accumulator, one bincount pass for both columns
        w = n_incl + (n_excl << 21)
        if not self.track_bindings:
            ws = np.bincount(p, weights=w,
                             minlength=nk)[:nk].astype(np.int64)
            counts[_OUT_INCL, :nk] += ws & ((1 << 21) - 1)
            counts[_OUT_EXCL, :nk] += ws >> 21
            return
        pair = p * nk + c
        ws = np.bincount(pair, weights=w,
                         minlength=nk * nk).astype(np.int64)
        bi = ws & ((1 << 21) - 1)
        be = ws >> 21
        counts[_OUT_INCL, :nk] += bi.reshape(nk, nk).sum(axis=1)
        counts[_OUT_EXCL, :nk] += be.reshape(nk, nk).sum(axis=1)
        bindings = self.kid_bindings
        # every consumed byte has n_incl >= 1, so bi's support covers be's
        for j in np.nonzero(bi)[0].tolist():
            key = divmod(j, nk)
            b = bindings.get(key)
            if b is None:
                bindings[key] = [int(bi[j]), int(be[j])]
            else:
                b[0] += int(bi[j])
                b[1] += int(be[j])

    def _persistent_mixed(self, mat: np.ndarray, cons: np.ndarray,
                          nb: np.ndarray) -> None:
        """Reads whose word has more than one persistent producer: expand
        to bytes (rare — only products of sub-word writes survive as mixed
        words)."""
        n = mat.shape[0]
        flat = mat.astype(np.int64).ravel()
        byteix = np.tile(np.arange(8), n)
        below = byteix < np.repeat(nb, 8)
        cflat = np.repeat(cons, 8)
        known = flat > 0
        if known.any():
            self._accumulate_out(flat[known] - 1, cflat[known],
                                 np.ones(int(known.sum()), np.int64),
                                 below[known].astype(np.int64))

    def _mark_fast(self, w: np.ndarray, k: np.ndarray, iw: np.ndarray,
                   nbo: np.ndarray) -> None:
        """UnMA marking for full-word events.  The incl views take whole
        words; the excl views take whole words when all 8 bytes sit under
        SP and fall back to byte marks for SP-straddling words.

        All kernels and views mark through one plane-keyed scatter each —
        the plane id ``kid * 4 + view`` moves the per-kernel dispatch into
        the index arithmetic."""
        planes = (k << 2) + np.where(iw, _V_OUT_INCL, _V_IN_INCL)
        if w.size > 1:
            # marking is idempotent and ``w`` arrives sorted, so hot
            # words repeat in adjacent runs: collapse duplicates before
            # paying the scatters (nbo joins the key — the excl view
            # depends on it)
            keep = np.empty(w.size, bool)
            keep[0] = True
            keep[1:] = ((w[1:] != w[:-1]) | (planes[1:] != planes[:-1])
                        | (nbo[1:] != nbo[:-1]))
            if not keep.all():
                w, planes, nbo = w[keep], planes[keep], nbo[keep]
        self._unma.mark_words(planes, w)
        ex = nbo == 8
        if ex.any():
            self._unma.mark_words(planes[ex] + 1, w[ex])
        straddle = (nbo > 0) & ~ex
        if straddle.any():
            nn = nbo[straddle]
            addrs = np.repeat(w[straddle] << 3, nn) + _concat_aranges(nn)
            self._unma.mark_bytes(np.repeat(planes[straddle] + 1, nn),
                                  addrs)

    # ---------------------------------------------------- slow (byte) path
    def _drain_slow(self, a: np.ndarray, size: np.ndarray, kid: np.ndarray,
                    isw: np.ndarray, sp: np.ndarray) -> None:
        """Exact per-byte pipeline for sub-word/misaligned accesses and the
        word accesses colliding with them.

        The same sorted group-scan as :meth:`_drain_fast`, but with one
        event per *byte* instead of per word — byte-granular persistent
        lookups need no uniformity test, so this handles mixed-producer
        words exactly."""
        n = a.size
        if not n:
            return
        ad = np.repeat(a, size) + _concat_aranges(size)
        sq = np.repeat(np.arange(n), size)
        kd = np.repeat(kid, size)
        iw = np.repeat(isw, size)
        bl = ad < np.repeat(sp, size)
        order = stable_argsort(ad)              # ties: bytes in seq order
        ad, kd, iw, bl = ad[order], kd[order], iw[order], bl[order]
        ne = ad.size
        pos = np.arange(ne)
        gs = np.empty(ne, bool)
        gs[0] = True
        gs[1:] = ad[1:] != ad[:-1]
        gfirst = np.maximum.accumulate(np.where(gs, pos, 0))
        lastw = np.maximum.accumulate(np.where(iw, pos, -1))
        rd = ~iw

        prod = np.zeros(ne, np.int64)
        inbuf = rd & (lastw >= gfirst)
        prod[inbuf] = kd[lastw[inbuf]] + 1
        pers = rd & ~inbuf
        if pers.any():
            prod[pers] = self.shadow.gather_bytes(ad[pers])

        res = rd & (prod > 0)
        if res.any():
            self._accumulate_out(prod[res] - 1, kd[res],
                                 np.ones(int(res.sum()), np.int64),
                                 bl[res].astype(np.int64))

        planes = (kd << 2) + np.where(iw, _V_OUT_INCL, _V_IN_INCL)
        self._unma.mark_bytes(planes, ad)
        if bl.any():
            self._unma.mark_bytes(planes[bl] + 1, ad[bl])

        ends = np.nonzero(np.append(gs[1:], True))[0]
        fw = lastw[ends]
        ok = fw >= gfirst[ends]
        if ok.any():
            self.shadow.set_bytes(ad[ends][ok], (kd[fw[ok]] + 1)
                                  .astype(np.int32))

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
