"""Bounded-memory replay plumbing: budgets, spill files, sampling.

The streaming tier keeps a replay's *working* memory under a caller-set
byte ceiling while producing byte-identical reports (the report itself
is output, not working state).  Three pieces cooperate:

* :class:`MemBudget` — a byte ledger every streaming consumer charges
  its resident arrays against; the high-water mark and spill volume
  surface as ``obs`` gauges (``stream/peak_resident_bytes``,
  ``stream/spill_bytes``).
* :class:`SpillPool` + :class:`SortedTableAcc` — carry state that
  outgrows its share of the ceiling compacts (one
  :func:`~repro.core.npsort.group_sum`) and spills as sorted ``.npy``
  runs; :func:`merge_sorted_runs` re-merges
  them blockwise, never holding more than one block per run plus the
  emitted output.  Spill directories embed the owning pid
  (``tquad-spill-<pid>-*``) so a supervisor can sweep up after workers
  that died without running their own teardown
  (:func:`cleanup_spill_dirs`), and an ``atexit`` hook plus context
  managers cover normal exits and ``KeyboardInterrupt``.
* :func:`sample_mask` — the deterministic Bernoulli row sampler the
  approximate tier keys on ``(seed, stream ordinal, page index)``, so
  the same capture + seed + rate always selects the same rows, in any
  consumer.
"""

from __future__ import annotations

import atexit
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..core.npsort import group_sum
from ..obs import TELEMETRY

#: Spill directories are ``<tempdir>/tquad-spill-<pid>-<random>`` — the
#: pid in the name is the cleanup contract (see :func:`cleanup_spill_dirs`).
SPILL_PREFIX = "tquad-spill-"

_SUFFIX = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}

#: Smallest accepted ceiling: below one decoded page the exact tier
#: cannot make progress, and the error is clearer up front.
MIN_MEM_LIMIT = 1 << 16


def parse_mem_limit(text: str | int | None) -> int | None:
    """``"64M"`` / ``"512k"`` / ``"1G"`` / plain bytes -> int bytes.

    Returns ``None`` for ``None``; raises :class:`ValueError` for
    malformed values or ceilings below :data:`MIN_MEM_LIMIT`.
    """
    if text is None:
        return None
    if isinstance(text, int):
        n = text
    else:
        m = re.fullmatch(r"\s*(\d+)\s*([kKmMgG]?)([bB]?)\s*", str(text))
        if not m:
            raise ValueError(
                f"bad memory limit {text!r} (expected BYTES with an "
                f"optional K/M/G suffix, e.g. 64M)")
        n = int(m.group(1)) * _SUFFIX[m.group(2).lower()]
    if n < MIN_MEM_LIMIT:
        raise ValueError(
            f"memory limit {n} is below the {MIN_MEM_LIMIT}-byte floor "
            f"(one decoded page must fit)")
    return n


class MemBudget:
    """Byte ledger for one streaming replay.

    ``charge``/``release`` track arrays a consumer keeps resident;
    ``touch`` records a transient (held only within one loop step) so it
    counts toward the high-water mark without needing a paired release.
    ``over`` is the spill signal, not an error — consumers react by
    compacting or spilling until they fit again.
    """

    __slots__ = ("limit", "resident", "peak", "spilled_bytes", "spill_runs")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.resident = 0
        self.peak = 0
        self.spilled_bytes = 0
        self.spill_runs = 0

    @property
    def over(self) -> bool:
        return self.limit is not None and self.resident > self.limit

    def charge(self, nbytes: int) -> None:
        self.resident += int(nbytes)
        if self.resident > self.peak:
            self.peak = self.resident

    def release(self, nbytes: int) -> None:
        self.resident = max(0, self.resident - int(nbytes))

    def touch(self, nbytes: int) -> None:
        high = self.resident + int(nbytes)
        if high > self.peak:
            self.peak = high

    def note_spill(self, nbytes: int) -> None:
        self.spilled_bytes += int(nbytes)
        self.spill_runs += 1

    def publish(self, telemetry=TELEMETRY) -> None:
        telemetry.gauge("stream/peak_resident_bytes", self.peak)
        telemetry.gauge("stream/spill_bytes", self.spilled_bytes)


# ------------------------------------------------------------------ spill
#: Every live spill directory of this process; swept by ``atexit`` so a
#: ``KeyboardInterrupt`` that unwinds past the replay still cleans up.
_ACTIVE_DIRS: set[str] = set()
_HOOKED = False


def _sweep_active() -> None:
    for d in list(_ACTIVE_DIRS):
        shutil.rmtree(d, ignore_errors=True)
        _ACTIVE_DIRS.discard(d)


def _hook_atexit() -> None:
    global _HOOKED
    if not _HOOKED:
        atexit.register(_sweep_active)
        _HOOKED = True


class SpillPool:
    """One replay's spill area: lazily created, always torn down.

    The directory appears only on the first :meth:`write` (most bounded
    replays never spill), lives under the system tempdir with the owning
    pid in its name, and is removed by :meth:`close` — which the context
    manager calls on *any* exit, including ``KeyboardInterrupt``.  The
    module-level registry + ``atexit`` hook covers exits that skip the
    ``with`` block's unwind; supervisors sweep the dirs of workers that
    were killed before any of that could run (:func:`cleanup_spill_dirs`).
    """

    def __init__(self, budget: MemBudget | None = None):
        self.budget = budget
        self._dir: str | None = None
        self._n = 0

    @property
    def path(self) -> str | None:
        return self._dir

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix=f"{SPILL_PREFIX}{os.getpid()}-")
            _hook_atexit()
            _ACTIVE_DIRS.add(self._dir)
        return self._dir

    def write(self, table: np.ndarray) -> str:
        """Persist one sorted ``(n, k)`` run; returns its path."""
        path = os.path.join(self._ensure_dir(), f"run{self._n:05d}.npy")
        self._n += 1
        np.save(path, table)
        if self.budget is not None:
            self.budget.note_spill(table.nbytes)
        return path

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            _ACTIVE_DIRS.discard(self._dir)
            self._dir = None

    def __enter__(self) -> "SpillPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cleanup_spill_dirs(pids, tmp: str | None = None) -> list[str]:
    """Remove spill directories left behind by dead processes.

    The supervisor calls this with the pids of workers it spawned: a
    worker killed with ``terminate()`` never runs its own ``atexit``
    sweep, so the parent — the only process guaranteed to survive —
    reclaims the disk.  Matching is by the ``tquad-spill-<pid>-`` name
    prefix; directories of live, unrelated processes are untouched.
    """
    base = Path(tmp or tempfile.gettempdir())
    removed: list[str] = []
    for pid in pids:
        for path in base.glob(f"{SPILL_PREFIX}{int(pid)}-*"):
            shutil.rmtree(path, ignore_errors=True)
            removed.append(str(path))
    return removed


# ------------------------------------------------------ sorted-run merging
def _compact(chunks: list[tuple[np.ndarray, ...]]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``(keys, incl, excl)`` chunks into one table with unique
    ascending keys — integer sums, so merging is exact and associative:
    any compaction order yields the same final table."""
    return group_sum(*map(np.concatenate, zip(*chunks)))


def merge_sorted_runs(runs, block_rows: int = 1 << 16
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K-way merge of key-sorted ``(n, 3)`` runs, summing duplicate keys.

    ``runs`` holds file paths (``np.load(mmap_mode="r")``) or arrays.
    Memory stays bounded by one ``block_rows`` block per run plus the
    emitted output: each round loads the next block of every run,
    emits only rows at or below the smallest not-yet-read key (so a key
    can never straddle two rounds), and advances.
    """
    tables = [np.load(r, mmap_mode="r") if isinstance(r, (str, Path))
              else np.asarray(r) for r in runs]
    heads = [0] * len(tables)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while True:
        active = [i for i, t in enumerate(tables) if heads[i] < len(t)]
        if not active:
            break
        frontier = None
        blocks: list[tuple[int, np.ndarray]] = []
        for i in active:
            t = tables[i]
            stop = min(heads[i] + block_rows, len(t))
            # never split a stretch of equal keys across two blocks of
            # the same run — otherwise the frontier could emit a key
            # whose remaining rows are still unread (compacted spill
            # runs have unique keys, so this extends by 0 rows there)
            last = int(t[stop - 1, 0])
            while stop < len(t) and int(t[stop, 0]) == last:
                stop += 1
            blk = np.asarray(t[heads[i]:stop])
            blocks.append((i, blk))
            if stop < len(t):          # this run has unread keys beyond
                cap = int(blk[-1, 0])  # the block: cap emission at its
                if frontier is None or cap < frontier:  # last loaded key
                    frontier = cap
        chunks = []
        for i, blk in blocks:
            cut = (blk.shape[0] if frontier is None
                   else int(np.count_nonzero(blk[:, 0] <= frontier)))
            if cut:
                chunks.append((blk[:cut, 0], blk[:cut, 1], blk[:cut, 2]))
            heads[i] += cut
        if chunks:
            parts.append(_compact(chunks))
    if not parts:
        empty = np.empty(0, np.int64)
        return empty, empty.copy(), empty.copy()
    if len(parts) == 1:
        return parts[0]
    # parts are disjoint, ascending key ranges: concatenation is sorted
    return tuple(np.concatenate([p[j] for p in parts]) for j in range(3))


class SortedTableAcc:
    """Bounded accumulator for one sparse ``key -> (incl, excl)`` table.

    Chunks buffer until ``compact_rows`` are pending, and at least as
    many rows as the carry holds, then fold into the sorted carry table;
    a carry that pushes the budget over the ceiling spills to ``pool``
    as a sorted run.  Waiting for the carry's size keeps compaction
    amortised ``O(n log n)`` when keys rarely repeat (a sweep's
    per-slice rows), where a fixed cadence would regroup an ever larger
    carry every ``compact_rows`` rows.  :meth:`finalize` merges carry +
    runs back into the exact table the unbounded path would have built
    (integer segment sums are associative, so compaction order cannot
    change the result).
    """

    __slots__ = ("budget", "compact_rows", "carry", "carry_bytes",
                 "pending", "pending_rows", "pending_bytes", "runs")

    def __init__(self, budget: MemBudget, compact_rows: int):
        self.budget = budget
        self.compact_rows = max(int(compact_rows), 1)
        self.carry: tuple[np.ndarray, ...] | None = None
        self.carry_bytes = 0
        self.pending: list[tuple[np.ndarray, ...]] = []
        self.pending_rows = 0
        self.pending_bytes = 0
        self.runs: list[str] = []

    def add(self, keys: np.ndarray, incl: np.ndarray,
            excl: np.ndarray) -> None:
        if keys.size == 0:
            return
        nbytes = keys.nbytes + incl.nbytes + excl.nbytes
        self.pending.append((keys, incl, excl))
        self.pending_rows += keys.size
        self.pending_bytes += nbytes
        self.budget.charge(nbytes)
        carry_rows = self.carry[0].size if self.carry is not None else 0
        if self.pending_rows >= max(self.compact_rows, carry_rows):
            self.compact()

    def compact(self) -> None:
        if not self.pending:
            return
        chunks = ([self.carry] if self.carry is not None else []) \
            + self.pending
        table = _compact(chunks)
        released = self.pending_bytes + self.carry_bytes
        self.pending = []
        self.pending_rows = self.pending_bytes = 0
        self.carry = table
        self.carry_bytes = sum(a.nbytes for a in table)
        self.budget.charge(self.carry_bytes)
        self.budget.release(released)

    def spill(self, pool: SpillPool) -> None:
        self.compact()
        if self.carry is None or self.carry[0].size == 0:
            return
        self.runs.append(pool.write(np.column_stack(self.carry)))
        self.budget.release(self.carry_bytes)
        self.carry = None
        self.carry_bytes = 0

    def finalize(self, block_rows: int = 1 << 16
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self.compact()
        if not self.runs:
            if self.carry is None:
                empty = np.empty(0, np.int64)
                return empty, empty.copy(), empty.copy()
            return self.carry
        runs: list = list(self.runs)
        if self.carry is not None and self.carry[0].size:
            runs.append(np.column_stack(self.carry))
        return merge_sorted_runs(runs, block_rows=block_rows)


# --------------------------------------------------------------- sampling
def sample_mask(seed: int, stream_ordinal: int, page_index: int,
                n_rows: int, rate: float) -> np.ndarray:
    """Deterministic Bernoulli keep-mask for one page of one stream.

    Keyed on ``(seed, stream ordinal, page index)`` so every consumer —
    the approximate profile replay, the sampled sweep, a re-run on
    another host — selects exactly the same rows for the same capture.
    """
    rng = np.random.default_rng((int(seed), int(stream_ordinal),
                                 int(page_index)))
    return rng.random(n_rows) < rate
