"""Radix argsort and the one group-by of the replay hot paths.

NumPy's ``kind="stable"`` argsort is a radix sort only for dtypes of
one or two bytes; for wider integers it silently falls back to timsort,
which is 4-6x slower on random key arrays the replay engines sort (packed
(kernel, slice) keys, shadow word addresses).  All of those keys are
non-negative and comfortably below 2**32, so a stable sort decomposes
into two 16-bit radix passes over ``uint16`` views — each pass hits
NumPy's actual radix code path, and stability makes the composition
exact.  :func:`group_sum` builds every tQUAD (kernel, slice) table, and
:func:`run_sum`, its last step, sums runs of equal adjacent keys.
"""

from __future__ import annotations

import numpy as np

#: Below this, two passes plus the range check cost more than timsort.
_SMALL = 4096


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Indices that stable-sort integer ``keys`` ascending.

    Byte-for-byte the same permutation as ``np.argsort(keys,
    kind="stable")`` — ties keep input order.  Keys in ``[0, 2**32)``
    take the two-pass radix route; anything else (including any
    negative key) falls back to NumPy so the helper is always safe to
    call.
    """
    if keys.size < _SMALL:
        return np.argsort(keys, kind="stable")
    lo, hi = int(keys.min()), int(keys.max())
    if lo < 0 or hi >> 32:
        return np.argsort(keys, kind="stable")
    order = (keys & 0xFFFF).astype(np.uint16).argsort(kind="stable")
    if hi >> 16:
        second = (keys >> 16).astype(np.uint16)[order]
        order = order[second.argsort(kind="stable")]
    return order


def group_sum(keys: np.ndarray, *cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group rows by integer key: ``(distinct keys, *column sums)``.

    The distinct keys come back ascending, each 1-D column as the
    ``int64`` sum of its rows per key.  Every route sums in integers, so
    the table depends on the rows alone.  The keys pick the route:

    * strictly ascending keys are already grouped and come back as is
      (the caller must not modify them afterwards);
    * nondecreasing keys are segment-summed (:func:`run_sum`);
    * keys spanning at most four times the row count are summed densely
      (a ``bincount`` marks the keys present, an integer ``np.add.at``
      sums each column), so memory stays of the order of the input;
    * keys whose ascending runs average 32 rows or more (timsort's
      minimum run: sorted tables laid end to end) take timsort, which
      gallops through the runs;
    * any other keys take the radix sort of :func:`stable_argsort`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    cols = tuple(np.asarray(c, dtype=np.int64) for c in cols)
    n = keys.size
    if n < 2:
        return (keys, *cols)
    runs = 1 + int(np.count_nonzero(keys[1:] < keys[:-1]))
    order = None
    if runs > 1:
        lo, hi = int(keys.min()), int(keys.max())
        if lo > 0 and hi < 4 * n:
            lo = 0          # index by the keys themselves: no shifted copy
        if hi - lo < 4 * n:
            idx = keys - lo if lo else keys
            present = np.flatnonzero(np.bincount(idx))
            sums = []
            for c in cols:
                acc = np.zeros(hi - lo + 1, np.int64)
                np.add.at(acc, idx, c)
                sums.append(acc[present])
            return (present + lo if lo else present, *sums)
        order = (np.argsort(keys, kind="stable") if 32 * runs <= n
                 else stable_argsort(keys))
        keys = keys[order]
        # one sorted column at a time: the run sum consumes them lazily
        cols = (c[order] for c in cols)
    return run_sum(keys, cols)


def run_sum(keys: np.ndarray, cols) -> tuple[np.ndarray, ...]:
    """Sum each run of equal adjacent keys: ``(run keys, *column sums)``.

    The runs keep their order, so on nondecreasing keys this is the
    group-by.  ``cols`` is any iterable of 1-D columns, each read once.
    Keys with no two equal neighbours come back as is, with the columns
    themselves: a caller that keeps them past its inputs must copy
    those it does not own.
    """
    if keys.size > 1:
        new = np.not_equal(keys[1:], keys[:-1])
        if not new.all():
            starts = np.flatnonzero(np.concatenate(([True], new)))
            return (keys[starts],
                    *(np.add.reduceat(c, starts) for c in cols))
    return (keys, *cols)
