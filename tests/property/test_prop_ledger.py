"""Property-based checks of the columnar tQUAD ledger and its text encoder.

* **Encoder identity.**  ``tquad_to_json`` renders the ``history``
  section from the ledger table with NumPy and splices it into the
  header; for any ledger it must equal
  ``json.dumps(tquad_to_dict(report))``, survive a ``tquad_from_json``
  round trip byte for byte, and ``sweep_to_json`` / ``approx_to_json``
  must equal ``json.dumps`` of their dict forms.  The random ledgers
  cover kernel names with quotes, backslashes, control characters and
  non-ASCII text, empty histories, all-zero rows, kernel filters and
  image maps; their counters and slices reach across the whole int64
  range, negative values, ``INT64_MIN``, ``INT64_MAX`` and every
  ``10**k - 1`` / ``10**k`` boundary up to ``10**18`` included, and some
  tables give every kernel exactly one row (kernel ends on adjacent
  rows).  Budget: 200 examples (40 for sweeps and approx results); the
  nightly job sets ``TQUAD_NIGHTLY=1`` for 2,000 (400).
* **Chunking.**  One set of rows fed through shuffled, arbitrarily split
  :meth:`~repro.core.ledger.BandwidthLedger.add` chunks, through one
  ``add`` and through per-row ``accumulate`` gives the same table, and
  the table holds the exact integer sums of the rows.
* **Grouping.**  :func:`~repro.core.npsort.group_sum`, the group-by under
  every tQUAD table, equals a Python-int dict reference on keys shaped to
  reach each of its routes (already grouped, nondecreasing, dense span,
  a few sorted runs, sparse span, empty, one row), with column values
  beyond 2**53 and below zero.
"""

import json
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capture.approx import ApproxTQuadReplay
from repro.core.ledger import BandwidthLedger
from repro.core.npsort import group_sum
from repro.core.options import StackPolicy, TQuadOptions
from repro.core.report import TQuadReport
from repro.serialize import (approx_to_dict, approx_to_json, sweep_to_dict,
                             sweep_to_json, tquad_from_json, tquad_to_dict,
                             tquad_to_json)
from repro.sweep.engine import SweepResult
from repro.sweep.grid import SweepGrid

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
#: Examples of the tQUAD encoder property; a fifth for sweeps and approx.
ENCODER_EXAMPLES = 2000 if NIGHTLY else 200

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: Where a decimal text gains a digit, both signs, and the int64 ends.
EDGES = sorted({INT64_MIN, INT64_MAX,
                *(sign * v for k in range(19) for v in (10**k - 1, 10**k)
                  for sign in (1, -1))})
#: The slices one table spans: the ledger packs (kernel, slice) into one
#: int64 key, and five kernels times this span stay below 2**63.
SLICE_SPAN = 1 << 60

#: Kernel names that exercise every JSON escape: quotes, backslashes,
#: control characters, ``%``, non-ASCII and astral characters.
names = st.text(
    alphabet=st.sampled_from(list('a_"\\%\x00\x07\n\t\x1f\x7fé漢\U0001f600'))
    | st.characters(exclude_categories=("Cs",)),
    max_size=6)

counters = st.one_of(
    st.integers(0, 1 << 20),
    st.sampled_from([0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1]))

#: (kernel index, slice, four counters); small slices make repeats likely.
rows = st.lists(
    st.tuples(st.integers(0, 4),
              st.one_of(st.integers(0, 12), st.integers(0, 1 << 40)),
              st.tuples(counters, counters, counters, counters)),
    max_size=40)


def _sums(kernels, row_list):
    """The table the rows describe, summed with Python ints."""
    out: dict[str, dict[int, list[int]]] = {}
    for k, s, c in row_list:
        cur = out.setdefault(kernels[k], {}).setdefault(s, [0, 0, 0, 0])
        for j in range(4):
            cur[j] += c[j]
    return {name: {s: tuple(c) for s, c in sorted(slices.items())}
            for name, slices in sorted(out.items())}


def _one_add(kernels, row_list):
    ledger = BandwidthLedger(64)
    if row_list:
        kid, sl, cnt = zip(*row_list)
        ledger.add(kernels, kid, sl, cnt)
    return ledger


@st.composite
def ledgers(draw):
    kernels = draw(st.lists(names, min_size=5, max_size=5, unique=True))
    return kernels, draw(rows)


@st.composite
def wide_ledgers(draw):
    """``(kernels, rows)`` whose counters reach across int64 and whose
    slices sit in one ``SLICE_SPAN`` window anywhere in it.  Rows that
    share a (kernel, slice) pair sum with int64 wrap-around, on every
    route alike."""
    kernels = draw(st.lists(names, min_size=5, max_size=5, unique=True))
    centre = draw(st.one_of(st.sampled_from(EDGES),
                            st.integers(INT64_MIN, INT64_MAX)))
    lo = max(INT64_MIN, centre - SLICE_SPAN // 2)
    hi = min(INT64_MAX, lo + SLICE_SPAN)
    slices = st.one_of(
        st.integers(lo, hi),
        st.sampled_from([e for e in EDGES if lo <= e <= hi] or [lo, hi]),
        st.integers(max(lo, centre - 12), min(hi, centre + 12)))
    counter = st.one_of(st.integers(INT64_MIN, INT64_MAX),
                        st.sampled_from(EDGES), st.integers(-12, 12))
    counters4 = st.tuples(counter, counter, counter, counter)
    if draw(st.booleans()):
        # every kernel owns one row
        return kernels, [(k, draw(slices), draw(counters4)) for k in draw(
            st.lists(st.integers(0, 4), min_size=1, max_size=5,
                     unique=True))]
    return kernels, draw(st.lists(
        st.tuples(st.integers(0, 4), slices, counters4), max_size=40))


@st.composite
def reports(draw):
    kernels, row_list = draw(wide_ledgers())
    opt_kernels = draw(st.one_of(
        st.none(), st.lists(st.sampled_from(kernels), unique=True)
        .map(tuple)))
    options = TQuadOptions(
        slice_interval=draw(st.integers(1, 10**6)),
        stack=draw(st.sampled_from(list(StackPolicy))),
        exclude_libraries=draw(st.booleans()), kernels=opt_kernels)
    images = draw(st.dictionaries(
        st.sampled_from(kernels),
        st.one_of(st.sampled_from(["main", "libc"]), names), max_size=5))
    return TQuadReport(ledger=_one_add(kernels, row_list), options=options,
                       total_instructions=draw(st.integers(0, 1 << 40)),
                       images=images, complete=draw(st.booleans()))


class TestEncoder:
    @settings(max_examples=ENCODER_EXAMPLES, deadline=None)
    @given(reports())
    def test_tquad_text_is_json_dumps_of_the_dict(self, report):
        text = tquad_to_json(report)
        assert text == json.dumps(tquad_to_dict(report))
        assert tquad_to_json(tquad_from_json(text)) == text

    @settings(max_examples=ENCODER_EXAMPLES // 5, deadline=None)
    @given(st.lists(reports(), min_size=1, max_size=4), st.data())
    def test_sweep_text_is_json_dumps_of_the_dict(self, cell_reports,
                                                  data):
        grid = SweepGrid(intervals=tuple(
            range(1, len(cell_reports) + 1)))
        cells = grid.cells()
        result = SweepResult(
            grid=grid, reports=dict(zip(cells, cell_reports)),
            total_instructions=data.draw(st.integers(0, 1 << 40)),
            grain=1, stats={"cells": len(cells),
                            "rel_err_95": data.draw(st.floats(0, 1))})
        assert sweep_to_json(result) == json.dumps(sweep_to_dict(result))

    @settings(max_examples=ENCODER_EXAMPLES // 5, deadline=None)
    @given(reports(), st.floats(0.01, 0.99), st.lists(
        st.tuples(names, st.integers(0, 1 << 50)), max_size=3))
    def test_approx_text_is_json_dumps_of_the_dict(self, report, rate,
                                                   heavy):
        keys = ("read_incl", "read_excl", "write_incl", "write_excl")
        result = ApproxTQuadReplay(
            report=report, rate=rate, seed=3, rows_walked=100,
            sampled_rows=7, totals=dict.fromkeys(keys, 1 << 53),
            rel_err_95=dict.fromkeys(keys, rate / 3),
            heavy_hitters=heavy,
            sketch={"width": 2048, "epsilon": rate / 7},
            mem={"peak_resident_bytes": 12})
        assert approx_to_json(result) == json.dumps(approx_to_dict(result))


class TestChunking:
    @settings(max_examples=200, deadline=None)
    @given(ledgers(), st.randoms(use_true_random=False))
    def test_chunks_add_and_accumulate_give_one_table(self, ledger_rows,
                                                      rnd):
        kernels, row_list = ledger_rows
        expect = _sums(kernels, row_list)

        one = _one_add(kernels, row_list)

        per_row = BandwidthLedger(64)
        for k, s, c in row_list:
            per_row.accumulate(kernels[k], s, *c)

        # shuffled rows, split anywhere, each chunk with its own kernel
        # table order (and names it never uses)
        chunked = BandwidthLedger(64)
        shuffled = list(row_list)
        rnd.shuffle(shuffled)
        cuts = sorted(rnd.sample(range(len(shuffled) + 1),
                                 min(3, len(shuffled) + 1)))
        for lo, hi in zip([0] + cuts, cuts + [len(shuffled)]):
            perm = list(range(len(kernels)))
            rnd.shuffle(perm)
            local = [kernels[i] for i in perm]
            part = [(perm.index(k), s, c) for k, s, c in shuffled[lo:hi]]
            if part:
                kid, sl, cnt = zip(*part)
                chunked.add(local, np.array(kid), np.array(sl),
                            np.array(cnt, np.int64))
            if rnd.random() < 0.3:
                chunked.kernels()        # fold part-way through

        for ledger in (one, per_row, chunked):
            assert ledger.history == expect
            assert ledger.kernels() == list(expect)
            for name, slices in expect.items():
                s = ledger.series(name)
                assert s.slices.tolist() == list(slices)
                assert np.column_stack(
                    (s.read_incl, s.read_excl, s.write_incl,
                     s.write_excl)).tolist() == [list(c) for c in
                                                 slices.values()]



#: Key shapes, one per route of ``group_sum``.
SHAPES = ("empty", "one", "grouped", "sorted", "dense", "runs", "sparse")

#: Column values a float64 accumulator would round, or that sit at the
#: edge of its exact range.
WIDE = np.array([(1 << 53) - 1, (1 << 53) + 1, (1 << 53) + 3,
                 (1 << 54) + 1, -(1 << 53) - 1], np.int64)


@st.composite
def keyed_columns(draw):
    """``(shape, keys, columns)``: int64 keys of one shape, offset
    anywhere in the int64 range, and up to three columns."""
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = {"empty": 0, "one": 1}.get(shape) or draw(st.one_of(
        st.integers(2, 300), st.integers(4096, 5000)))
    lo = draw(st.sampled_from([0, 7, -(1 << 40), 1 << 40]))
    if shape == "grouped":
        keys = np.cumsum(rng.integers(1, 1 << 20, n))
    elif shape == "sorted":
        keys = np.sort(rng.integers(0, n // 2 + 1, n))
    elif shape == "dense":
        keys = rng.integers(0, n, n)
    elif shape == "runs":
        k = draw(st.integers(2, 4))
        n = max(n, 32 * k)
        keys = np.concatenate([np.sort(rng.integers(0, 1 << 40, n // k))
                               for _ in range(k)])
    else:
        keys = rng.integers(0, 1 << draw(st.sampled_from([20, 32, 40])),
                            n)
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        col = rng.integers(-(1 << 20), 1 << 20, keys.size)
        wide = rng.choice(keys.size, min(keys.size, 8), replace=False)
        col[wide] = rng.choice(WIDE, wide.size)
        cols.append(col)
    return shape, (keys + lo).astype(np.int64), cols


class TestGroupSum:
    @settings(max_examples=300, deadline=None)
    @given(keyed_columns())
    def test_matches_python_int_sums(self, drawn):
        shape, keys, cols = drawn
        expect: dict[int, list[int]] = {}
        for i, key in enumerate(keys.tolist()):
            sums = expect.setdefault(key, [0] * len(cols))
            for j, col in enumerate(cols):
                sums[j] += int(col[i])

        got = group_sum(keys, *cols)

        assert len(got) == 1 + len(cols)
        assert all(a.dtype == np.int64 for a in got)
        assert got[0].tolist() == sorted(expect)
        for j, col in enumerate(got[1:]):
            assert col.tolist() == [expect[k][j] for k in sorted(expect)]
        if shape == "grouped":
            assert got[0] is keys        # already grouped: as is
