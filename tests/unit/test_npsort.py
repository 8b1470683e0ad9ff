"""Radix argsort helper (:mod:`repro.core.npsort`).

``stable_argsort`` must return *exactly* ``np.argsort(keys,
kind="stable")`` — the replay engines lean on tie order for
byte-identical reports — across every route: the small-array
passthrough, the one- and two-pass radix paths, and the fallbacks for
keys the 32-bit decomposition cannot carry.  ``run_sum`` sums runs of
equal adjacent keys only, in their order.
"""

import numpy as np
import pytest

from repro.core.npsort import _SMALL, run_sum, stable_argsort


def _assert_matches_numpy(keys):
    expect = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    assert got.tolist() == expect.tolist()


class TestStableArgsort:
    def test_small_array_passthrough(self):
        keys = np.array([5, 1, 5, 0, 1], dtype=np.int64)
        assert keys.size < _SMALL
        _assert_matches_numpy(keys)

    def test_single_pass_route_16bit_keys(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 16, size=_SMALL + 100).astype(np.int64)
        _assert_matches_numpy(keys)

    def test_two_pass_route_32bit_keys(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1 << 32, size=_SMALL + 100).astype(np.int64)
        _assert_matches_numpy(keys)

    def test_ties_keep_input_order(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 50, size=_SMALL * 2).astype(np.int64)
        order = stable_argsort(keys)
        sk = keys[order]
        assert (sk[1:] >= sk[:-1]).all()
        # within every equal-key run the original indices ascend
        ties = sk[1:] == sk[:-1]
        assert (order[1:][ties] > order[:-1][ties]).all()

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_out_of_range_keys_fall_back(self, bad):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1 << 20, size=_SMALL + 10).astype(np.int64)
        keys[123] = bad
        _assert_matches_numpy(keys)


class TestRunSum:
    def test_sums_adjacent_runs_only(self):
        keys = np.array([4, 4, 1, 4, 4, 4, 9], dtype=np.int64)
        incl = np.array([1, 2, 3, 4, 5, 1 << 60, 7], dtype=np.int64)
        got = run_sum(keys, iter((incl, -incl)))
        assert [a.tolist() for a in got] == [
            [4, 1, 4, 9], [3, 3, 9 + (1 << 60), 7],
            [-3, -3, -9 - (1 << 60), -7]]

    @pytest.mark.parametrize("keys", [[], [3], [3, 1, 3, 2]])
    def test_no_repeat_returns_the_inputs(self, keys):
        keys = np.array(keys, dtype=np.int64)
        col = np.arange(keys.size, dtype=np.int64)
        out_keys, out_col = run_sum(keys, (col,))
        assert out_keys is keys and out_col is col
