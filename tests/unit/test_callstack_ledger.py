"""Unit tests for the attribution call stack and the bandwidth ledger."""

import numpy as np
import pytest

from repro.core.callstack import CallStack
from repro.core.ledger import BandwidthLedger


class TestCallStack:
    def test_main_image_attribution(self):
        cs = CallStack()
        cs.enter("main", "main")
        assert cs.current_kernel == "main"
        assert not cs.in_library
        cs.enter("fft1d", "main")
        assert cs.current_kernel == "fft1d"
        cs.on_ret()
        assert cs.current_kernel == "main"

    def test_library_frames_attribute_to_caller(self):
        cs = CallStack()
        cs.enter("main", "main")
        cs.enter("memcpy", "libc")
        assert cs.current_kernel == "main"   # lib frame inherits the kernel
        assert cs.in_library
        cs.on_ret()
        assert cs.current_kernel == "main"
        assert not cs.in_library

    def test_nested_library_calls(self):
        cs = CallStack()
        cs.enter("kern", "main")
        cs.enter("memcpy", "libc")
        cs.enter("memset", "libc")
        assert cs.current_kernel == "kern"
        assert cs.in_library
        cs.on_ret()
        cs.on_ret()
        assert cs.current_kernel == "kern"
        assert not cs.in_library

    def test_library_at_bottom_keeps_own_name(self):
        cs = CallStack()
        cs.enter("_start", "libc")
        assert cs.current_kernel == "_start"
        assert cs.in_library

    def test_underflow_is_tolerated(self):
        cs = CallStack()
        cs.on_ret()
        assert cs.underflows == 1
        assert cs.current_kernel is None

    def test_depth_bookkeeping(self):
        cs = CallStack()
        for i in range(5):
            cs.enter(f"f{i}", "main")
        assert cs.depth == 5
        assert cs.max_depth == 5
        for _ in range(5):
            cs.on_ret()
        assert cs.depth == 0
        assert cs.max_depth == 5
        assert cs.current_kernel is None

    def test_frames_snapshot(self):
        cs = CallStack()
        cs.enter("a", "main")
        cs.enter("b", "libc")
        assert cs.frames() == [("a", False), ("a", True)]


class TestBandwidthLedger:
    def test_slice_bucketing(self):
        led = BandwidthLedger(100)
        # instruction counts 1..100 -> slice 0; 101..200 -> slice 1
        led.accumulate("k", 0, 8, 0, 0, 0)
        led.accumulate("k", 0, 0, 8, 0, 0)
        led.accumulate("k", 1, 0, 0, 4, 0)
        assert led.slices_of("k") == {0: (8, 8, 0, 0), 1: (0, 0, 4, 0)}

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            BandwidthLedger(0)

    def test_series_dense_and_sparse(self):
        led = BandwidthLedger(50)
        led.accumulate("k", 0, 10, 0, 0, 0)
        led.accumulate("k", 3, 30, 0, 0, 0)
        led.accumulate("k", 3, 0, 0, 5, 0)
        s = led.series("k")
        assert list(s.slices) == [0, 3]
        assert list(s.read_incl) == [10, 30]
        dense = s.dense(5, write=False, include_stack=True)
        assert list(dense) == [10, 0, 0, 30, 0]

    def test_empty_series(self):
        led = BandwidthLedger(50)
        s = led.series("nothing")
        assert s.total(write=False, include_stack=True) == 0
        assert s.activity_span() == (-1, -1, 0)
        assert s.max_bandwidth(include_stack=True) == 0.0


class TestKernelSeries:
    def _series(self):
        led = BandwidthLedger(10)
        for sl, (ri, re, wi, we) in enumerate(
                [(20, 10, 10, 0), (0, 0, 0, 0), (40, 0, 0, 0)]):
            led.accumulate("k", sl, ri, re, wi, we)
        return led.series("k")

    def test_totals(self):
        s = self._series()
        assert s.total(write=False, include_stack=True) == 60
        assert s.total(write=False, include_stack=False) == 10
        assert s.total(write=True, include_stack=True) == 10

    def test_activity_span_skips_idle_slice(self):
        s = self._series()
        first, last, count = s.activity_span(include_stack=True)
        assert (first, last, count) == (0, 2, 2)

    def test_average_bandwidth_over_active_slices(self):
        s = self._series()
        # 60 read bytes over 2 active slices of 10 instructions
        assert s.average_bandwidth(write=False, include_stack=True) == 3.0
        assert s.average_bandwidth(write=True, include_stack=True) == 0.5

    def test_max_bandwidth(self):
        s = self._series()
        assert s.max_bandwidth(include_stack=True) == 4.0   # slice 2: 40/10
        assert s.max_bandwidth(include_stack=False) == 1.0  # slice 0: 10/10

    def test_bandwidth_array(self):
        s = self._series()
        np.testing.assert_allclose(
            s.bandwidth(write=False, include_stack=True), [2.0, 0.0, 4.0])

    def test_excluded_never_exceeds_included(self):
        s = self._series()
        assert (s.read_excl <= s.read_incl).all()
        assert (s.write_excl <= s.write_incl).all()


class TestPeakTiming:
    def _series(self):
        led = BandwidthLedger(10)
        led.accumulate("k", 0, 5, 0, 0, 0)
        led.accumulate("k", 4, 40, 0, 10, 0)
        led.accumulate("k", 9, 20, 0, 0, 0)
        return led.series("k")

    def test_peak_slice_and_value(self):
        s = self._series()
        slice_idx, value = s.peak()
        assert slice_idx == 4
        assert value == 5.0  # (40+10)/10

    def test_peak_matches_max_bandwidth(self):
        s = self._series()
        assert s.peak()[1] == s.max_bandwidth(include_stack=True)

    def test_peak_empty(self):
        led = BandwidthLedger(10)
        assert led.series("none").peak() == (-1, 0.0)
