"""Property-based byte-identity of the bounded-memory streaming tier.

The exact streaming replay must serialise to *exactly* the bytes the
unbounded in-memory path produces, for any memory ceiling — with or
without the decoded-page sidecar.  The ceiling only moves *how* the
replay walks the pages (LRU window, carry compaction, disk spill), never
what it computes.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureReader, capture_run, replay_tquad
from repro.capture.streaming import MIN_MEM_LIMIT
from repro.core import TQuadOptions
from repro.minic import build_program
from repro.serialize import sweep_to_json, tquad_to_json
from repro.sweep import SweepGrid, sweep_tquad

from test_prop_capture import guest_programs

GRAIN = 50

#: Ceilings from the hard floor up to "effectively unbounded" for these
#: small guests — the identity must hold at every point in between.
mem_limits = st.integers(min_value=MIN_MEM_LIMIT, max_value=8 << 20)


def _serial_capture(program, path):
    capture_run(program, str(path), tools=("tquad",),
                options=TQuadOptions(slice_interval=GRAIN))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One fixed guest captured once, with unbounded baselines for
    replay and a sweep grid."""
    root = tmp_path_factory.mktemp("stream-prop")
    source = """
    int a[80]; int b[80];
    int fill() { int i; for (i = 0; i < 80; i = i + 1)
                 { a[i] = i * 3; } return 0; }
    int fold() { int i; int s = 0; for (i = 0; i < 80; i = i + 1)
                 { s = s + a[i]; b[i] = s; } return s; }
    int main() { fill(); fold(); return fold() & 63; }
    """
    program = build_program(source)
    serial = root / "serial.capture"
    _serial_capture(program, serial)
    grid = SweepGrid(intervals=(GRAIN, 2 * GRAIN, 4 * GRAIN))
    with CaptureReader(str(serial), page_cache=False) as reader:
        replay = tquad_to_json(replay_tquad(reader))
    with CaptureReader(str(serial), page_cache=False) as reader:
        sweep = sweep_to_json(sweep_tquad(reader, grid))
    return {"serial": serial, "grid": grid,
            "baselines": {"serial": replay, "serial.sweep": sweep}}


class TestStreamingByteIdentity:
    @given(limit=mem_limits, sidecar=st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_replay_identical_for_any_ceiling(self, corpus, limit,
                                              sidecar):
        with CaptureReader(str(corpus["serial"]),
                           page_cache=sidecar) as reader:
            bounded = replay_tquad(reader, mem_limit=limit)
        assert tquad_to_json(bounded) == corpus["baselines"]["serial"]

    @given(limit=mem_limits, sidecar=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_sweep_cells_identical_for_any_ceiling(self, corpus, limit,
                                                   sidecar):
        with CaptureReader(str(corpus["serial"]),
                           page_cache=sidecar) as reader:
            result = sweep_tquad(reader, corpus["grid"],
                                 mem_limit=limit)
        # cells must match byte-for-byte; stats legitimately differ
        # (they carry the streaming counters), so compare cell payloads
        import json

        base = json.loads(corpus["baselines"]["serial.sweep"])
        got = json.loads(sweep_to_json(result))
        assert got["cells"] == base["cells"]

    @given(source=guest_programs(), limit=mem_limits)
    @settings(max_examples=8, deadline=None)
    def test_random_guests_replay_identically(self, source, limit):
        program = build_program(source)
        buf = io.BytesIO()
        capture_run(program, buf, tools=("tquad",),
                    options=TQuadOptions(slice_interval=GRAIN))
        buf.seek(0)
        with CaptureReader(buf) as reader:
            base = tquad_to_json(replay_tquad(reader))
        buf.seek(0)
        with CaptureReader(buf) as reader:
            bounded = tquad_to_json(replay_tquad(reader,
                                                 mem_limit=limit))
        assert bounded == base


class TestApproxProperties:
    @given(rate=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_across_reopen(self, corpus, rate, seed):
        from repro.capture import approx_replay_tquad
        from repro.serialize import approx_to_json

        runs = []
        for _ in range(2):
            with CaptureReader(str(corpus["serial"]),
                               page_cache=False) as reader:
                runs.append(approx_to_json(approx_replay_tquad(
                    reader, rate=rate, seed=seed)))
        assert runs[0] == runs[1]
