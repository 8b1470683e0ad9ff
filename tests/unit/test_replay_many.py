"""Fused multi-tool replay (:func:`repro.capture.replay.replay_many`).

The contract: one call streams the capture's pages once through every
requested tool reducer, and each report is byte-identical to what the
standalone ``replay_gprof`` / ``replay_quad`` / ``sweep_tquad`` entry
points produce.  tQUAD reports are checked against a live run instead
(one :class:`~repro.pin.PinEngine` with a ``TQuadTool`` per options):
``replay_tquad`` is itself a sweep-engine pass, so it is no independent
reference.
"""

import io

import pytest

from repro.capture import (CaptureReader, STREAM_TQUAD_READ,
                           STREAM_TQUAD_WRITE, capture_run, replay_gprof,
                           replay_many, replay_quad, replay_tquad)
from repro.core import TQuadOptions, TQuadTool
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.pin import PinEngine
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.sweep import SweepGrid, sweep_tquad

APP = """
int a[64]; int b[64];
int fill() { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i * 5; }
             return 0; }
int fold() { int i; int s = 0; for (i = 0; i < 64; i = i + 1)
             { b[i] = a[i] + s; s = s + a[i]; } return s; }
int main() { fill(); return fold() & 7; }
"""


@pytest.fixture(scope="module")
def capture():
    program = build_program(APP)
    buf = io.BytesIO()
    capture_run(program, buf, tools=("tquad", "gprof", "quad"),
                options=TQuadOptions(slice_interval=50))
    raw = buf.getvalue()

    def open_reader(**kw):
        return CaptureReader(io.BytesIO(raw), **kw)

    return open_reader


GRID = SweepGrid(intervals=(50, 100), stacks=(StackPolicy.BOTH,
                                              StackPolicy.EXCLUDE))


def live_reports(*options):
    """One live run of ``APP`` with a ``TQuadTool`` per options."""
    engine = PinEngine(build_program(APP))
    tools = [TQuadTool(opts).attach(engine) for opts in options]
    engine.run()
    return [tool.report() for tool in tools]


def live_json(*options):
    return [tquad_to_json(report) for report in live_reports(*options)]


class TestFusedEquality:
    def test_all_tools_byte_identical_to_standalone(self, capture):
        opts = TQuadOptions(slice_interval=100)
        with capture() as reader:
            bundle = replay_many(reader, options=opts, grid=GRID)
        (live,) = live_reports(opts)
        assert tquad_to_json(bundle.tquad) == tquad_to_json(live)
        assert bundle.tquad.format_table() == live.format_table()
        with capture() as reader:
            flat = replay_gprof(reader)
            assert flat_to_json(bundle.gprof) == flat_to_json(flat)
            assert (bundle.gprof.format_call_graph()
                    == flat.format_call_graph())
        with capture() as reader:
            assert quad_to_json(bundle.quad) == quad_to_json(
                replay_quad(reader))

    def test_sweep_cells_byte_identical_to_standalone(self, capture):
        with capture() as reader:
            fused = replay_many(reader, tools=("tquad",),
                                options=TQuadOptions(slice_interval=50),
                                grid=GRID).sweep
        with capture() as reader:
            standalone = sweep_tquad(reader, GRID)
        assert fused.grid == standalone.grid
        assert fused.grain == standalone.grain
        assert fused.total_instructions == standalone.total_instructions
        assert fused.stats["cells"] == standalone.stats["cells"]
        assert fused.stats["combos"] == standalone.stats["combos"]
        for (cell, report), (cell2, report2) in zip(fused, standalone):
            assert cell == cell2
            assert tquad_to_json(report) == tquad_to_json(report2)
        assert [tquad_to_json(r) for _, r in fused] == live_json(
            *(cell.options() for cell, _ in fused))

    def test_tquad_interval_outside_grid_still_fuses(self, capture):
        """The fused pass widens the grid with the tquad cell and then
        restricts the sweep back — the caller sees only their grid."""
        opts = TQuadOptions(slice_interval=200)     # not a grid interval
        with capture() as reader:
            bundle = replay_many(reader, options=opts, grid=GRID,
                                 tools=("tquad",))
        assert bundle.sweep.grid == GRID
        assert bundle.sweep.stats["cells"] == len(GRID.cells())
        assert 200 not in bundle.sweep.grid.intervals
        assert [tquad_to_json(bundle.tquad)] == live_json(opts)

    def test_kernel_filter_mismatch_rides_the_grid(self, capture):
        """A tquad kernel filter different from the grid's shapes only
        the report's options, so the report still rides the one sweep
        pass: every tQUAD page is decoded once, and both results match
        standalone."""
        opts = TQuadOptions(slice_interval=50, kernels=("fill",))
        with capture(page_cache=False) as reader:
            bundle = replay_many(reader, options=opts, grid=GRID,
                                 tools=("tquad",))
            assert reader.stats["decoded_pages"] == sum(
                reader.streams[s]["pages"]
                for s in (STREAM_TQUAD_READ, STREAM_TQUAD_WRITE))
        assert [tquad_to_json(bundle.tquad)] == live_json(opts)
        with capture() as reader:
            assert tquad_to_json(bundle.tquad) == tquad_to_json(
                replay_tquad(reader, opts))
        with capture() as reader:
            standalone = sweep_tquad(reader, GRID)
        for (cell, report), (_, report2) in zip(bundle.sweep, standalone):
            assert tquad_to_json(report) == tquad_to_json(report2)


class TestSelection:
    def test_grid_only(self, capture):
        with capture() as reader:
            bundle = replay_many(reader, tools=(), grid=GRID)
        assert bundle.sweep is not None
        assert bundle.tquad is None
        assert bundle.gprof is None
        assert bundle.quad is None

    def test_subset_of_tools(self, capture):
        with capture() as reader:
            bundle = replay_many(reader, tools=("gprof",))
        assert bundle.gprof is not None
        assert bundle.tquad is None and bundle.sweep is None

    def test_unknown_tool_rejected(self, capture):
        with capture() as reader:
            with pytest.raises(ValueError, match="unknown replay tools"):
                replay_many(reader, tools=("tquad", "wat"))

    def test_nothing_requested_rejected(self, capture):
        with capture() as reader:
            with pytest.raises(ValueError, match="at least one"):
                replay_many(reader, tools=())
