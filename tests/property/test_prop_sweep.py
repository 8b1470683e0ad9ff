"""Property-based byte-identity of the batched sweep engine.

Every cell of a sweep grid must serialise to *exactly* the bytes a live
run produces for the same options.  The sweep engine is also what
:func:`repro.capture.replay.replay_tquad` runs, so the oracle is
independent of it: one :class:`~repro.pin.PinEngine` execution with one
:class:`~repro.core.TQuadTool` per cell, no capture involved.  Holds
across random MiniC guests, random interval ladders, every stack policy,
and both library modes (including the exclude-libs view *derived* from
a library-marked capture).  The captures record tQUAD alone, whose
superblocks write one row per trace segment, or all three tools, which
keep every superblock in event mode (one row per access, summed run by
run before the accumulators see them); the accumulators run unbounded
or under a ceiling so small that they spill after every page.

Budget: 12 and 8 examples; the nightly job sets ``TQUAD_NIGHTLY=1`` for
120 and 80.
"""

import io
import os

from hypothesis import given, settings, strategies as st

from repro.capture import CaptureReader, capture_run
from repro.core import TQuadOptions, TQuadTool, run_tquad
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.pin import PinEngine
from repro.serialize import tquad_to_json
from repro.sweep import SweepGrid, sweep_tquad

from test_prop_capture import guest_programs

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
#: Examples of the grid property; two thirds of it for exclude-libs.
EXAMPLES = 120 if NIGHTLY else 12

#: The tool sets a capture records: tQUAD alone (agg-mode superblocks)
#: and all three tools (event mode).
TOOL_SETS = st.sampled_from([("tquad",), ("tquad", "gprof", "quad")])
#: One byte: every chunk an accumulator takes pushes the budget over
#: it, so the carry tables spill after every page that holds rows.
SPILL_LIMIT = 1
MEM_LIMITS = st.sampled_from([None, SPILL_LIMIT])


def live_reports(program, options):
    """One live run of ``program`` with a ``TQuadTool`` per options."""
    engine = PinEngine(program)
    tools = [TQuadTool(opts).attach(engine) for opts in options]
    engine.run()
    return [tool.report() for tool in tools]


def assert_cells_match_live(program, result):
    live = live_reports(program, [cell.options() for cell, _ in result])
    for (cell, report), direct in zip(result, live):
        assert tquad_to_json(report) == tquad_to_json(direct), \
            f"cell {cell.key} diverges from the live run"


@st.composite
def sweep_grids(draw, grain):
    """A random grid whose intervals are all multiples of ``grain``."""
    factors = draw(st.lists(st.integers(min_value=1, max_value=8),
                            min_size=1, max_size=4, unique=True))
    stacks = draw(st.lists(st.sampled_from(list(StackPolicy)),
                           min_size=1, max_size=3, unique=True))
    libs = draw(st.lists(st.booleans(), min_size=1, max_size=2,
                         unique=True))
    return SweepGrid(intervals=tuple(grain * f for f in factors),
                     stacks=tuple(stacks), library_modes=tuple(libs))


def sweep_capture(program, grain, tools, grid, mem_limit):
    """Capture ``program`` with ``tools`` at ``grain`` and sweep ``grid``
    from it under ``mem_limit``."""
    buf = io.BytesIO()
    capture_run(program, buf, tools=tools,
                options=TQuadOptions(slice_interval=grain))
    buf.seek(0)
    with CaptureReader(buf) as reader:
        result = sweep_tquad(reader, grid, mem_limit=mem_limit)
    if mem_limit is not None:
        assert result.stats["spill_runs"] > 0
    return result


class TestSweepMatchesReplay:
    @given(source=guest_programs(), grain=st.sampled_from([25, 50, 100]),
           tools=TOOL_SETS, mem_limit=MEM_LIMITS, data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_every_cell_is_byte_identical_to_standalone_replay(
            self, source, grain, tools, mem_limit, data):
        program = build_program(source)
        grid = data.draw(sweep_grids(grain))
        result = sweep_capture(program, grain, tools, grid, mem_limit)
        assert len(result) == len(grid)
        assert_cells_match_live(program, result)

    @given(source=guest_programs(), factor=st.integers(1, 4),
           tools=TOOL_SETS, mem_limit=MEM_LIMITS)
    @settings(max_examples=EXAMPLES * 2 // 3, deadline=None)
    def test_exclude_libs_cell_matches_direct_run(self, source, factor,
                                                  tools, mem_limit):
        # the library axis is *derived* (marked rows masked out); pin it
        # to a direct re-executing run with --exclude-libs, not just to
        # the replay path
        program = build_program(source)
        interval = 50 * factor
        grid = SweepGrid(intervals=(interval,), library_modes=(True,))
        result = sweep_capture(program, 50, tools, grid, mem_limit)
        direct = run_tquad(program, options=TQuadOptions(
            slice_interval=interval, exclude_libraries=True))
        cell_report = result.report(interval, exclude_libraries=True)
        assert tquad_to_json(cell_report) == tquad_to_json(direct)
