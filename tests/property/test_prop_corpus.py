"""Every corpus guest is one workload with four byte-identical routes.

For each guest the fleet covers, the same execution must be reproduced
exactly by four independent code paths:

1. serial instrumented run,
2. serial with the superblock JIT disabled,
3. replay from a recorded capture, and
4. the batched sweep engine reading the same capture.

Routes 1-2 reuse the differential-fuzzing harness
(:func:`tests.fuzz.test_fuzz_differential.assert_all_configs_agree`)
with a per-route fresh workspace; routes 3-4 replay a single capture and
must match route 1's artifacts byte-for-byte.
"""

import io

import pytest

from repro.apps.registry import GUEST_APPS
from repro.capture import (CaptureReader, capture_run, replay_gprof,
                           replay_quad, replay_tquad)
from repro.core import TQuadOptions
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.sweep import SweepGrid, sweep_tquad

from tests.fuzz.test_fuzz_differential import (INTERVAL,
                                               assert_all_configs_agree,
                                               fingerprint)

#: The guests under test: every registered app at its tiny preset.
GUESTS = sorted(GUEST_APPS)


def _program_and_fs_factory(name):
    app = GUEST_APPS[name]
    cfg = app.config("tiny")
    return app.build_program(cfg), (lambda: app.make_workspace(cfg))


@pytest.mark.parametrize("name", GUESTS)
def test_serial_jobs4_jitoff_agree(name):
    """Routes 1-2: the fuzz harness' differential property, on guests
    with real input workspaces.  (The name predates the removal of the
    sharded ``--jobs 4`` route it also checked.)"""
    program, fs_factory = _program_and_fs_factory(name)
    assert_all_configs_agree(program, fs_factory=fs_factory)


@pytest.mark.parametrize("name", GUESTS)
def test_capture_and_sweep_routes_agree(name):
    """Routes 3-4: capture once, then the vectorized replays and the
    sweep engine reproduce the direct run's artifacts exactly."""
    program, fs_factory = _program_and_fs_factory(name)
    reference = fingerprint(program, fs_factory=fs_factory)
    options = TQuadOptions(slice_interval=INTERVAL)

    target = io.BytesIO()
    capture_run(program, target, fs=fs_factory(), options=options,
                label=f"prop-{name}")
    target.seek(0)
    with CaptureReader(target) as reader:
        tq = replay_tquad(reader, options)
        assert tquad_to_json(tq) == reference[0]
        assert tq.format_table() == reference[1]
        quad = replay_quad(reader)
        assert quad_to_json(quad) == reference[2]
        assert quad.format_table() == reference[3]
        flat = replay_gprof(reader)
        assert flat_to_json(flat) == reference[4]
        assert flat.format_table() == reference[5]
        assert flat.format_call_graph() == reference[6]
        assert reader.manifest["exit_code"] == reference[7]
        assert reader.manifest["total_instructions"] == reference[8]

        # route 4: every cell of a sweep over the same capture matches a
        # standalone replay at that cell's options
        grid = SweepGrid(intervals=(INTERVAL, 4 * INTERVAL))
        sweep = sweep_tquad(reader, grid)
        matched_base = False
        for cell, report in sweep:
            standalone = replay_tquad(reader, cell.options())
            assert tquad_to_json(report) == tquad_to_json(standalone)
            if cell.interval == INTERVAL:
                assert tquad_to_json(report) == reference[0]
                matched_base = True
        assert matched_base, "sweep grid lost its base-interval cell"
