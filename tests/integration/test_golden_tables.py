"""Golden regression tests for the paper's tables and figures.

Each test regenerates one published artifact — Tables I–IV and the
Figure 6/7 bandwidth strips, all on the ``small`` WFS preset — and
compares it byte-for-byte against the frozen copy in ``tests/golden/``.
The profilers are deterministic, so any diff is a behaviour change, not
noise; in particular these pin the exact text the capture-replay and
sweep routes must also reproduce.

After an *intentional* output change, refresh the fixtures with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_tables.py \
        --update-golden

and commit the diff alongside the change that caused it.
"""

import pathlib

import pytest

from repro.analysis import bandwidth_strips
from repro.apps.wfs import SMALL, build_wfs_program, make_workspace
from repro.core import TQuadOptions, cluster_kernel_phases, run_tquad
from repro.gprofsim import run_gprof
from repro.pin import PinEngine
from repro.quad import QuadTool, instrumented_profile, rank_shifts

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"

#: The 21 kernels of the paper's Tables I–IV (same set as the benchmark
#: harness in ``benchmarks/conftest.py``).
PAPER_KERNELS = [
    "wav_store", "fft1d", "DelayLine_processChunk", "bitrev", "zeroRealVec",
    "AudioIo_setFrames", "perm", "cadd", "cmult", "Filter_process",
    "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
    "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
    "PrimarySource_deriveTP", "ldint",
]

#: Slice intervals matching the benchmark harness (fine = Table IV,
#: coarse = Figure 6, medium = Figure 7).
FINE_INTERVAL = 5000
COARSE_INTERVAL = 150_000
MEDIUM_INTERVAL = 37_500


def _check(name: str, text: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    blob = text + "\n"
    if update:
        path.write_text(blob)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with --update-golden")
    assert blob == path.read_text(), (
        f"{name} drifted from tests/golden/{name}; if the change is "
        f"intentional, refresh with --update-golden")


@pytest.fixture(scope="module")
def small_program():
    return build_wfs_program(SMALL)


@pytest.fixture(scope="module")
def flat(small_program):
    return run_gprof(small_program, fs=make_workspace(SMALL))


@pytest.fixture(scope="module")
def quad(small_program):
    engine = PinEngine(small_program, fs=make_workspace(SMALL))
    tool = QuadTool().attach(engine)
    engine.run()
    return tool.report()


def _tquad(program, interval):
    return run_tquad(program, fs=make_workspace(SMALL),
                     options=TQuadOptions(slice_interval=interval))


def test_table1_flat_profile(flat, update_golden):
    _check("table1_flat_profile.txt", flat.format_table(top=21),
           update_golden)


def test_table2_quad(quad, update_golden):
    _check("table2_quad.txt", quad.format_table(), update_golden)


def test_table3_instrumented(flat, quad, update_golden):
    inst = instrumented_profile(flat, quad)
    shifts = {s.kernel: s for s in rank_shifts(flat, inst)}
    lines = [f"{'kernel':<26}{'%time':>8}{'self s':>10}{'rank':>6}"
             f"{'trend':>7}"]
    for row in inst.rows[:12]:
        s = shifts.get(row.name)
        lines.append(f"{row.name:<26}{inst.percent(row.name):>8.2f}"
                     f"{inst.self_seconds(row.name):>10.4f}"
                     f"{inst.rank(row.name):>6}"
                     f"{(s.trend if s else '?'):>7}")
    _check("table3_instrumented.txt", "\n".join(lines), update_golden)


def test_table4_phases(small_program, update_golden):
    report = _tquad(small_program, FINE_INTERVAL)
    analysis = cluster_kernel_phases(report, kernels=PAPER_KERNELS,
                                     max_phases=5)
    _check("table4_phases.txt", analysis.format_table(), update_golden)


def test_fig6_read_bandwidth(small_program, update_golden):
    report = _tquad(small_program, COARSE_INTERVAL)
    kernels = report.top_kernels(10)
    names, mat = report.bandwidth_matrix(kernels, write=False,
                                         include_stack=True)
    text = bandwidth_strips(
        names, mat, interval=report.interval, width=100,
        title="Figure 6 analogue: read bandwidth incl. stack, top 10")
    _check("fig6_read_bandwidth.txt", text, update_golden)


def test_fig7_write_bandwidth(small_program, update_golden):
    report = _tquad(small_program, MEDIUM_INTERVAL)
    top10 = report.top_kernels(10)
    bottom = [k for k in PAPER_KERNELS
              if k in report.ledger.kernels() and k not in top10][:10]
    names, mat = report.bandwidth_matrix(bottom, write=True,
                                         include_stack=False)
    half = mat[:, :mat.shape[1] // 2]
    text = bandwidth_strips(
        names, half, interval=report.interval, width=100,
        title="Figure 7 analogue: write bandwidth excl. stack, "
              "last 10 kernels, first half")
    _check("fig7_write_bandwidth.txt", text, update_golden)
