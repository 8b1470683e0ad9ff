"""Phase detection tests (timeline partition + kernel clustering)."""

import pytest

from repro.core import (TQuadOptions, cluster_kernel_phases, detect_phases,
                        run_tquad)
from repro.core.ledger import BandwidthLedger
from repro.core.options import TQuadOptions as Opts
from repro.core.report import TQuadReport
from repro.minic import build_program


def synthetic_report(layout: dict[str, list[int]], *, interval: int = 100,
                     n_slices: int | None = None) -> TQuadReport:
    """Build a report where each kernel is active in the given slices."""
    led = BandwidthLedger(interval)
    for name, slices in layout.items():
        for s in slices:
            led.accumulate(name, s, 10, 0, 4, 0)
    total_slices = n_slices or (max(max(v) for v in layout.values()) + 1)
    return TQuadReport(ledger=led, options=Opts(slice_interval=interval),
                       total_instructions=total_slices * interval,
                       images={k: "main" for k in layout})


class TestTimelinePhases:
    def test_three_sequential_stages(self):
        rep = synthetic_report({
            "a": list(range(0, 10)),
            "b": list(range(10, 20)),
            "c": list(range(20, 30)),
        })
        pa = detect_phases(rep)
        assert len(pa) == 3
        spans = [(p.start_slice, p.end_slice) for p in pa]
        assert spans == [(0, 9), (10, 19), (20, 29)]
        assert [p.kernels[0].name for p in pa] == ["a", "b", "c"]

    def test_phases_are_a_partition(self):
        rep = synthetic_report({
            "a": list(range(0, 12)),
            "b": list(range(8, 25)),
            "c": list(range(25, 40)),
        })
        pa = detect_phases(rep)
        covered = []
        for p in pa.phases:
            covered.extend(range(p.start_slice, p.end_slice + 1))
        assert covered == sorted(set(covered))  # no overlaps

    def test_gap_bridging(self):
        # kernel a blinks (every other slice) — gap closing keeps one phase
        rep = synthetic_report({"a": list(range(0, 30, 2))})
        pa = detect_phases(rep, gap_window=2)
        assert len(pa) == 1

    def test_short_segment_absorbed(self):
        rep = synthetic_report({
            "a": list(range(0, 15)) + [16],   # one-slice blip
            "b": list(range(17, 30)),
        })
        pa = detect_phases(rep, min_phase_slices=3)
        assert len(pa) == 2

    def test_max_phases_cap(self):
        rep = synthetic_report({
            "a": list(range(0, 5)),
            "b": list(range(5, 10)),
            "c": list(range(10, 15)),
            "d": list(range(15, 20)),
        })
        pa = detect_phases(rep, max_phases=2)
        assert len(pa) <= 2

    def test_phase_of_slice(self):
        rep = synthetic_report({
            "a": list(range(0, 10)),
            "b": list(range(10, 20)),
        })
        pa = detect_phases(rep)
        assert pa.phase_of_slice(3).kernels[0].name == "a"
        assert pa.phase_of_slice(15).kernels[0].name == "b"
        assert pa.phase_of_slice(999) is None

    def test_aggregate_mbw_is_sum_of_maxima(self):
        rep = synthetic_report({"a": [0, 1], "b": [0, 1]})
        pa = detect_phases(rep)
        (phase,) = pa.phases
        assert phase.aggregate_mbw == pytest.approx(
            sum(k.max_bw_incl for k in phase.kernels))

    def test_format_table(self):
        rep = synthetic_report({"a": [0, 1, 2], "b": [3, 4, 5]})
        text = detect_phases(rep).format_table()
        assert "%span" in text and "aggMBW" in text


class TestKernelClusterPhases:
    def test_overlapping_spans_allowed(self):
        rep = synthetic_report({
            "dense": list(range(0, 40)),
            "sparse": list(range(0, 20, 5)),   # overlaps dense temporally
            "tail": list(range(40, 50)),
        })
        pa = cluster_kernel_phases(rep, coarsen_blocks=50,
                                   similarity_threshold=0.5)
        by_kernel = {k: p for p in pa for k in p.kernel_names()}
        assert by_kernel["dense"] is not by_kernel["sparse"]
        assert by_kernel["dense"] is not by_kernel["tail"]
        # sparse's phase is fully inside dense's span: overlap is preserved
        assert by_kernel["sparse"].start_slice >= by_kernel["dense"].start_slice
        assert by_kernel["sparse"].end_slice <= by_kernel["dense"].end_slice

    def test_coactive_kernels_cluster(self):
        rep = synthetic_report({
            "x": list(range(0, 30)),
            "y": list(range(0, 30)),
            "z": list(range(30, 60)),
        })
        pa = cluster_kernel_phases(rep, coarsen_blocks=60)
        assert len(pa) == 2
        first = pa.phases[0]
        assert set(first.kernel_names()) == {"x", "y"}

    def test_interleaved_kernels_cluster_after_coarsening(self):
        # x active on even slices, y on odd: disjoint fine sets, same blocks
        rep = synthetic_report({
            "x": list(range(0, 40, 2)),
            "y": list(range(1, 40, 2)),
        })
        fine = cluster_kernel_phases(rep, coarsen_blocks=10**9)
        coarse = cluster_kernel_phases(rep, coarsen_blocks=10)
        assert len(fine) == 2
        assert len(coarse) == 1

    def test_max_phases_forces_merging(self):
        rep = synthetic_report({
            "a": list(range(0, 10)),
            "b": list(range(20, 30)),
            "c": list(range(40, 50)),
        })
        pa = cluster_kernel_phases(rep, coarsen_blocks=60, max_phases=2)
        assert len(pa) == 2

    def test_phase_of_kernel(self):
        rep = synthetic_report({"a": [0, 1], "b": [10, 11]})
        pa = cluster_kernel_phases(rep, coarsen_blocks=12)
        assert pa.phase_of_kernel("a") is not None
        assert pa.phase_of_kernel("nope") is None

    def test_empty_report(self):
        led = BandwidthLedger(10)
        rep = TQuadReport(ledger=led, options=Opts(slice_interval=10),
                          total_instructions=0)
        pa = cluster_kernel_phases(rep)
        assert len(pa) == 0

    def test_format_table_mentions_slice_count(self):
        rep = synthetic_report({"a": [0, 1]})
        text = cluster_kernel_phases(rep).format_table()
        assert "time slices were measured in total" in text


class TestOnRealProgram:
    def test_pipeline_stage_order(self):
        src = """
        int a[128]; int b[128];
        int s1() { int i; for (i=0;i<128;i=i+1) { a[i]=i; } return 0; }
        int s2() { int i; int s=0; for (i=0;i<128;i=i+1) { b[i]=a[i]; s=s+b[i]; } return s; }
        int main() { s1(); return s2() & 63; }
        """
        rep = run_tquad(build_program(src),
                        options=TQuadOptions(slice_interval=300))
        pa = detect_phases(rep, kernels=["s1", "s2"])
        assert len(pa) == 2
        assert pa.phases[0].kernels[0].name == "s1"
        assert pa.phases[1].kernels[0].name == "s2"
