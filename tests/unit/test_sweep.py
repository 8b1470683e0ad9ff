"""Unit tests for the batched sweep engine, its grid validation, the
reader page cache, the multipass interval validation, and the ``tquad
sweep`` CLI."""

import functools
import io
import json
import zipfile

import numpy as np
import pytest

from repro.capture import (CaptureFormatError, CaptureMismatchError,
                           CaptureReader, STREAM_TQUAD_READ,
                           STREAM_TQUAD_WRITE, capture_run, replay_tquad)
from repro.capture.format import decode_page, encode_page, page_name
from repro.cli import main
from repro.core import TQuadOptions, TQuadTool, profile_passes
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.obs import Telemetry
from repro.pin import PinEngine
from repro.serialize import (sweep_from_json, sweep_to_json, tquad_to_json)
from repro.sweep import SweepGrid, sweep_tquad, validate_intervals
from repro.testing.workloads import WorkloadSpec, generate_workload

APP = """
int srcb[32]; int dst[32];
int prep() { int i; for (i = 0; i < 32; i = i + 1) { srcb[i] = i; }
             return 0; }
int main() { int x; x = prep(); memcpy(dst, srcb, 128); return x; }
"""


def _capture(grain=50, **opts):
    program = build_program(APP)
    buf = io.BytesIO()
    capture_run(program, buf, tools=("tquad",),
                options=TQuadOptions(slice_interval=grain, **opts))
    buf.seek(0)
    return program, buf


class TestGridValidation:
    def test_empty_intervals_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepGrid(intervals=())

    @pytest.mark.parametrize("bad", [0, -5, 2.5])
    def test_non_positive_or_fractional_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            SweepGrid(intervals=(100, bad))

    def test_intervals_sorted_and_deduplicated(self):
        grid = SweepGrid(intervals=(400, 100, 400, 200))
        assert grid.intervals == (100, 200, 400)

    def test_axes_deduplicated(self):
        grid = SweepGrid(intervals=(100,),
                         stacks=(StackPolicy.BOTH, StackPolicy.BOTH),
                         library_modes=(True, True, False))
        assert grid.stacks == (StackPolicy.BOTH,)
        assert grid.library_modes == (True, False)
        assert len(grid) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            SweepGrid(intervals=(100,), stacks=())
        with pytest.raises(ValueError, match="library"):
            SweepGrid(intervals=(100,), library_modes=())

    def test_validate_intervals_helper(self):
        assert validate_intervals([300, 100]) == (100, 300)
        with pytest.raises(ValueError):
            validate_intervals([])


class TestMultipassValidation:
    def _build(self):
        return build_program(APP), None

    def test_empty_interval_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            profile_passes(self._build, [])

    @pytest.mark.parametrize("intervals", [[0], [100, -50]])
    def test_non_positive_interval_rejected(self, intervals):
        with pytest.raises(ValueError, match="positive"):
            profile_passes(self._build, intervals)


class TestReaderPageCache:
    def test_counters_without_cache(self):
        _, buf = _capture()
        with CaptureReader(buf) as reader:
            n = sum(1 for _ in reader.pages(STREAM_TQUAD_READ))
            assert reader.stats["decoded_pages"] == n
            list(reader.pages(STREAM_TQUAD_READ))
            assert reader.stats["decoded_pages"] == 2 * n
            assert reader.stats["page_cache_hits"] == 0
            assert "cache off" in reader.format_stats()

    def test_cache_serves_repeat_passes(self):
        _, buf = _capture()
        with CaptureReader(buf, cache_pages=True) as reader:
            first = list(reader.pages(STREAM_TQUAD_READ))
            n = len(first)
            again = list(reader.pages(STREAM_TQUAD_READ))
            assert reader.stats["decoded_pages"] == n
            assert reader.stats["page_cache_hits"] == n
            for a, b in zip(first, again):
                assert a is b           # shared, not re-decoded
                assert not a.flags.writeable
            assert "cache on" in reader.format_stats()

    def test_replays_share_one_decode(self):
        program, buf = _capture()
        with CaptureReader(buf, cache_pages=True) as reader:
            r1 = replay_tquad(reader, TQuadOptions(slice_interval=100))
            decoded_once = reader.stats["decoded_pages"]
            r2 = replay_tquad(reader, TQuadOptions(slice_interval=200))
            assert reader.stats["decoded_pages"] == decoded_once
            assert reader.stats["page_cache_hits"] > 0
        assert r1.total_bytes(write=False, include_stack=True) \
            == r2.total_bytes(write=False, include_stack=True)


class TestSweepEngine:
    def test_library_marked_cells_match_live_runs(self):
        # memcpy's accesses are library-marked rows in the capture: both
        # library views, under every stack policy, match a live run
        program, buf = _capture()
        grid = SweepGrid(intervals=(50, 100), stacks=tuple(StackPolicy),
                         library_modes=(False, True))
        with CaptureReader(buf) as reader:
            result = sweep_tquad(reader, grid)
        engine = PinEngine(program)
        tools = [TQuadTool(cell.options()).attach(engine)
                 for cell, _ in result]
        engine.run()
        for (cell, report), tool in zip(result, tools):
            assert tquad_to_json(report) == tquad_to_json(tool.report()), \
                f"cell {cell.key} diverges from the live run"

    def test_non_multiple_interval_rejected_before_reading(self):
        _, buf = _capture(grain=50)
        with CaptureReader(buf) as reader:
            with pytest.raises(CaptureMismatchError, match="multiple"):
                sweep_tquad(reader, SweepGrid(intervals=(75,)))
            assert reader.stats["decoded_pages"] == 0

    def test_dropped_library_capture_cannot_serve_include_view(self):
        _, buf = _capture(grain=50, exclude_libraries=True)
        with CaptureReader(buf) as reader:
            with pytest.raises(CaptureMismatchError, match="exclude-libs"):
                sweep_tquad(reader, SweepGrid(intervals=(100,),
                                              library_modes=(False,)))
            # but the exclude view itself sweeps fine
            result = sweep_tquad(reader, SweepGrid(intervals=(100,),
                                                   library_modes=(True,)))
            assert len(result) == 1

    def test_single_policy_capture_serves_only_itself(self):
        _, buf = _capture(grain=50, stack=StackPolicy.INCLUDE)
        with CaptureReader(buf) as reader:
            with pytest.raises(CaptureMismatchError, match="policy"):
                sweep_tquad(reader, SweepGrid(
                    intervals=(100,), stacks=(StackPolicy.EXCLUDE,)))

    def test_missing_cell_lookup_raises(self):
        _, buf = _capture()
        with CaptureReader(buf) as reader:
            result = sweep_tquad(reader, SweepGrid(intervals=(100,)))
        with pytest.raises(KeyError, match="not in this sweep"):
            result.report(250)

    def test_result_shape_and_stats(self):
        _, buf = _capture()
        grid = SweepGrid(intervals=(50, 100), library_modes=(False, True))
        with CaptureReader(buf) as reader:
            result = sweep_tquad(reader, grid)
        assert len(result) == 4
        assert result.grain == 50
        assert result.stats["cells"] == 4
        assert result.stats["pages_walked"] >= 1
        cells = [cell for cell, _ in result]
        assert cells == sorted(cells, key=lambda c: c.key)

    def test_exact_pass_buckets_one_row_per_run(self):
        """A capture of all three tools keeps every superblock in event
        mode, one row per access: one exact pass reads every page row
        and hands its accumulator one row per run of adjacent rows that
        share a (kernel, slice) key."""
        grain = 64
        program = build_program(generate_workload(WorkloadSpec(
            shape="pointer", seed=3, size=128, kernels=4, steps=2)))
        buf = io.BytesIO()
        capture_run(program, buf, tools=("tquad", "gprof", "quad"),
                    options=TQuadOptions(slice_interval=grain))
        buf.seek(0)
        rows = runs = 0
        tele = Telemetry()
        with CaptureReader(buf) as reader:
            for stream in (STREAM_TQUAD_READ, STREAM_TQUAD_WRITE):
                for page in reader.pages(stream):
                    rows += page.shape[0]
                    kept = page[page[:, 3] != -1]   # not dropped rows
                    kid = kept[:, 3]
                    key = np.stack((np.where(kid < -1, -2 - kid, kid),
                                    (kept[:, 0] - 1) // grain))
                    if kept.shape[0]:
                        runs += 1 + int(np.any(key[:, 1:] != key[:, :-1],
                                               axis=0).sum())
            replay_tquad(reader, telemetry=tele)
        assert tele.counters["sweep/runs"] == 1
        assert tele.counters["sweep/rows_read"] == rows
        assert tele.counters["sweep/rows_bucketed"] == runs
        assert 4 * runs < rows


#: ``frame`` touches only its own stack frame (addresses at or above SP),
#: so none of its rows carries exclusive bytes; ``memcpy``'s accesses are
#: library-marked rows of ``main``, the only ones of ``main`` with
#: exclusive bytes.
STACK_APP = """
int g[64]; int dst[64];
int frame() { int t[16]; int i; for (i = 0; i < 16; i = i + 1) { t[i] = i; }
              return t[5] + t[9]; }
int fill() { int i; for (i = 0; i < 64; i = i + 1) { g[i] = i; } return 0; }
int main() { int x; x = frame(); x = x + fill(); memcpy(dst, g, 256);
             x = x + frame(); return x; }
"""

#: The three forms of ``sweep_tquad``: unbounded, a ceiling small enough
#: to spill, and a sampled pass.
SWEEP_FORMS = {"default": {}, "spill": {"mem_limit": 512},
               "sample": {"sample": (0.5, 3)}}


class TestStackProjection:
    """An exclusive-only cell (``EXCLUDE`` from a ``BOTH`` capture) is a
    projection of its library mode's accumulated table: the folded rows
    whose read or write excl sum is nonzero."""

    GRID = SweepGrid(intervals=(50, 200), stacks=tuple(StackPolicy),
                     library_modes=(False, True))

    @pytest.fixture(scope="class")
    def raw(self):
        """A ``STACK_APP`` capture whose tQUAD streams span several
        pages (a 64-row sink cap)."""
        from repro.core import profiler
        from repro.core.recording import CapturingRecordingSink

        buf = io.BytesIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(profiler, "CapturingRecordingSink",
                       functools.partial(CapturingRecordingSink, cap=64))
            capture_run(build_program(STACK_APP), buf, tools=("tquad",),
                        options=TQuadOptions(slice_interval=50))
        return buf.getvalue()

    def _sweep(self, raw, grid, **form):
        with CaptureReader(io.BytesIO(raw)) as reader:
            return sweep_tquad(reader, grid, **form)

    def test_guest_has_the_edge_cases(self, raw):
        with CaptureReader(io.BytesIO(raw)) as reader:
            assert reader.streams[STREAM_TQUAD_READ]["pages"] > 2
            rows = np.concatenate([reader.column(STREAM_TQUAD_READ),
                                   reader.column(STREAM_TQUAD_WRITE)])
            frame = reader.manifest["kernels"].index("frame")
        assert (rows[:, 3] < -1).any()                  # library rows
        mine = rows[rows[:, 3] == frame]
        assert mine[:, 1].sum() > 0 and not mine[:, 2].any()
        result = self._sweep(raw, self.GRID)
        both = result.report(50).ledger.kernels()
        excl = result.report(50, StackPolicy.EXCLUDE).ledger.kernels()
        assert "frame" in both and "frame" not in excl
        assert "main" not in result.report(
            50, StackPolicy.EXCLUDE, True).ledger.kernels()

    def test_cells_match_live_runs(self, raw):
        result = self._sweep(raw, self.GRID)
        engine = PinEngine(build_program(STACK_APP))
        tools = [TQuadTool(cell.options()).attach(engine)
                 for cell, _ in result]
        engine.run()
        for (cell, report), tool in zip(result, tools):
            assert tquad_to_json(report) == tquad_to_json(tool.report()), \
                cell.key

    @pytest.mark.parametrize("form", sorted(SWEEP_FORMS))
    def test_cells_match_one_cell_sweeps(self, raw, form):
        result = self._sweep(raw, self.GRID, **SWEEP_FORMS[form])
        if form == "spill":
            assert result.stats["spilled_bytes"] > 0
        assert len(result) == 12
        for cell, report in result:
            alone = self._sweep(raw, SweepGrid(
                intervals=(cell.interval,), stacks=(cell.stack,),
                library_modes=(cell.exclude_libraries,)),
                **SWEEP_FORMS[form])
            assert tquad_to_json(report) == tquad_to_json(
                alone.report(cell.interval, cell.stack,
                             cell.exclude_libraries)), cell.key

    @pytest.mark.parametrize("exclude_libraries", [False, True])
    def test_sampled_excl_moments_are_the_library_modes(
            self, raw, exclude_libraries):
        """A sampled exclusive-only cell reads its library mode's excl
        moments, which the rows without exclusive bytes do not move, and
        no incl moment."""
        from repro.capture import approx_replay_tquad

        def approx(stack):
            with CaptureReader(io.BytesIO(raw)) as reader:
                return approx_replay_tquad(reader, TQuadOptions(
                    slice_interval=50, stack=stack,
                    exclude_libraries=exclude_libraries), rate=0.5, seed=3)

        both, excl = approx(StackPolicy.BOTH), approx(StackPolicy.EXCLUDE)
        assert both.totals["write_excl"] > 0
        for key in ("read_excl", "write_excl"):
            assert excl.totals[key] == both.totals[key]
            assert excl.rel_err_95[key] == both.rel_err_95[key]
        for key in ("read_incl", "write_incl"):
            assert excl.totals[key] == 0 and excl.rel_err_95[key] == 0.0

    def test_rows_bucketed_once_per_library_mode(self, raw):
        def bucketed(stacks):
            tele = Telemetry()
            with CaptureReader(io.BytesIO(raw)) as reader:
                sweep_tquad(reader, SweepGrid(
                    intervals=(50, 200), stacks=stacks,
                    library_modes=(False, True)), telemetry=tele)
            return tele.counters["sweep/rows_bucketed"]

        assert bucketed((StackPolicy.BOTH, StackPolicy.EXCLUDE)) \
            == bucketed((StackPolicy.BOTH,))

    @pytest.mark.parametrize("exclude_libraries", [False, True])
    def test_exclusive_only_mode_accumulates_exclusive_rows(
            self, raw, exclude_libraries):
        """A library mode whose every cell is exclusive-only accumulates
        only the rows with exclusive bytes: under the same ceiling its
        pass buckets fewer runs and spills nothing, and it reports what
        the projection of every row reports."""
        def excl_cell(stacks, **form):
            tele = Telemetry()
            with CaptureReader(io.BytesIO(raw)) as reader:
                result = sweep_tquad(reader, SweepGrid(
                    intervals=(50,), stacks=stacks,
                    library_modes=(exclude_libraries,)),
                    telemetry=tele, **form)
            return (tquad_to_json(result.report(50, StackPolicy.EXCLUDE,
                                                exclude_libraries)),
                    tele.counters["sweep/rows_bucketed"],
                    result.stats.get("spilled_bytes"))

        alone, runs, spilled = excl_cell((StackPolicy.EXCLUDE,),
                                         mem_limit=1024)
        projected, every_runs, every_spilled = excl_cell(
            (StackPolicy.BOTH, StackPolicy.EXCLUDE), mem_limit=1024)
        assert alone == projected == excl_cell((StackPolicy.EXCLUDE,))[0]
        assert runs < every_runs
        assert spilled == 0 < every_spilled

    @pytest.mark.parametrize("stream", [STREAM_TQUAD_READ,
                                        STREAM_TQUAD_WRITE])
    def test_negative_excl_bytes_fail(self, raw, stream):
        """The projection relies on byte counts never being negative: a
        row of negative excl bytes could cancel a key's positive ones."""
        src = zipfile.ZipFile(io.BytesIO(raw))
        rows = json.loads(src.read("manifest.json"))["streams"][
            stream]["page_rows"][1]
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as dst:
            for info in src.infolist():
                data = src.read(info)
                if info.filename == page_name(stream, 1):
                    page = decode_page(data, stream, rows).copy()
                    page[0, 2] = -8
                    data = encode_page(page.tobytes(), stream)
                dst.writestr(info, data)
        with pytest.raises(CaptureFormatError,
                           match=rf"{stream}\[1\]: a row of -8 bytes"):
            self._sweep(out.getvalue(), SweepGrid(
                intervals=(50,), stacks=(StackPolicy.BOTH,
                                         StackPolicy.EXCLUDE)))


class TestColumnarLedger:
    """A sweep cell's ledger: one chunk of (kernel, slice) rows, written
    in the manifest's kernel order and folded into the table on first
    read."""

    def _make(self):
        import numpy as np

        from repro.core.ledger import BandwidthLedger

        ledger = BandwidthLedger(50)
        # manifest order: beta owns slice 1, alpha slices 0 and 2
        ledger.add(["beta", "alpha"], np.array([0, 1, 1]),
                   np.array([1, 0, 2]),
                   np.array([[9, 10, 11, 12], [1, 2, 3, 4], [5, 6, 7, 8]]))
        return ledger

    EXPECT = {"alpha": {0: (1, 2, 3, 4), 2: (5, 6, 7, 8)},
              "beta": {1: (9, 10, 11, 12)}}

    def test_queries_see_the_materialised_dict(self):
        ledger = self._make()
        assert ledger.kernels() == ["alpha", "beta"]
        assert ledger.history == self.EXPECT
        series = ledger.series("alpha")
        assert series.slices.tolist() == [0, 2]
        assert series.total(write=False, include_stack=True) == 6
        # history is a view built on each read, not a second store
        ledger.history["alpha"].clear()
        assert ledger.history == self.EXPECT
        with pytest.raises(AttributeError):
            ledger.history = {}

    def test_reset_discards_pending_columns(self):
        ledger = self._make()
        ledger.reset()
        assert ledger.history == {}
        assert ledger.kernels() == []
        # a folded table is replaced, so views taken before stay valid
        ledger = self._make()
        series = ledger.series("beta")
        ledger.reset()
        assert ledger.series("beta").slices.size == 0
        assert series.slices.tolist() == [1]
        assert series.write_excl.tolist() == [12]

    def test_pickle_round_trip(self):
        import pickle

        pending = self._make()
        folded = self._make()
        folded.kernels()
        for ledger in (pending, folded):
            clone = pickle.loads(pickle.dumps(ledger))
            assert clone.interval == 50
            assert clone.history == self.EXPECT

    def test_empty_cell(self):
        import numpy as np

        from repro.core.ledger import BandwidthLedger

        ledger = BandwidthLedger(50)
        ledger.add([], np.empty(0, np.int64), np.empty(0, np.int64),
                   np.zeros((0, 4), np.int64))
        assert ledger.history == {}
        assert ledger.kernels() == []
        assert ledger.series("alpha").slices.size == 0


class TestSweepSerialization:
    def test_round_trip_preserves_every_cell(self):
        _, buf = _capture()
        grid = SweepGrid(intervals=(50, 200),
                         stacks=(StackPolicy.BOTH, StackPolicy.EXCLUDE),
                         library_modes=(False, True))
        with CaptureReader(buf) as reader:
            result = sweep_tquad(reader, grid)
        text = sweep_to_json(result)
        back = sweep_from_json(text)
        assert back.grid == result.grid
        assert back.total_instructions == result.total_instructions
        assert len(back) == len(result)
        for (ca, ra), (cb, rb) in zip(result, back):
            assert ca == cb
            assert tquad_to_json(ra) == tquad_to_json(rb)
        # canonical: re-serialising the round-tripped result is stable
        assert sweep_to_json(back) == text

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            sweep_from_json(json.dumps({"kind": "tquad"}))


class TestSweepCli:
    @pytest.fixture()
    def app(self, tmp_path):
        path = tmp_path / "app.mc"
        path.write_text(APP)
        return path

    def test_happy_path_prints_cells(self, app, capsys):
        rc = main(["sweep", str(app), "--intervals", "100,200",
                   "--stacks", "both,exclude", "--libs", "include,exclude"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 cells" in out
        assert "interval=200 stack=exclude libs=exclude" in out

    def test_json_artifact_round_trips(self, app, tmp_path, capsys):
        out = tmp_path / "grid.json"
        rc = main(["sweep", str(app), "--intervals", "100,400",
                   "--libs", "include,exclude", "--json", str(out)])
        assert rc == 0
        capsys.readouterr()
        result = sweep_from_json(out.read_text())
        assert len(result) == 4
        assert result.grid.intervals == (100, 400)

    def test_from_capture_matches_inline_capture(self, app, tmp_path,
                                                 capsys):
        cap = tmp_path / "app.capture"
        assert main(["sweep", str(app), "--intervals", "100,200",
                     "--capture-out", str(cap)]) == 0
        direct = capsys.readouterr().out
        assert main(["sweep", str(app), "--intervals", "100,200",
                     "--from-capture", str(cap)]) == 0
        assert capsys.readouterr().out == direct

    def test_stats_prints_reader_counters(self, app, capsys):
        rc = main(["sweep", str(app), "--intervals", "100", "--stats"])
        assert rc == 0
        assert "pages decoded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,needle", [
        (["--intervals", "abc"], "--intervals"),
        (["--intervals", "0"], "positive"),
        (["--intervals", ","], "interval"),
        (["--intervals", "100", "--stacks", "bogus"], "--stacks"),
        (["--intervals", "100", "--libs", "bogus"], "--libs"),
        (["--intervals", "100", "--from-capture", "a",
          "--capture-out", "b"], "mutually"),
    ])
    def test_usage_errors(self, app, capsys, argv, needle):
        rc = main(["sweep", str(app), *argv])
        assert rc == 2
        assert needle in capsys.readouterr().err

    def test_mismatched_capture_rejected(self, app, tmp_path, capsys):
        cap = tmp_path / "app.capture"
        assert main(["capture", "run", str(app), "--out", str(cap),
                     "--interval", "100"]) == 0
        capsys.readouterr()
        rc = main(["sweep", str(app), "--intervals", "150",
                   "--from-capture", str(cap)])
        assert rc == 2
        assert "multiple" in capsys.readouterr().err

    def test_profile_stats_with_from_capture(self, app, tmp_path, capsys):
        cap = tmp_path / "app.capture"
        assert main(["capture", "run", str(app), "--out", str(cap),
                     "--interval", "100", "--tools", "tquad"]) == 0
        capsys.readouterr()
        rc = main(["profile", str(app), "--interval", "100",
                   "--from-capture", str(cap), "--stats"])
        assert rc == 0
        assert "pages decoded" in capsys.readouterr().err
