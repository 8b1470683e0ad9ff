"""Unit tests for the batched sweep engine, its grid validation, the
reader page cache, the multipass interval validation, and the ``tquad
sweep`` CLI."""

import io
import json

import pytest

from repro.capture import (CaptureMismatchError, CaptureReader,
                           STREAM_TQUAD_READ, capture_run, replay_tquad)
from repro.cli import main
from repro.core import TQuadOptions, TQuadTool, profile_passes
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.pin import PinEngine
from repro.serialize import (sweep_from_json, sweep_to_json, tquad_to_json)
from repro.sweep import SweepGrid, sweep_tquad, validate_intervals

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
