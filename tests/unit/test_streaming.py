"""The bounded-memory replay tier: budgets, spill machinery, the
streaming cursor, the sampled approximate tier, and their CLI surface.

The load-bearing contracts:

* exact streaming replay (``--mem-limit``) is *byte-identical* to the
  unbounded in-memory path, even when carry state is forced to spill
  and k-way merge back from disk;
* spill scratch always disappears — on clean close, on exceptions, and
  (via :func:`cleanup_spill_dirs`) after a ``kill -9``-style death;
* the approximate tier (``--approx``) is deterministic for a fixed
  (capture, rate, seed) triple and ships its error bounds.
"""

import io
import json
import os

import numpy as np
import pytest

from repro.capture import (CaptureReader, MemBudget, SpillPool,
                           STREAM_TQUAD_READ, StreamingCursor,
                           approx_replay_tquad, capture_run,
                           cleanup_spill_dirs, merge_sorted_runs,
                           parse_mem_limit, replay_gprof, replay_quad,
                           replay_tquad, sample_mask)
from repro.capture.approx import CountMinSketch
from repro.capture.streaming import (MIN_MEM_LIMIT, SPILL_PREFIX,
                                     SortedTableAcc)
from repro.cli import main
from repro.core import TQuadOptions
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.obs import Telemetry
from repro.serialize import (approx_from_json, approx_to_json,
                             flat_to_json, quad_to_json, tquad_to_json)
from repro.sweep import SweepGrid, sweep_tquad

APP = """
int a[96]; int b[96];
int wr() { int i; for (i = 0; i < 96; i++) { a[i] = i * 7; } return 0; }
int rd() { int i; int s = 0; for (i = 0; i < 96; i++)
           { s += a[i] + b[i]; } return s; }
int mix() { int i; for (i = 0; i < 96; i++) { b[i] = a[95 - i]; }
            return 0; }
int main() { wr(); mix(); return rd() & 31; }
"""


def _capture(tmp_path=None, *, grain=100, tools=("tquad", "gprof", "quad")):
    """A small capture; BytesIO-backed unless a tmp_path is given."""
    program = build_program(APP)
    if tmp_path is None:
        target = io.BytesIO()
    else:
        target = str(tmp_path / "s.capture")
    capture_run(program, target, tools=tools,
                options=TQuadOptions(slice_interval=grain))
    if tmp_path is None:
        target.seek(0)
    return target


def _reader(source, **kw):
    if isinstance(source, io.BytesIO):
        source.seek(0)
    return CaptureReader(source, **kw)


# ------------------------------------------------------------ parse limit
class TestParseMemLimit:
    @pytest.mark.parametrize("text,expected", [
        ("65536", 65536), ("64K", 64 << 10), ("64k", 64 << 10),
        ("8M", 8 << 20), ("1G", 1 << 30), ("2MB", 2 << 20),
        (" 128K ", 128 << 10), (1 << 20, 1 << 20),
    ])
    def test_accepted(self, text, expected):
        assert parse_mem_limit(text) == expected

    def test_none_passes_through(self):
        assert parse_mem_limit(None) is None

    @pytest.mark.parametrize("text", ["", "fast", "64Q", "1.5M", "-1"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_mem_limit(text)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            parse_mem_limit(MIN_MEM_LIMIT - 1)
        assert parse_mem_limit(MIN_MEM_LIMIT) == MIN_MEM_LIMIT


# ----------------------------------------------------------------- budget
class TestMemBudget:
    def test_high_water_mark_and_over(self):
        b = MemBudget(100)
        b.charge(60)
        assert not b.over and b.peak == 60
        b.charge(60)
        assert b.over and b.peak == 120
        b.release(80)
        assert not b.over and b.resident == 40 and b.peak == 120

    def test_touch_moves_peak_not_resident(self):
        b = MemBudget(100)
        b.charge(10)
        b.touch(500)
        assert b.resident == 10 and b.peak == 510

    def test_unlimited_budget_never_over(self):
        b = MemBudget(None)
        b.charge(1 << 40)
        assert not b.over

    def test_publish_emits_gauges(self):
        tele = Telemetry()
        b = MemBudget(100)
        b.charge(70)
        b.note_spill(30)
        b.publish(tele)
        assert tele.gauges["stream/peak_resident_bytes"] == 70
        assert tele.gauges["stream/spill_bytes"] == 30
        assert b.spill_runs == 1


# -------------------------------------------------------------- spill pool
class TestSpillPool:
    def test_lazy_dir_and_cleanup(self):
        with SpillPool(MemBudget(1 << 20)) as pool:
            assert pool.path is None
            run = pool.write(np.zeros((4, 3), np.int64))
            assert pool.path is not None and os.path.exists(run)
            assert SPILL_PREFIX in run and str(os.getpid()) in run
        assert not os.path.exists(run)

    def test_exception_still_cleans_up(self):
        with pytest.raises(KeyboardInterrupt):
            with SpillPool() as pool:
                run = pool.write(np.zeros((2, 3), np.int64))
                raise KeyboardInterrupt
        assert not os.path.exists(run)

    def test_write_notes_spill_in_budget(self):
        budget = MemBudget(1 << 20)
        with SpillPool(budget) as pool:
            table = np.ones((8, 3), np.int64)
            pool.write(table)
            assert budget.spilled_bytes == table.nbytes
            assert budget.spill_runs == 1

    def test_cleanup_spill_dirs_sweeps_dead_pids(self, tmp_path):
        dead = (tmp_path / f"{SPILL_PREFIX}424242-abc")
        dead.mkdir()
        (dead / "run00000.npy").write_bytes(b"x")
        alive = (tmp_path / f"{SPILL_PREFIX}424243-def")
        alive.mkdir()
        removed = cleanup_spill_dirs([424242], tmp=str(tmp_path))
        assert [os.path.basename(p) for p in removed] == [dead.name]
        assert not dead.exists() and alive.exists()


# ------------------------------------------------------------------ merge
def _naive(tables):
    out = {}
    for t in tables:
        for k, i, x in np.asarray(t):
            acc = out.setdefault(int(k), [0, 0])
            acc[0] += int(i)
            acc[1] += int(x)
    keys = sorted(out)
    return (np.array(keys, np.int64),
            np.array([out[k][0] for k in keys], np.int64),
            np.array([out[k][1] for k in keys], np.int64))


class TestMergeSortedRuns:
    def test_matches_naive_merge_at_tiny_block_size(self):
        rng = np.random.default_rng(7)
        tables = []
        for _ in range(4):
            keys = np.sort(rng.integers(0, 40, size=rng.integers(1, 30)))
            vals = rng.integers(0, 100, size=(keys.size, 2))
            tables.append(np.column_stack(
                [keys, vals[:, 0], vals[:, 1]]).astype(np.int64))
        want = _naive(tables)
        for block in (1, 2, 3, 1 << 16):
            got = merge_sorted_runs(list(tables), block_rows=block)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_accepts_paths_and_arrays_mixed(self, tmp_path):
        a = np.array([[1, 10, 0], [5, 1, 2]], np.int64)
        b = np.array([[1, 5, 5], [9, 0, 1]], np.int64)
        path = tmp_path / "run.npy"
        np.save(path, a)
        keys, incl, excl = merge_sorted_runs([str(path), b], block_rows=1)
        np.testing.assert_array_equal(keys, [1, 5, 9])
        np.testing.assert_array_equal(incl, [15, 1, 0])
        np.testing.assert_array_equal(excl, [5, 2, 1])

    def test_empty_runs(self):
        keys, incl, excl = merge_sorted_runs([])
        assert keys.size == incl.size == excl.size == 0


class TestSortedTableAcc:
    def test_forced_spill_round_trips_exactly(self):
        rng = np.random.default_rng(3)
        budget = MemBudget(MIN_MEM_LIMIT)
        acc = SortedTableAcc(budget, compact_rows=16)
        want: dict[int, list[int]] = {}
        with SpillPool(budget) as pool:
            for _ in range(30):
                keys = rng.integers(0, 50, size=12).astype(np.int64)
                incl = rng.integers(0, 9, size=12).astype(np.int64)
                excl = rng.integers(0, 9, size=12).astype(np.int64)
                for k, i, x in zip(keys, incl, excl):
                    acc_e = want.setdefault(int(k), [0, 0])
                    acc_e[0] += int(i)
                    acc_e[1] += int(x)
                acc.add(keys, incl, excl)
                acc.spill(pool)        # force a run per batch
            assert len(acc.runs) > 1
            assert budget.spilled_bytes > 0
            keys, incl, excl = acc.finalize(block_rows=8)
        np.testing.assert_array_equal(keys, sorted(want))
        np.testing.assert_array_equal(incl, [want[k][0] for k in sorted(want)])
        np.testing.assert_array_equal(excl, [want[k][1] for k in sorted(want)])

    def test_compaction_is_amortised_when_keys_never_repeat(
            self, monkeypatch):
        # a sweep's per-slice rows bring new keys with every chunk, so
        # the carry grows with the rows added; regrouping it every
        # compact_rows rows would fold O(n**2 / compact_rows) rows
        from repro.capture import streaming

        folded = []
        real = streaming._compact

        def counting(chunks):
            folded.append(sum(c[0].size for c in chunks))
            return real(chunks)

        monkeypatch.setattr(streaming, "_compact", counting)
        acc = SortedTableAcc(MemBudget(), compact_rows=16)
        for i in range(256):
            keys = np.arange(16 * i, 16 * (i + 1), dtype=np.int64)
            acc.add(keys, keys + 1, keys + 2)
        keys, incl, excl = acc.finalize()
        np.testing.assert_array_equal(keys, np.arange(4096))
        np.testing.assert_array_equal(incl, keys + 1)
        np.testing.assert_array_equal(excl, keys + 2)
        # the carry doubles at each compaction: 16, 32, ..., 4096 rows
        assert folded == [16 << k for k in range(9)]


# -------------------------------------------------------- streaming cursor
class TestStreamingCursor:
    def test_yields_same_pages_as_reader(self):
        buf = _capture()
        with _reader(buf) as reader:
            plain = [p.copy() for p in reader.pages(STREAM_TQUAD_READ)]
        with _reader(buf) as reader:
            budget = MemBudget(MIN_MEM_LIMIT)
            cursor = StreamingCursor(reader, STREAM_TQUAD_READ,
                                     budget=budget)
            streamed = list(cursor)
        assert len(streamed) == len(plain)
        for a, b in zip(streamed, plain):
            np.testing.assert_array_equal(a, b)
        assert budget.peak > 0

    def test_pages_are_read_only(self):
        buf = _capture()
        with _reader(buf) as reader:
            page = next(iter(StreamingCursor(reader, STREAM_TQUAD_READ,
                                             budget=MemBudget())))
        with pytest.raises(ValueError):
            page[0, 0] = 1


# ------------------------------------------------------ streaming replays
class TestStreamingReplayByteIdentity:
    @pytest.mark.parametrize("limit", [MIN_MEM_LIMIT, 1 << 20])
    def test_replay_tquad(self, limit):
        buf = _capture()
        with _reader(buf) as reader:
            base = tquad_to_json(replay_tquad(reader))
        with _reader(buf) as reader:
            bounded = tquad_to_json(replay_tquad(reader, mem_limit=limit))
        assert bounded == base

    def test_replay_gprof_and_quad(self):
        buf = _capture()
        with _reader(buf) as reader:
            flat = flat_to_json(replay_gprof(reader))
            quad = quad_to_json(replay_quad(reader))
        with _reader(buf) as reader:
            assert flat_to_json(replay_gprof(
                reader, mem_limit=MIN_MEM_LIMIT)) == flat
        with _reader(buf) as reader:
            assert quad_to_json(replay_quad(
                reader, mem_limit=MIN_MEM_LIMIT)) == quad

    def test_sweep_reports_identical_and_stats_gated(self):
        buf = _capture(tools=("tquad",))
        grid = SweepGrid(intervals=(100, 200))
        with _reader(buf) as reader:
            base = sweep_tquad(reader, grid)
        with _reader(buf) as reader:
            bounded = sweep_tquad(reader, grid, mem_limit=MIN_MEM_LIMIT)
        for (cell, report), (_, brep) in zip(base, bounded):
            assert tquad_to_json(report) == tquad_to_json(brep)
        # streaming stats appear ONLY on the bounded run (golden safety)
        assert "peak_resident_bytes" not in base.stats
        assert bounded.stats["peak_resident_bytes"] > 0
        assert "spilled_bytes" in bounded.stats

    def test_publishes_stream_gauges(self):
        buf = _capture(tools=("tquad",))
        tele = Telemetry()
        with _reader(buf) as reader:
            replay_tquad(reader, mem_limit=MIN_MEM_LIMIT, telemetry=tele)
        assert tele.gauges["stream/peak_resident_bytes"] > 0
        assert "stream/spill_bytes" in tele.gauges


# ---------------------------------------------------------------- approx
class TestApproxReplay:
    def test_deterministic_for_fixed_seed(self):
        buf = _capture(tools=("tquad",))
        with _reader(buf) as reader:
            a = approx_to_json(approx_replay_tquad(reader, rate=0.4,
                                                   seed=11))
        with _reader(buf) as reader:
            b = approx_to_json(approx_replay_tquad(reader, rate=0.4,
                                                   seed=11))
        assert a == b

    def test_seed_changes_selection(self):
        buf = _capture(tools=("tquad",))
        with _reader(buf) as reader:
            a = approx_replay_tquad(reader, rate=0.4, seed=1)
        with _reader(buf) as reader:
            b = approx_replay_tquad(reader, rate=0.4, seed=2)
        assert a.rows_walked == b.rows_walked
        assert a.sampled_rows != b.sampled_rows \
            or approx_to_json(a) != approx_to_json(b)

    def test_estimates_carry_bounds_and_are_sane(self):
        buf = _capture(tools=("tquad",))
        with _reader(buf) as reader:
            exact = replay_tquad(reader)
        truth = {}
        for name in exact.kernels():
            for counters in exact.ledger.history[name].values():
                truth["read_incl"] = truth.get("read_incl", 0) + counters[0]
        with _reader(buf) as reader:
            est = approx_replay_tquad(reader, rate=0.5, seed=0)
        assert 0 < est.sampled_rows < est.rows_walked
        for key in ("read_incl", "read_excl", "write_incl", "write_excl"):
            assert key in est.totals and key in est.rel_err_95
            assert est.rel_err_95[key] >= 0.0
        # the sampled estimate lands within a few reported bounds of truth
        err = est.rel_err_95["read_incl"]
        assert abs(est.totals["read_incl"] - truth["read_incl"]) \
            <= max(3 * err * truth["read_incl"], 64)
        assert est.heavy_hitters, "kernels with traffic must rank"
        assert est.sketch["bound_bytes"] >= 0

    def test_rate_validated(self):
        buf = _capture(tools=("tquad",))
        with _reader(buf) as reader:
            for rate in (0.0, 1.0, -0.5, 2.0):
                with pytest.raises(ValueError):
                    approx_replay_tquad(reader, rate=rate)

    def test_json_round_trip(self):
        buf = _capture(tools=("tquad",))
        with _reader(buf) as reader:
            est = approx_replay_tquad(reader, rate=0.3, seed=4)
        text = approx_to_json(est)
        back = approx_from_json(text)
        assert approx_to_json(back) == text
        assert tquad_to_json(back.report) == tquad_to_json(est.report)


class TestSampledSweep:
    def test_cells_match_approx_replay(self):
        # memcpy's accesses are library-marked rows, so the two library
        # modes select different rows
        source = APP.replace("int main() { wr(); mix();",
                             "char buf[384];\n"
                             "int main() { wr(); memcpy(buf, a, 384); mix();")
        buf = io.BytesIO()
        capture_run(build_program(source), buf, tools=("tquad",),
                    options=TQuadOptions(slice_interval=100))
        grid = SweepGrid(intervals=(100, 200),
                         stacks=(StackPolicy.BOTH, StackPolicy.EXCLUDE),
                         library_modes=(False, True))
        with _reader(buf) as reader:
            result = sweep_tquad(reader, grid, sample=(0.4, 3))
        assert len(result) == 8
        for cell, report in result:
            with _reader(buf) as reader:
                est = approx_replay_tquad(reader, cell.options(), rate=0.4,
                                          seed=3)
            assert tquad_to_json(report) == tquad_to_json(est.report), \
                f"sampled cell {cell.key} diverges from the approx replay"
        assert result.stats["sampled_rows"] == est.sampled_rows
        assert result.stats["rows_walked"] == est.rows_walked

    def test_cli_writes_sample_stats(self, app, capture_file, tmp_path,
                                     capsys):
        dest = tmp_path / "grid.json"
        assert main(["sweep", str(app), "--intervals", "100,200",
                     "--from-capture", str(capture_file), "--approx", "0.5",
                     "--json", str(dest)]) == 0
        assert "  sampled: rate=0.5 seed=0 kept" in capsys.readouterr().out
        stats = json.loads(dest.read_text())["stats"]
        assert stats["sample_rate"] == 0.5 and stats["sample_seed"] == 0
        assert 0 < stats["sampled_rows"] < stats["rows_walked"]
        assert stats["rel_err_95"] >= 0.0


class TestSampleMask:
    def test_deterministic_and_keyed(self):
        a = sample_mask(1, 0, 3, 1000, 0.25)
        b = sample_mask(1, 0, 3, 1000, 0.25)
        np.testing.assert_array_equal(a, b)
        c = sample_mask(1, 1, 3, 1000, 0.25)
        assert not np.array_equal(a, c)

    def test_rate_controls_density(self):
        m = sample_mask(0, 0, 0, 20_000, 0.3)
        assert 0.25 < m.mean() < 0.35


class TestCountMinSketch:
    def test_never_underestimates(self):
        rng = np.random.default_rng(5)
        sketch = CountMinSketch(width=256, depth=4, seed=1)
        keys = rng.integers(0, 500, size=3000).astype(np.int64)
        weights = rng.integers(1, 50, size=3000).astype(np.int64)
        sketch.update(keys, weights)
        truth = np.zeros(500, np.int64)
        np.add.at(truth, keys, weights)
        est = sketch.query(np.arange(500, dtype=np.int64))
        assert (est >= truth).all()
        # and the classic bound holds for the vast majority of keys
        bound = sketch.epsilon * sketch.total
        ok = (est - truth <= bound).mean()
        assert ok > 0.95

    def test_width_rounds_to_power_of_two(self):
        assert CountMinSketch(width=1000).width == 1024
        assert CountMinSketch(width=1024).width == 1024


# -------------------------------------------------------------------- CLI
@pytest.fixture()
def app(tmp_path):
    path = tmp_path / "app.mc"
    path.write_text(APP)
    return path


@pytest.fixture()
def capture_file(app, tmp_path, capsys):
    path = tmp_path / "app.capture"
    rc = main(["capture", "run", str(app), "--out", str(path),
               "--interval", "100"])
    assert rc == 0
    capsys.readouterr()
    return path


class TestCliStreaming:
    def test_profile_mem_limit_output_identical(self, app, capture_file,
                                                capsys):
        assert main(["profile", str(app), "--from-capture",
                     str(capture_file), "--interval", "100"]) == 0
        base = capsys.readouterr().out
        assert main(["profile", str(app), "--from-capture",
                     str(capture_file), "--interval", "100",
                     "--mem-limit", "64K"]) == 0
        assert capsys.readouterr().out == base

    def test_profile_approx_prints_bounds(self, app, capture_file,
                                          capsys):
        assert main(["profile", str(app), "--from-capture",
                     str(capture_file), "--interval", "100",
                     "--approx", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "approx replay: rate=0.5" in out
        assert "@95%" in out

    def test_profile_approx_json_artifact(self, app, capture_file,
                                          tmp_path, capsys):
        dest = tmp_path / "a.json"
        assert main(["profile", str(app), "--from-capture",
                     str(capture_file), "--interval", "100",
                     "--approx", "0.5", "--json", str(dest)]) == 0
        capsys.readouterr()
        est = approx_from_json(dest.read_text())
        assert est.rate == 0.5

    def test_sweep_mem_limit_prints_streaming_line(self, app,
                                                   capture_file, capsys):
        assert main(["sweep", str(app), "--intervals", "100,200",
                     "--from-capture", str(capture_file),
                     "--mem-limit", "64K"]) == 0
        assert "streaming: peak resident" in capsys.readouterr().out

    def test_capture_info_estimate(self, capture_file, capsys):
        assert main(["capture", "info", str(capture_file),
                     "--estimate"]) == 0
        out = capsys.readouterr().out
        assert "uncompressed pages:" in out
        assert "projected peak replay memory" in out
        assert "--mem-limit" in out

    @pytest.mark.parametrize("argv,needle", [
        (["profile", "{app}", "--mem-limit", "1M"], "--mem-limit"),
        (["profile", "{app}", "--from-capture", "{cap}",
          "--mem-limit", "12"], "floor"),
        (["profile", "{app}", "--from-capture", "{cap}",
          "--mem-limit", "lots"], "--mem-limit"),
        (["profile", "{app}", "--from-capture", "{cap}",
          "--approx", "1.5"], "--approx"),
        (["profile", "{app}", "--approx", "0.5"], "--approx"),
        (["profile", "{app}", "--from-capture", "{cap}", "--tool",
          "gprof", "--approx", "0.5"], "--tool tquad"),
        (["sweep", "{app}", "--intervals", "100", "--from-capture",
          "{cap}", "--approx", "0"], "--approx"),
    ])
    def test_misuse_exits_2(self, app, capture_file, argv, needle,
                            capsys):
        argv = [a.format(app=app, cap=capture_file) for a in argv]
        assert main(argv) == 2
        assert needle in capsys.readouterr().err
