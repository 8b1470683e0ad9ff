"""The persistent decoded-page sidecar (:mod:`repro.capture.pagecache`).

The contract: a path-backed capture gets a ``<file>.pages`` sidecar of
raw little-endian int64 page arrays on first open, every later open
mmaps it into zero-copy read-only views, and replays served from the
sidecar are byte-identical to cold decodes.  Invalid sidecars — corrupt,
truncated, or left behind by a different capture — are evicted and
rebuilt, never trusted.
"""

import io
import multiprocessing
import os
import zipfile

import numpy as np
import pytest

from repro import obs
from repro.capture import (CaptureReader, PageCacheError,
                           STREAM_TQUAD_READ, capture_run, load_sidecar,
                           replay_tquad, sidecar_path)
from repro.core import TQuadOptions
from repro.minic import build_program
from repro.serialize import tquad_to_json

APP = """
int a[48]; int b[48];
int produce() { int i; for (i = 0; i < 48; i = i + 1) { a[i] = i * 3; }
                return 0; }
int consume() { int i; int s = 0; for (i = 0; i < 48; i = i + 1)
                { s = s + a[i] + b[i]; } return s; }
int main() { produce(); return consume() & 15; }
"""

OTHER_APP = APP.replace("48", "32")


def _capture_file(tmp_path, source=APP, *, grain=50, name="run.capture"):
    program = build_program(source)
    path = tmp_path / name
    capture_run(program, str(path), tools=("tquad", "gprof", "quad"),
                options=TQuadOptions(slice_interval=grain))
    return path


def _touch_all(reader):
    for stream, info in sorted(reader.streams.items()):
        for index in range(info["pages"]):
            reader.page(stream, index, info["stride"])


def _total_pages(reader):
    return sum(info["pages"] for info in reader.streams.values())


class TestSidecarLifecycle:
    def test_first_open_builds_then_warm(self, tmp_path):
        path = _capture_file(tmp_path)
        sidecar = sidecar_path(path)
        assert not sidecar.exists()
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == "built"
            _touch_all(reader)
            assert reader.stats["decoded_pages"] == 0
            assert reader.stats["disk_cache_hits"] == _total_pages(reader)
        assert sidecar.exists()
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == "warm"
            _touch_all(reader)
            assert reader.stats["decoded_pages"] == 0

    def test_warm_replay_byte_identical_to_cold(self, tmp_path):
        path = _capture_file(tmp_path)
        opts = TQuadOptions(slice_interval=100)
        with CaptureReader(str(path), page_cache=False) as reader:
            cold = tquad_to_json(replay_tquad(reader, opts))
            assert reader.stats["decoded_pages"] > 0
        with CaptureReader(str(path)) as reader:       # builds the sidecar
            built = tquad_to_json(replay_tquad(reader, opts))
        with CaptureReader(str(path)) as reader:       # served warm
            warm = tquad_to_json(replay_tquad(reader, opts))
            assert reader.stats["decoded_pages"] == 0
            assert reader.stats["disk_cache_hits"] > 0
        assert cold == built == warm

    def test_pages_are_readonly_zero_copy_views(self, tmp_path):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)):
            pass                                       # build the sidecar
        with CaptureReader(str(path)) as reader:
            (stream, info), *_ = sorted(reader.streams.items())
            page = reader.page(stream, 0, info["stride"])
            assert not page.flags.writeable
            assert not page.flags.owndata              # mmap-backed view
            with pytest.raises(ValueError):
                page[0] = 0

    def test_page_cache_false_writes_no_sidecar(self, tmp_path):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path), page_cache=False) as reader:
            assert reader.page_cache_state == "off"
            _touch_all(reader)
        assert not sidecar_path(path).exists()

    def test_in_memory_capture_has_no_sidecar(self):
        program = build_program(APP)
        buf = io.BytesIO()
        capture_run(program, buf, tools=("tquad",),
                    options=TQuadOptions(slice_interval=50))
        buf.seek(0)
        with CaptureReader(buf) as reader:
            assert reader.page_cache_state == "off"

    def test_page_cache_true_needs_a_path(self):
        program = build_program(APP)
        buf = io.BytesIO()
        capture_run(program, buf, tools=("tquad",),
                    options=TQuadOptions(slice_interval=50))
        buf.seek(0)
        with pytest.raises(ValueError, match="path-backed"):
            CaptureReader(buf, page_cache=True)

    def test_format_stats_mentions_disk_hits(self, tmp_path):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)) as reader:
            _touch_all(reader)
            text = reader.format_stats()
        assert "pages decoded" in text
        assert "disk hits" in text
        assert "cache off" in text        # the in-memory cache
        with CaptureReader(str(path), cache_pages=True) as reader:
            assert "cache on" in reader.format_stats()


class TestInvalidation:
    @pytest.mark.parametrize("damage", [
        b"",                                   # empty file
        b"garbage",                            # no magic
        b"TQPAGES1" + b"\xff" * 32,            # absurd header length
        None,                                  # truncated (half the file)
    ])
    def test_damaged_sidecar_rebuilt(self, tmp_path, damage):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)):
            pass
        sidecar = sidecar_path(path)
        if damage is None:
            blob = sidecar.read_bytes()
            sidecar.write_bytes(blob[:len(blob) // 2])
        else:
            sidecar.write_bytes(damage)
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == "rebuilt"
            _touch_all(reader)
            assert reader.stats["decoded_pages"] == 0
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == "warm"

    def test_recapture_evicts_stale_sidecar(self, tmp_path):
        """A sidecar keyed to the old capture must not survive the
        capture file being rewritten for a different program."""
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)) as reader:
            old = tquad_to_json(replay_tquad(
                reader, TQuadOptions(slice_interval=50)))
        stale = sidecar_path(path).read_bytes()
        _capture_file(tmp_path, OTHER_APP)     # overwrite the capture
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == "rebuilt"
            new = tquad_to_json(replay_tquad(
                reader, TQuadOptions(slice_interval=50)))
        assert new != old
        assert sidecar_path(path).read_bytes() != stale

    def test_load_sidecar_rejects_wrong_digest(self, tmp_path):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)):
            pass
        with pytest.raises(PageCacheError, match="stale"):
            load_sidecar(sidecar_path(path), "0" * 64, {})

    def test_mapped_pages_miss_returns_none(self, tmp_path):
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)):
            pass
        with CaptureReader(str(path)) as reader:
            disk = reader._disk
            assert disk.get("no.such.stream", 0, 4) is None
            assert disk.get(STREAM_TQUAD_READ, 10 ** 6, 4) is None
            # stride mismatch must miss, not mis-shape
            assert disk.get(STREAM_TQUAD_READ, 0, 3) is None


def _forked_replay(path, queue):  # pragma: no cover - child process
    with CaptureReader(path) as reader:
        report = replay_tquad(reader, TQuadOptions(slice_interval=100))
        queue.put((os.getpid(), reader.page_cache_state,
                   reader.stats["decoded_pages"], tquad_to_json(report)))


class TestSharedMmap:
    def test_forked_workers_share_one_sidecar(self, tmp_path):
        """Two forked workers mmap the same sidecar concurrently and
        replay byte-identically, decoding nothing."""
        path = _capture_file(tmp_path)
        with CaptureReader(str(path)):                 # build once
            pass
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        workers = [ctx.Process(target=_forked_replay,
                               args=(str(path), queue))
                   for _ in range(2)]
        for w in workers:
            w.start()
        outcomes = [queue.get(timeout=60) for _ in workers]
        for w in workers:
            w.join(timeout=60)
            assert w.exitcode == 0
        (pid_a, state_a, decoded_a, json_a), \
            (pid_b, state_b, decoded_b, json_b) = outcomes
        assert pid_a != pid_b
        assert state_a == state_b == "warm"
        assert decoded_a == decoded_b == 0
        assert json_a == json_b

    def test_sidecar_raw_data_matches_decoded_pages(self, tmp_path):
        """The sidecar body is exactly the decoded pages, little-endian
        int64, in header order — no recompression, no framing."""
        path = _capture_file(tmp_path)
        with CaptureReader(str(path), page_cache=False) as cold, \
                CaptureReader(str(path)) as warm:
            for stream, info in sorted(cold.streams.items()):
                for index in range(info["pages"]):
                    a = cold.page(stream, index, info["stride"])
                    b = warm.page(stream, index, info["stride"])
                    assert a.dtype == b.dtype == np.dtype("<i8")
                    assert np.array_equal(a, b)


class TestReaderCounters:
    """A reader's ``stats`` and the page-member bytes it inflates are
    published as ``capture/*`` counters."""

    KEYS = ("decoded_pages", "page_cache_hits", "disk_cache_hits",
            "inflated_bytes")

    @classmethod
    def _counts(cls) -> dict[str, int]:
        counters = obs.TELEMETRY.counters
        return {k: counters.get(f"capture/{k}", 0) for k in cls.KEYS}

    @classmethod
    def _read(cls, path, **kw) -> tuple[dict, dict]:
        """``stats`` of a reader that touched every page twice, and the
        counter increments of its whole life."""
        before = cls._counts()
        with CaptureReader(str(path), **kw) as reader:
            _touch_all(reader)
            _touch_all(reader)
            stats = dict(reader.stats)
        after = cls._counts()
        return stats, {k: after[k] - before[k] for k in cls.KEYS}

    def test_counters_follow_stats_on_every_route(self, tmp_path):
        path = _capture_file(tmp_path)
        with zipfile.ZipFile(path) as zf:
            members = [i.file_size for i in zf.infolist()
                       if i.filename.startswith("pages/")]
        pages = len(members)

        stats, counted = self._read(path, page_cache=False)
        assert stats == {"decoded_pages": 2 * pages, "page_cache_hits": 0,
                         "disk_cache_hits": 0}
        assert counted == {**stats, "inflated_bytes": 2 * sum(members)}

        stats, counted = self._read(path, page_cache=False,
                                    cache_pages=True)
        assert stats == {"decoded_pages": pages, "page_cache_hits": pages,
                         "disk_cache_hits": 0}
        assert counted == {**stats, "inflated_bytes": sum(members)}

        # the sidecar build inflates every member once and decodes no
        # page on the reader's behalf; a warm open inflates nothing
        for inflated in (sum(members), 0):
            stats, counted = self._read(path)
            assert stats == {"decoded_pages": 0, "page_cache_hits": 0,
                             "disk_cache_hits": 2 * pages}
            assert counted == {**stats, "inflated_bytes": inflated}
