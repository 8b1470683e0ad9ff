"""Unit tests for the capture subsystem (:mod:`repro.capture`).

The contract under test is *byte-identity*: every report replayed from a
capture must serialise to exactly the bytes the direct (re-executing)
tool produces — same tables, same JSON — across slice intervals, stack
policies and stream layouts.
"""

import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro import obs
from repro.capture import (CaptureFormatError, CaptureMismatchError,
                           CaptureReader, CaptureWriter, STREAM_CALLS,
                           STREAM_QUAD, STREAM_TQUAD_READ,
                           STREAM_TQUAD_WRITE, capture_run, check_program,
                           make_manifest, program_digest, replay_gprof,
                           replay_many, replay_quad, replay_tquad,
                           sidecar_path)
from repro.capture.format import decode_page, encode_page, page_name
from repro.core import (MultiPassResult, TQuadOptions, TQuadTool,
                        profile_passes, run_tquad)
from repro.core.options import StackPolicy
from repro.core.recording import RecordingSink
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool, run_quad
from repro.quad.shadow import (ADDR_MASK, KID_SHIFT, TAIL_SHIFT,
                               PagedQuadSink)
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json

APP = """
int a[48]; int b[48];
int produce() { int i; for (i = 0; i < 48; i = i + 1) { a[i] = i * 3; }
                return 0; }
int transform() { int i; for (i = 0; i < 48; i = i + 1)
                  { b[i] = a[i] + a[47 - i]; } return 0; }
int consume() { int i; int s = 0; for (i = 0; i < 48; i = i + 1)
                { s = s + b[i]; } return s; }
int main() { produce(); transform(); return consume() & 15; }
"""


def _capture(source=APP, *, grain=50, tools=("tquad", "gprof", "quad"),
             **opt):
    program = build_program(source)
    buf = io.BytesIO()
    capture_run(program, buf, tools=tools,
                options=TQuadOptions(slice_interval=grain, **opt))
    buf.seek(0)
    return program, CaptureReader(buf)


class TestPageCodec:
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_roundtrip(self, stride):
        rng = np.random.default_rng(stride)
        arr = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                           size=(37, stride), dtype=np.int64)
        out = decode_page(encode_page(arr.tobytes(), stride), stride)
        assert np.array_equal(out, arr)

    def test_monotone_columns_compress_to_small_deltas(self):
        arr = np.arange(4000, dtype=np.int64).reshape(-1, 4)
        encoded = np.frombuffer(encode_page(arr.tobytes(), 4),
                                dtype=np.int64)
        assert encoded[4:].max() == 4  # constant per-row delta

    def test_torn_page_rejected(self):
        with pytest.raises(CaptureFormatError):
            decode_page(b"\x00" * 12, 2)


class TestWriterReader:
    def _manifest(self, **kw):
        base = dict(program_sha="ab" * 32, label="t", grain=10,
                    stack="both", exclude_libraries=False,
                    total_instructions=100, exit_code=0, images={},
                    kernels=[], mem_size=1 << 16)
        base.update(kw)
        return make_manifest(**base)

    def test_roundtrip(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        page = np.arange(40, dtype=np.int64).tobytes()
        w.add(STREAM_TQUAD_READ, page)
        w.add(STREAM_TQUAD_READ, page)
        w.finalize(self._manifest(tools=("tquad",)))
        buf.seek(0)
        with CaptureReader(buf) as r:
            assert r.streams[STREAM_TQUAD_READ]["pages"] == 2
            assert r.streams[STREAM_TQUAD_READ]["rows"] == 20
            col = r.column(STREAM_TQUAD_READ)
            assert col.shape == (20, 4)
            assert np.array_equal(col[:10].ravel(),
                                  np.arange(40, dtype=np.int64))

    def test_empty_pages_skipped(self):
        w = CaptureWriter(io.BytesIO())
        w.add(STREAM_CALLS, b"")
        assert w.stream_directory() == {}
        w.close()

    def test_unfinalized_capture_rejected(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        w.add(STREAM_CALLS, np.arange(4, dtype=np.int64).tobytes())
        w.close()  # no finalize -> no manifest
        buf.seek(0)
        with pytest.raises(CaptureFormatError, match="manifest"):
            CaptureReader(buf)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CaptureFormatError):
            CaptureReader(str(tmp_path / "nope.capture"))

    def test_not_a_zip_rejected(self, tmp_path):
        p = tmp_path / "junk.capture"
        p.write_bytes(b"this is not a capture at all")
        with pytest.raises(CaptureFormatError, match="not a capture"):
            CaptureReader(str(p))

    def test_wrong_kind_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json", json.dumps({"kind": "tarball",
                                                     "format": 1}))
        buf.seek(0)
        with pytest.raises(CaptureFormatError):
            CaptureReader(buf)

    def test_wrong_version_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json",
                        json.dumps({"kind": "capture", "format": 99,
                                    "streams": {}}))
        buf.seek(0)
        with pytest.raises(CaptureFormatError, match="version"):
            CaptureReader(buf)

    def test_corrupt_manifest_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json", "{not json")
        buf.seek(0)
        with pytest.raises(CaptureFormatError):
            CaptureReader(buf)

    def test_missing_stream_named_in_error(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        w.add(STREAM_CALLS, np.arange(4, dtype=np.int64).tobytes())
        w.finalize(self._manifest(tools=("gprof",)))
        buf.seek(0)
        with CaptureReader(buf) as r:
            with pytest.raises(CaptureMismatchError, match="calls"):
                r.require_stream(STREAM_QUAD)


class TestReplayEquality:
    def test_tquad_at_grain_and_multiples(self):
        program, reader = self._cached()
        with reader:
            for interval in (50, 100, 250, 500):
                direct = run_tquad(program, options=TQuadOptions(
                    slice_interval=interval))
                replay = replay_tquad(reader, TQuadOptions(
                    slice_interval=interval))
                assert tquad_to_json(replay) == tquad_to_json(direct)

    def test_derived_stack_policies(self):
        program, reader = self._cached()
        with reader:
            for policy in (StackPolicy.INCLUDE, StackPolicy.EXCLUDE):
                opts = TQuadOptions(slice_interval=100, stack=policy)
                direct = run_tquad(program, options=opts)
                replay = replay_tquad(reader, opts)
                assert tquad_to_json(replay) == tquad_to_json(direct)

    def test_gprof(self):
        program, reader = self._cached()
        with reader:
            direct = run_gprof(program)
            replay = replay_gprof(reader)
            assert flat_to_json(replay) == flat_to_json(direct)
            assert replay.format_call_graph() == direct.format_call_graph()

    def test_quad(self):
        program, reader = self._cached()
        with reader:
            direct = run_quad(program)
            replay = replay_quad(reader)
            assert quad_to_json(replay) == quad_to_json(direct)
            assert replay.format_table() == direct.format_table()
            assert replay.shadow_stats is not None

    def test_exclude_libraries_variant(self):
        program, reader = _capture(grain=100, exclude_libraries=True)
        with reader:
            opts = TQuadOptions(slice_interval=200, exclude_libraries=True)
            direct = run_tquad(program, options=opts)
            assert tquad_to_json(replay_tquad(reader, opts)) \
                == tquad_to_json(direct)
            with pytest.raises(CaptureMismatchError, match="librar"):
                replay_tquad(reader, TQuadOptions(slice_interval=200))

    _cache = None

    @classmethod
    def _cached(cls):
        # one VM execution feeds every equality test in the class
        program = build_program(APP)
        if cls._cache is None:
            buf = io.BytesIO()
            capture_run(program, buf,
                        options=TQuadOptions(slice_interval=50))
            cls._cache = buf.getvalue()
        return program, CaptureReader(io.BytesIO(cls._cache))


class TestReplayValidation:
    def test_wrong_program_rejected(self):
        _, reader = _capture(grain=100, tools=("tquad",))
        other = build_program("int main() { return 0; }")
        with reader:
            with pytest.raises(CaptureMismatchError, match="different"):
                check_program(reader.manifest, other)

    def test_non_multiple_interval_rejected(self):
        _, reader = _capture(grain=100, tools=("tquad",))
        with reader:
            with pytest.raises(CaptureMismatchError, match="multiple"):
                replay_tquad(reader, TQuadOptions(slice_interval=150))

    def test_missing_tool_stream_rejected(self):
        _, reader = _capture(grain=100, tools=("gprof",))
        with reader:
            with pytest.raises(CaptureMismatchError, match="tquad"):
                replay_tquad(reader, TQuadOptions(slice_interval=100))
            with pytest.raises(CaptureMismatchError, match="quad"):
                replay_quad(reader)

    def test_single_policy_capture_replays_itself_only(self):
        program, reader = _capture(grain=100, stack=StackPolicy.EXCLUDE,
                                   tools=("tquad",))
        with reader:
            opts = TQuadOptions(slice_interval=100,
                                stack=StackPolicy.EXCLUDE)
            direct = run_tquad(program, options=opts)
            assert tquad_to_json(replay_tquad(reader, opts)) \
                == tquad_to_json(direct)
            with pytest.raises(CaptureMismatchError, match="stack"):
                replay_tquad(reader, TQuadOptions(slice_interval=100))

    def test_program_digest_is_content_sensitive(self):
        p1 = build_program(APP)
        p2 = build_program(APP.replace("i * 3", "i * 4"))
        assert program_digest(p1) == program_digest(build_program(APP))
        assert program_digest(p1) != program_digest(p2)


def _edit_manifest(raw: bytes, edit) -> bytes:
    """The capture ``raw`` with its manifest passed through ``edit``;
    pages are copied untouched."""
    src = zipfile.ZipFile(io.BytesIO(raw))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "manifest.json":
                manifest = json.loads(data)
                edit(manifest)
                data = json.dumps(manifest).encode()
            dst.writestr(info, data)
    return out.getvalue()


#: Manifest edits that leave captured rows the manifest cannot place,
#: with the tool whose streams they break: tQUAD instructions beyond the
#: (lowered) run length, which would key into the next kernel's slices;
#: kernel or routine ids past a shortened table; QUAD accesses past a
#: lowered ``mem_size``, which would alias the UnMA bitmaps' planes.
HOSTILE = {
    "total-60": ("tquad", lambda m: m.update(
        total_instructions=m["total_instructions"] - 60)),
    "total/2": ("tquad", lambda m: m.update(
        total_instructions=m["total_instructions"] // 2)),
    "kernel-dropped": ("tquad", lambda m: m["kernels"].pop(0)),
    "quad-kernel-dropped": ("quad", lambda m: m["quad_kernels"].pop()),
    "mem-size-1M": ("quad", lambda m: m.update(mem_size=1 << 20)),
    "routine-dropped": ("gprof", lambda m: m["routines"].pop()),
}

#: Manifest edits that repeat an entry of a name table, so that the rows
#: of kernel (or routine) 2 would be charged to entry 1's name.
REPEATED = {
    "kernel-repeated": ("tquad", lambda m: m["kernels"].__setitem__(
        2, m["kernels"][1])),
    "routine-repeated": ("gprof", lambda m: m["routines"].__setitem__(
        2, m["routines"][1])),
}

#: Edits of the ``tquad.read`` stream directory that misstate the pages
#: the archive holds.  Readers and the sidecar builder size every page
#: from ``stride``/``pages``/``rows``.
STREAM_DIRECTORY = {
    "stride-0": lambda s: s.update(stride=0),
    "stride-2": lambda s: s.update(stride=2),
    "stride-dropped": lambda s: s.pop("stride"),
    "pages-0": lambda s: s.update(pages=0),
    "pages-negative": lambda s: s.update(pages=-1),
    "pages+1": lambda s: s.update(pages=s["pages"] + 1),
    "rows+1": lambda s: s.update(rows=s["rows"] + 1),
}


def _edit_stream(mutation):
    edit = STREAM_DIRECTORY[mutation]
    return lambda m: edit(m["streams"][STREAM_TQUAD_READ])


class TestHostileManifest:
    """A manifest that disagrees with its pages fails with
    :class:`CaptureFormatError` (CLI exit 2) from every route of the tool
    it breaks, never a raw ``IndexError``/``ValueError``, bytes moved
    between kernels or miscounted UnMA."""

    @pytest.fixture(scope="class")
    def raw(self):
        buf = io.BytesIO()
        capture_run(build_program(APP), buf,
                    tools=("tquad", "gprof", "quad"),
                    options=TQuadOptions(slice_interval=50))
        raw = buf.getvalue()
        with CaptureReader(io.BytesIO(raw)) as reader:
            manifest = reader.manifest
            kids = np.concatenate(
                [reader.column(STREAM_TQUAD_READ)[:, 3],
                 reader.column(STREAM_TQUAD_WRITE)[:, 3]])
            # the mutations bite: the last table entry owns rows ...
            assert int(kids.max()) == len(manifest["kernels"]) - 1
            rids = reader.column(STREAM_CALLS)[:, 1]
            assert int(rids.max()) == len(manifest["routines"]) - 1
            recs = reader.column(STREAM_QUAD).ravel()
            recs = recs[recs >= 0]            # drop the SP markers
            assert (int(recs.max()) >> KID_SHIFT
                    == len(manifest["quad_kernels"]))
            # ... and the stack sits above 1 MiB
            assert int((recs & ADDR_MASK).max()) > 1 << 20
        return raw

    @staticmethod
    def _routes(tool):
        from repro.capture import approx_replay_tquad
        from repro.sweep import SweepGrid, sweep_tquad

        routes = {
            "tquad": {
                "replay_tquad": lambda r: replay_tquad(r),
                "sweep_tquad": lambda r: sweep_tquad(
                    r, SweepGrid(intervals=(50, 100))),
                "approx_replay_tquad": lambda r: approx_replay_tquad(
                    r, rate=0.5),
            },
            "quad": {"replay_quad": lambda r: replay_quad(r)},
            "gprof": {"replay_gprof": lambda r: replay_gprof(r)},
        }[tool]
        # the fused pass, streaming pages under a memory ceiling
        routes["replay_many"] = lambda r: replay_many(
            r, tools=(tool,), mem_limit=1 << 20)
        return routes

    @pytest.mark.parametrize("mutation", sorted(HOSTILE))
    def test_every_route_raises_format_error(self, raw, mutation):
        tool, edit = HOSTILE[mutation]
        bad = _edit_manifest(raw, edit)
        for name, route in self._routes(tool).items():
            with CaptureReader(io.BytesIO(bad)) as reader:
                with pytest.raises(CaptureFormatError, match="corrupt"):
                    route(reader)

    @pytest.mark.parametrize("mutation", sorted(HOSTILE))
    def test_cli_exits_2(self, raw, mutation, tmp_path, capsys):
        from repro.cli import main

        tool, edit = HOSTILE[mutation]
        app = tmp_path / "app.mc"
        app.write_text(APP)
        cap = tmp_path / "bad.capture"
        cap.write_bytes(_edit_manifest(raw, edit))
        assert main(["profile", str(app), "--from-capture", str(cap),
                     "--interval", "50", "--tool", tool]) == 2
        assert "corrupt capture page" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation", sorted(REPEATED))
    def test_repeated_table_entry_rejected_on_every_route(self, raw,
                                                          mutation,
                                                          tmp_path):
        """A repeated name fails at open, before any page is read: a
        path-backed capture gets no sidecar."""
        tool, edit = REPEATED[mutation]
        bad = _edit_manifest(raw, edit)
        for name, route in self._routes(tool).items():
            with pytest.raises(CaptureFormatError,
                               match="^corrupt capture"):
                with CaptureReader(io.BytesIO(bad)) as reader:
                    route(reader)
        path = tmp_path / "bad.capture"
        path.write_bytes(bad)
        with pytest.raises(CaptureFormatError, match="^corrupt capture"):
            CaptureReader(str(path))
        assert not sidecar_path(path).exists()

    @pytest.mark.parametrize("mutation", sorted(REPEATED))
    def test_repeated_table_entry_cli_exits_2(self, raw, mutation,
                                              tmp_path, capsys):
        from repro.cli import main

        tool, edit = REPEATED[mutation]
        app = tmp_path / "app.mc"
        app.write_text(APP)
        cap = tmp_path / "bad.capture"
        cap.write_bytes(_edit_manifest(raw, edit))
        assert main(["profile", str(app), "--from-capture", str(cap),
                     "--interval", "50", "--tool", tool]) == 2
        assert "corrupt capture manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation", sorted(STREAM_DIRECTORY))
    def test_stream_directory_rejected_on_every_route(self, raw, mutation,
                                                      tmp_path):
        """A stream directory the archive contradicts fails at open,
        before any page is read: a path-backed capture gets no
        sidecar."""
        bad = _edit_manifest(raw, _edit_stream(mutation))
        for name, route in self._routes("tquad").items():
            with pytest.raises(CaptureFormatError,
                               match="^corrupt capture manifest"):
                with CaptureReader(io.BytesIO(bad)) as reader:
                    route(reader)
        path = tmp_path / "bad.capture"
        path.write_bytes(bad)
        with pytest.raises(CaptureFormatError,
                           match="^corrupt capture manifest"):
            CaptureReader(str(path))
        assert not sidecar_path(path).exists()

    @pytest.mark.parametrize("mutation", sorted(STREAM_DIRECTORY))
    def test_stream_directory_cli_exits_2(self, raw, mutation, tmp_path,
                                          capsys):
        from repro.cli import main

        app = tmp_path / "app.mc"
        app.write_text(APP)
        cap = tmp_path / "bad.capture"
        cap.write_bytes(_edit_manifest(raw, _edit_stream(mutation)))
        assert main(["profile", str(app), "--from-capture", str(cap),
                     "--interval", "50"]) == 2
        assert main(["capture", "info", str(cap), "--stats"]) == 2
        assert "corrupt capture manifest" in capsys.readouterr().err
        assert not sidecar_path(cap).exists()

    @pytest.mark.parametrize("mem_size", [0, (1 << 37) + 8])
    def test_mem_size_outside_address_width(self, raw, mem_size):
        """Every access is checked against ``mem_size``: a value the
        record's address field cannot reach is rejected before any page
        is read."""
        bad = _edit_manifest(raw, lambda m: m.update(mem_size=mem_size))
        with CaptureReader(io.BytesIO(bad)) as reader:
            with pytest.raises(CaptureFormatError, match="mem_size"):
                replay_quad(reader)


def _edit_page(raw: bytes, stream: str, edit) -> bytes:
    """The capture ``raw`` with the rows of the first page of ``stream``
    passed through ``edit`` (in place, as a ``(rows, stride)`` array);
    everything else is copied untouched."""
    src = zipfile.ZipFile(io.BytesIO(raw))
    stride = json.loads(src.read("manifest.json"))["streams"][
        stream]["stride"]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == page_name(stream, 0):
                rows = decode_page(data, stride).copy()
                edit(rows)
                data = encode_page(rows.tobytes(), stride)
            dst.writestr(info, data)
    return out.getvalue()


def _edit_quad_page(raw: bytes, edit) -> bytes:
    """:func:`_edit_page` of the first ``quad.raw`` page, as one flat
    array of packed records."""
    return _edit_page(raw, STREAM_QUAD, lambda rows: edit(rows.ravel()))


def _first_read(rows) -> int:
    """Index of the first access record (not an SP marker) that reads."""
    return int(np.flatnonzero((rows >= 0)
                              & ((rows >> TAIL_SHIFT) & 1 == 0))[0])


@pytest.fixture(scope="module")
def quad_raw():
    buf = io.BytesIO()
    capture_run(build_program(APP), buf, tools=("quad",))
    return buf.getvalue()


class TestHostileQuadPage:
    """A ``quad.raw`` record the ISA cannot have written fails with
    :class:`CaptureFormatError` (CLI exit 2) on every QUAD route, never a
    report built from its fields."""

    @pytest.mark.parametrize("size", [0, 3, 16, 31])
    def test_access_size_outside_the_isa(self, quad_raw, size, tmp_path,
                                         capsys):
        from repro.cli import main

        def edit(rows):
            i = _first_read(rows)
            rows[i] = (rows[i] & ~(31 << (TAIL_SHIFT + 1))
                       | size << (TAIL_SHIFT + 1))

        bad = _edit_quad_page(quad_raw, edit)
        routes = (replay_quad,
                  lambda r: replay_many(r, tools=("quad",)),
                  lambda r: replay_many(r, tools=("quad",),
                                        mem_limit=1 << 20))
        for route in routes:
            with CaptureReader(io.BytesIO(bad)) as reader:
                with pytest.raises(CaptureFormatError,
                                   match=f"access of {size} bytes"):
                    route(reader)
        app = tmp_path / "app.mc"
        app.write_text(APP)
        cap = tmp_path / "bad.capture"
        cap.write_bytes(bad)
        assert main(["profile", str(app), "--from-capture", str(cap),
                     "--tool", "quad"]) == 2
        assert "corrupt capture page" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tquad_raw():
    buf = io.BytesIO()
    capture_run(build_program(APP), buf, tools=("tquad",),
                options=TQuadOptions(slice_interval=50))
    return buf.getvalue()


class TestHostileTQuadPage:
    """A ``tquad.read`` row no recording sink writes fails with
    :class:`CaptureFormatError` (CLI exit 2) on every tQUAD route, never
    a report that charges a kernel negative bytes."""

    @pytest.mark.parametrize("column", [1, 2], ids=["incl", "excl"])
    def test_negative_byte_count(self, tquad_raw, column, tmp_path,
                                 capsys):
        from repro.cli import main

        def edit(rows):
            rows[int(np.flatnonzero(rows[:, 3] >= 0)[0]), column] = -4096

        bad = _edit_page(tquad_raw, STREAM_TQUAD_READ, edit)
        for route in TestHostileManifest._routes("tquad").values():
            with CaptureReader(io.BytesIO(bad)) as reader:
                with pytest.raises(CaptureFormatError,
                                   match=r"tquad.read\[0\]: a row of "
                                         r"-4096 bytes"):
                    route(reader)
        app = tmp_path / "app.mc"
        app.write_text(APP)
        cap = tmp_path / "bad.capture"
        cap.write_bytes(bad)
        assert main(["profile", str(app), "--from-capture", str(cap),
                     "--interval", "50"]) == 2
        assert "corrupt capture page" in capsys.readouterr().err


class TestWideByteCounts:
    """Byte counts past float64's 2**53 integer range sum exactly on
    every tQUAD route: each one groups in integers, so none can round a
    count the others keep."""

    def test_every_route_sums_exactly(self, tquad_raw):
        from repro.sweep import SweepGrid, sweep_tquad

        def edit(rows):
            odd = (1 << 53) + 2 * np.arange(len(rows)) + 1
            rows[:, 1] = odd
            rows[:, 2] = odd - 2
        wide = _edit_page(tquad_raw, STREAM_TQUAD_READ, edit)

        texts = []
        for route in (lambda r: replay_tquad(r),
                      lambda r: replay_tquad(r, mem_limit=1 << 20),
                      lambda r: sweep_tquad(
                          r, SweepGrid(intervals=(50, 100))).report(50),
                      lambda r: replay_many(r, tools=("tquad",)).tquad):
            with CaptureReader(io.BytesIO(wide), page_cache=False) as r:
                texts.append(tquad_to_json(route(r)))
                rows = r.column(STREAM_TQUAD_READ).tolist()
        assert len(set(texts)) == 1
        # ... and that table holds the exact integer sums of the rows
        history = json.loads(texts[0])["history"]
        for j, column in ((0, 1), (1, 2)):
            assert sum(c[j] for slices in history.values()
                       for c in slices.values()) \
                == sum(row[column] for row in rows if row[3] != -1)


class TestReplayScratch:
    """A QUAD replay's working memory follows each drain's records and
    the kernels present in it, never the manifest's kernel table or
    ``mem_size`` (both outside input)."""

    #: What a hostile manifest may add to the tracemalloc peak of the
    #: clean replay (about 3 MiB, nearly all of it the shadow pages).
    SLACK = 1 << 20

    @staticmethod
    def _peak(raw: bytes) -> int:
        with CaptureReader(io.BytesIO(raw)) as reader:
            tracemalloc.start()
            try:
                replay_quad(reader)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_interned_kernels_do_not_size_the_bindings(self, quad_raw):
        bad = _edit_manifest(quad_raw, lambda m: m["quad_kernels"].extend(
            f"unused{i}" for i in range(3000)))
        assert self._peak(bad) < self._peak(quad_raw) + self.SLACK

    def test_mem_size_does_not_size_the_unma_table(self, quad_raw):
        def manifest(m):
            m.update(mem_size=1 << 31)
            m["quad_kernels"].extend(f"k{i}" for i in range(100))

        def page(rows):                # one read by kernel 99
            i = _first_read(rows)
            rows[i] = rows[i] & ((1 << KID_SHIFT) - 1) | 100 << KID_SHIFT

        bad = _edit_quad_page(_edit_manifest(quad_raw, manifest), page)
        assert self._peak(bad) < self._peak(quad_raw) + self.SLACK


class TestToolGuards:
    def test_capture_run_rejects_unknown_tools(self):
        program = build_program("int main() { return 0; }")
        with pytest.raises(ValueError, match="unknown"):
            capture_run(program, io.BytesIO(), tools=("tquad", "bogus"))
        with pytest.raises(ValueError):
            capture_run(program, io.BytesIO(), tools=())


class TestRecordOnly:
    """Capture-attached tools record and do nothing else: the ledger fold
    and the shadow drain happen at replay, never during the run."""

    @pytest.mark.parametrize("make", [
        lambda capture: TQuadTool(TQuadOptions(), capture=capture),
        lambda capture: QuadTool(capture=capture),
    ], ids=["tquad", "quad"])
    def test_report_refuses(self, make):
        engine = PinEngine(build_program(APP))
        writer = CaptureWriter(io.BytesIO())
        tool = make(writer).attach(engine)
        engine.run()
        writer.close()
        with pytest.raises(RuntimeError, match="replay the capture"):
            tool.report()

    def test_capture_run_folds_and_drains_nothing(self, monkeypatch):
        program = build_program(APP)
        options = TQuadOptions(slice_interval=50)
        live = (tquad_to_json(run_tquad(program, options=options)),
                quad_to_json(run_quad(program)))

        def analysis(*args, **kwargs):
            raise AssertionError("capture_run analysed what it records")

        monkeypatch.setattr(RecordingSink, "_flush", analysis)
        monkeypatch.setattr(PagedQuadSink, "_drain", analysis)
        monkeypatch.setattr(obs.TELEMETRY, "gauges", {})
        buf = io.BytesIO()
        capture_run(program, buf, options=options)
        # no shadow, so no shadow-footprint gauges
        assert not [g for g in obs.TELEMETRY.gauges if g.startswith("quad/")]
        monkeypatch.undo()
        buf.seek(0)
        with CaptureReader(buf) as reader:
            assert tquad_to_json(replay_tquad(reader, options)) == live[0]
            assert quad_to_json(replay_quad(reader)) == live[1]


class TestMultipass:
    def _build(self):
        return build_program(APP), None

    def _reexecuted(self, intervals):
        """One direct run per interval."""
        return MultiPassResult(reports={
            i: run_tquad(build_program(APP),
                         options=TQuadOptions(slice_interval=i))
            for i in intervals})

    def test_capture_path_matches_reexecution(self):
        intervals = [50, 200, 1000]
        fast = profile_passes(self._build, intervals)
        slow = self._reexecuted(intervals)
        for interval in intervals:
            assert tquad_to_json(fast.reports[interval]) \
                == tquad_to_json(slow.reports[interval])
        assert fast.format_table() == slow.format_table()

    def test_non_divisible_intervals_use_gcd_grain(self):
        fast = profile_passes(self._build, [150, 100])
        slow = self._reexecuted([150, 100])
        assert fast.format_table() == slow.format_table()
