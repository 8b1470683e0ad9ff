"""Page-codec fuzzer: capture format 2 under round trips and hostile edits.

Format 2 stores a ``tquad.*`` or ``calls`` page as its first row plus
each column's row-to-row deltas at the narrowest of four widths, and a
``quad.raw`` page as its row-to-row deltas split into eight byte
planes; a CRC-32 trailer seals every member and the manifest lists each
page's row count (``page_rows``).  ``quad.raw`` pages written before
the planes layout hold the records as recorded, and still decode.
Four properties hold:

* every page drawn across the full int64 range round-trips exactly for
  every stream (wrapping deltas, every width, one row, a full sink
  page); the header names each column's narrowest width, plane ``j`` of
  a ``quad.raw`` page holds byte ``j`` of every delta, and the member is
  exactly as long as its rows and widths make it;
* a ``quad.raw`` page in the records layout decodes to its rows;
* one edit of a real capture (a truncated member, a flipped width code,
  a layout code the page was not written in, flipped column or plane
  bytes re-deflated so that the ZIP CRC holds, an edited ``page_rows``)
  fails with :class:`CaptureFormatError` when the capture is opened or
  its pages are read, in memory and path-backed, and the failed sidecar
  build leaves no file behind (the CLI exits 2); flipped bits inside a
  member's deflated bytes fail the same way or inflate to the same
  page;
* damage to the sidecar's magic, header or length alone ends in a
  rebuilt sidecar and a byte-identical report.

Budget: 60 examples a property; the nightly job sets ``TQUAD_NIGHTLY=1``
for 1,000.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.capture import (CaptureFormatError, CaptureReader, capture_run,
                           record, replay_many, sidecar_path)
from repro.capture.format import (DELTA_TYPES, LAYOUT_DELTAS,
                                  LAYOUT_PLANES, LAYOUT_RECORDS,
                                  PAGE_HEADER, PAGE_TRAILER,
                                  STREAM_CALLS, STREAM_LAYOUTS, STREAM_QUAD,
                                  STREAM_STRIDES, STREAM_TQUAD_READ,
                                  STREAM_TQUAD_WRITE, decode_page,
                                  encode_page, page_name, page_size_range)
from repro.core import TQuadOptions
from repro.core.recording import DEFAULT_CAP
from repro.minic import build_program
from repro.quad.shadow import DEFAULT_RAW_CAP
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.testing.workloads import WorkloadSpec, generate_workload

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
EXAMPLES = 1000 if NIGHTLY else 60
FUZZ = settings(max_examples=EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

I64 = np.iinfo(np.int64)

#: Rows of a full sink page: the first length past each sink's cap.
SINK_ROWS = {
    STREAM_TQUAD_READ: DEFAULT_CAP // 4 + 1,
    STREAM_TQUAD_WRITE: DEFAULT_CAP // 4 + 1,
    STREAM_CALLS: record.CALL_CAP // 2 + 1,
    STREAM_QUAD: DEFAULT_RAW_CAP + 1,
}

#: How a drawn column's values move from row to row: deltas that need
#: exactly width code 0-3, values anywhere in int64 (their deltas
#: wrap), alternating int64 extremes (deltas of +-(2**64 - 1), which
#: wrap to -+1) and a constant.
COLUMN_KINDS = (0, 1, 2, 3, "anywhere", "extremes", "constant")


def _column(rng: np.random.Generator, kind, rows: int) -> np.ndarray:
    if kind == "anywhere":
        return rng.integers(I64.min, I64.max, size=rows, dtype=np.int64,
                            endpoint=True)
    if kind == "extremes":
        return np.where(np.arange(rows) % 2, I64.max, I64.min)
    first = rng.integers(I64.min, I64.max, dtype=np.int64, endpoint=True)
    if kind == "constant" or rows == 1:
        return np.full(rows, first, dtype=np.int64)
    info = np.iinfo(DELTA_TYPES[kind])
    deltas = rng.integers(info.min, info.max, size=rows - 1,
                          dtype=np.int64, endpoint=True)
    # one delta at an end of the range, so the width is exactly ``kind``
    deltas[rng.integers(rows - 1)] = rng.choice([info.min, info.max])
    return np.cumsum(np.concatenate([[first], deltas]), dtype=np.int64)


@st.composite
def pages(draw, streams=tuple(sorted(STREAM_STRIDES))):
    """``(stream, rows)``: one page of one of ``streams`` as an int64
    array."""
    stream = draw(st.sampled_from(streams))
    n = draw(st.one_of(st.just(1), st.just(2), st.integers(3, 200),
                       st.just(SINK_ROWS[stream])))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS),
                          min_size=STREAM_STRIDES[stream],
                          max_size=STREAM_STRIDES[stream]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return stream, np.stack([_column(rng, kind, n) for kind in kinds],
                            axis=1)


def _narrowest(column: np.ndarray) -> int:
    """The width code of ``column``'s deltas, from Python integers."""
    values = [int(v) for v in column]
    deltas = [((b - a + 2**63) % 2**64) - 2**63
              for a, b in zip(values, values[1:])]
    lo, hi = min(deltas, default=0), max(deltas, default=0)
    return next(code for code, dtype in enumerate(DELTA_TYPES)
                if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max)


def _planes(values: np.ndarray) -> bytes:
    """The byte planes of ``values``' deltas (the first against 0), from
    Python integers: plane ``j`` is byte ``j`` of every delta."""
    ints = [int(v) for v in values]
    deltas = [(b - a) % 2**64 for a, b in zip([0, *ints], ints)]
    return b"".join(bytes((d >> 8 * j) & 0xFF for d in deltas)
                    for j in range(8))


def _records_member(rows: np.ndarray) -> bytes:
    """A page member in the records layout ``quad.raw`` pages were
    written in before the planes layout: a zero header, the rows as
    recorded, the CRC-32 of both."""
    body = bytes(PAGE_HEADER) + rows.astype("<i8").tobytes()
    return body + zlib.crc32(body).to_bytes(PAGE_TRAILER, "little")


@FUZZ
@given(page=pages())
def test_pages_roundtrip_exactly(page):
    stream, rows = page
    n, stride = rows.shape
    member = encode_page(rows.tobytes(), stream)
    decoded = decode_page(member, stream, n)
    assert decoded.shape == (n, stride) and decoded.dtype == np.int64
    assert np.array_equal(decoded, rows)
    lo, hi = page_size_range(stream, n)
    assert lo <= len(member) <= hi
    assert member[0] == STREAM_LAYOUTS[stream]
    if stream == STREAM_QUAD:
        assert member[0] == LAYOUT_PLANES
        assert not any(member[1:PAGE_HEADER])
        body = 8 * n
        assert member[PAGE_HEADER:PAGE_HEADER + body] == _planes(rows[:, 0])
    else:
        assert member[0] == LAYOUT_DELTAS
        codes = list(member[1:1 + stride])
        assert codes == [_narrowest(rows[:, c]) for c in range(stride)]
        body = 8 * stride + (n - 1) * sum(DELTA_TYPES[c].itemsize
                                          for c in codes)
        assert not any(member[1 + stride:PAGE_HEADER])
    assert len(member) == PAGE_HEADER + body + PAGE_TRAILER


@FUZZ
@given(page=pages(streams=(STREAM_QUAD,)))
def test_records_pages_still_decode(page):
    """A ``quad.raw`` page of a capture written before the planes layout
    decodes to the rows it recorded."""
    _, rows = page
    decoded = decode_page(_records_member(rows), STREAM_QUAD, len(rows))
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, rows)


# ------------------------------------------------------ hostile captures
@pytest.fixture(scope="module")
def clean() -> bytes:
    """A real capture with several pages in every stream."""
    source = generate_workload(WorkloadSpec("pointer", seed=7, size=512,
                                            kernels=8, steps=2))
    buf = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(record, "CALL_CAP", 1024)
        capture_run(build_program(source), buf,
                    tools=("tquad", "gprof", "quad"),
                    options=TQuadOptions(slice_interval=64))
    raw = buf.getvalue()
    streams = _manifest(raw)["streams"]
    assert min(info["pages"] for info in streams.values()) >= 2
    return raw


def _manifest(raw: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        return json.loads(zf.read("manifest.json"))


def _rewrite(raw: bytes, members: dict[str, bytes]) -> bytes:
    """``raw`` with the uncompressed content of ``members`` replaced and
    deflated again, so every ZIP CRC holds."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            dst.writestr(info, members.get(info.filename,
                                           src.read(info)))
    return out.getvalue()


def _member(raw: bytes, name: str) -> bytes:
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        return zf.read(name)


def _with_byte(member: bytes, at: int, value: int) -> bytes:
    return member[:at] + bytes([value]) + member[at + 1:]


def _flip_deflated(raw: bytes, name: str, at: int, mask: int) -> bytes:
    """``raw`` with one byte of ``name``'s deflated data xored by
    ``mask``; the ZIP CRC is left as it was."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        info = zf.getinfo(name)
    head = info.header_offset
    name_len, extra_len = struct.unpack_from("<HH", raw, head + 26)
    pos = head + 30 + name_len + extra_len + at % info.compress_size
    out = bytearray(raw)
    out[pos] ^= mask
    return bytes(out)


MUTATIONS = ("truncate", "width", "layout", "column", "plane", "page_rows",
             "deflate")


def _mutate(raw: bytes, kind: str, data) -> bytes:
    """One drawn edit of ``kind`` to the capture ``raw``."""
    streams = _manifest(raw)["streams"]
    names = sorted(streams)
    if kind == "width":
        names = [n for n in names if STREAM_LAYOUTS[n] == LAYOUT_DELTAS]
    elif kind == "plane":
        names = [STREAM_QUAD]
    stream = data.draw(st.sampled_from(names), label="stream")
    info = streams[stream]
    index = data.draw(st.integers(0, info["pages"] - 1), label="page")
    name = page_name(stream, index)
    member = _member(raw, name)
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(member) - 1), label="length")
        return _rewrite(raw, {name: member[:cut]})
    if kind == "width":
        column = data.draw(st.integers(0, info["stride"] - 1),
                           label="column")
        code = data.draw(st.integers(0, 255).filter(
            lambda c: c != member[1 + column]), label="code")
        return _rewrite(raw, {name: _with_byte(member, 1 + column, code)})
    if kind == "layout":
        # the page CRC covers the header, so even a layout the stream
        # is read in fails
        code = data.draw(st.one_of(
            st.sampled_from([LAYOUT_RECORDS, LAYOUT_DELTAS, LAYOUT_PLANES]),
            st.integers(0, 255)).filter(lambda c: c != member[0]),
            label="code")
        return _rewrite(raw, {name: _with_byte(member, 0, code)})
    if kind in ("column", "plane"):
        at = data.draw(st.integers(PAGE_HEADER,
                                   len(member) - PAGE_TRAILER - 1),
                       label="byte")
        mask = data.draw(st.integers(1, 255), label="mask")
        return _rewrite(raw, {name: _with_byte(member, at,
                                               member[at] ^ mask)})
    if kind == "deflate":
        at = data.draw(st.integers(0, 2**31), label="byte")
        mask = data.draw(st.integers(1, 255), label="mask")
        return _flip_deflated(raw, name, at, mask)
    # page_rows: move rows between two pages (the sum holds), or change
    # one entry (it does not)
    page_rows = list(info["page_rows"])
    other = data.draw(st.integers(0, info["pages"] - 1), label="other")
    moved = data.draw(st.integers(1, 64), label="rows")
    if other == index:
        page_rows[index] += data.draw(st.sampled_from([-moved, moved]),
                                      label="sign")
    else:
        page_rows[index] -= moved
        page_rows[other] += moved
    manifest = _manifest(raw)
    manifest["streams"][stream]["page_rows"] = page_rows
    return _rewrite(raw, {"manifest.json": json.dumps(manifest).encode()})


def _every_page(reader: CaptureReader) -> list[bytes]:
    return [reader.page(stream, index, info["stride"]).tobytes()
            for stream, info in sorted(reader.streams.items())
            for index in range(info["pages"])]


@FUZZ
@given(kind=st.sampled_from(MUTATIONS), data=st.data())
def test_damaged_capture_fails_typed(clean, kind, data):
    bad = _mutate(clean, kind, data)
    with CaptureReader(io.BytesIO(clean)) as reader:
        want = _every_page(reader)
    try:
        with CaptureReader(io.BytesIO(bad)) as reader:
            got = _every_page(reader)
    except CaptureFormatError:
        got = None
    # deflate's last byte has padding bits that inflate ignores
    assert got is None or (kind == "deflate" and got == want)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.capture"
        path.write_bytes(bad)
        if got is None:
            with pytest.raises(CaptureFormatError):
                CaptureReader(str(path))
            assert os.listdir(tmp) == ["bad.capture"]
        else:
            with CaptureReader(str(path)) as reader:
                assert _every_page(reader) == want


@pytest.mark.parametrize("field", ["signature", "name"])
def test_local_header_mismatch_fails_typed(clean, field):
    """A deflated member is inflated straight from the archive: its local
    header must still carry the signature and the directory's file name,
    as :mod:`zipfile` requires."""
    name = page_name(STREAM_TQUAD_WRITE, 1)
    with zipfile.ZipFile(io.BytesIO(clean)) as zf:
        head = zf.getinfo(name).header_offset
    out = bytearray(clean)
    out[head + (0 if field == "signature" else 30 + len(name) - 1)] ^= 0x01
    with CaptureReader(io.BytesIO(bytes(out))) as reader:
        with pytest.raises(CaptureFormatError, match=re.escape(
                f"corrupt capture page {STREAM_TQUAD_WRITE}[1]: ")):
            _every_page(reader)


def _high_plane_flip(m: bytes) -> bytes:
    """``m`` with its last plane's first byte flipped."""
    at = PAGE_HEADER + 7 * (len(m) - PAGE_HEADER - PAGE_TRAILER) // 8
    return _with_byte(m, at, m[at] ^ 0x01)


#: One representative edit of each kind, drawn by hand: the first page
#: of ``tquad.read``, or of ``quad.raw`` for its layout code and planes
#: (``page_rows``: one ``tquad.read`` row moved to the second page).
EXAMPLE_EDITS = {
    "truncate": (STREAM_TQUAD_READ, lambda m: m[:-1]),
    "width": (STREAM_TQUAD_READ, lambda m: _with_byte(m, 1, 9)),
    "column": (STREAM_TQUAD_READ,
               lambda m: _with_byte(m, PAGE_HEADER + 40,
                                    m[PAGE_HEADER + 40] ^ 0x10)),
    "layout_records": (STREAM_QUAD,
                       lambda m: _with_byte(m, 0, LAYOUT_RECORDS)),
    "layout_deltas": (STREAM_QUAD,
                      lambda m: _with_byte(m, 0, LAYOUT_DELTAS)),
    "layout_unknown": (STREAM_QUAD, lambda m: _with_byte(m, 0, 3)),
    "plane": (STREAM_QUAD, _high_plane_flip),
}


@pytest.mark.parametrize("kind", sorted([*EXAMPLE_EDITS, "page_rows"]))
def test_damaged_capture_cli_exits_2(clean, kind, tmp_path, capsys):
    from repro.cli import main

    if kind == "page_rows":
        manifest = _manifest(clean)
        page_rows = manifest["streams"][STREAM_TQUAD_READ]["page_rows"]
        page_rows[0] -= 1
        page_rows[1] += 1
        bad = _rewrite(clean,
                       {"manifest.json": json.dumps(manifest).encode()})
    else:
        stream, edit = EXAMPLE_EDITS[kind]
        name = page_name(stream, 0)
        bad = _rewrite(clean, {name: edit(_member(clean, name))})
    with pytest.raises(CaptureFormatError, match="corrupt capture"):
        with CaptureReader(io.BytesIO(bad)) as reader:
            _every_page(reader)
    cap = tmp_path / "bad.capture"
    cap.write_bytes(bad)
    with pytest.raises(CaptureFormatError, match="corrupt capture"):
        CaptureReader(str(cap))
    assert main(["capture", "info", str(cap), "--stats"]) == 2
    assert "corrupt capture" in capsys.readouterr().err
    assert main(["capture", "info", str(cap), "--stats",
                 "--no-page-cache"]) == 2
    assert "corrupt capture" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.capture"]


# ------------------------------------------------------- damaged sidecar
def _reports(reader: CaptureReader) -> str:
    bundle = replay_many(reader, options=TQuadOptions(slice_interval=64))
    return "\n".join((tquad_to_json(bundle.tquad),
                      flat_to_json(bundle.gprof),
                      quad_to_json(bundle.quad)))


@pytest.fixture(scope="module")
def clean_reports(clean) -> str:
    with CaptureReader(io.BytesIO(clean)) as reader:
        return _reports(reader)


def _header(blob: bytes):
    """The sidecar's parsed header, or ``None`` when it does not parse."""
    try:
        hlen = int.from_bytes(blob[8:16], "little")
        return blob[:8], json.loads(blob[16:16 + hlen])
    except ValueError:
        return None


@FUZZ
@given(kind=st.sampled_from(("truncate", "extend", "header")),
       data=st.data())
def test_damaged_sidecar_is_rebuilt(clean, clean_reports, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.capture"
        path.write_bytes(clean)
        CaptureReader(str(path)).close()            # builds the sidecar
        side = sidecar_path(path)
        blob = side.read_bytes()
        data_start = 16 + int.from_bytes(blob[8:16], "little")
        if kind == "truncate":
            damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "extend":
            damaged = blob + data.draw(st.binary(min_size=1, max_size=64))
        else:
            at = data.draw(st.integers(0, data_start - 1))
            damaged = bytearray(blob)
            damaged[at] ^= data.draw(st.integers(1, 255))
            damaged = bytes(damaged)
        side.write_bytes(damaged)
        # a flip inside the header's padding may leave it meaning the same
        same = (len(damaged) == len(blob)
                and damaged[8:16] == blob[8:16]
                and _header(damaged) == _header(blob))
        with CaptureReader(str(path)) as reader:
            assert reader.page_cache_state == ("warm" if same
                                               else "rebuilt")
            assert _reports(reader) == clean_reports
        assert side.read_bytes() == (damaged if same else blob)
