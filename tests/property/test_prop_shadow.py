"""Differential properties of the paged QUAD shadow memory.

The paged/interned sink (:mod:`repro.quad.shadow`) must be *byte-identical*
to the per-byte dict/set walk of the reference oracle
(:class:`repro.testing.oracles.PerByteQuadTool`) for any access stream.
Hypothesis drives both over random streams of reads/writes of random
sizes and alignments, interleaved with kernel enter/return events, SP
movement (including accesses straddling the stack pointer) and
mid-stream drains, then compares every Table II counter, UnMA
cardinality and binding.

A second mode draws only aligned 8-byte accesses, the traffic real
guests produce almost exclusively: its drains run the word pipeline
alone, including over words that sub-word writes of an earlier drain
left with bytes of several writers.

Budget: 120 examples per mode; the nightly job sets ``TQUAD_NIGHTLY=1``
for 2,000.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.core.callstack import CallStack
from repro.quad.shadow import PAGE, PagedQuadSink, make_raw_recorder
from repro.serialize import quad_to_dict
from repro.testing.oracles import PerByteQuadTool
from repro.vm.program import MAIN_IMAGE

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
EXAMPLES = 2000 if NIGHTLY else 120

_NAMES = ["alpha", "beta", "gamma"]
#: SP offsets from a stream's address cluster: below it, inside a word
#: (13: an access straddling SP), above it, and far above it.
_SP = [0, 13, 128, 260, 1 << 30]


def _enter_ret_flush(draw, kind, events) -> bool:
    if kind == "enter":
        events.append(("enter", draw(st.sampled_from(_NAMES))))
    elif kind in ("ret", "flush"):
        events.append((kind,))
    else:
        return False
    return True


@st.composite
def access_streams(draw):
    """A random event stream: kernel transitions + sized memory accesses.

    Addresses cluster either low in memory or around a shadow page
    boundary (so multi-page gathers/scatters are exercised); SP values sit
    inside the address cluster so accesses can fall fully below, fully
    above, or straddle the stack pointer.
    """
    base = draw(st.sampled_from([64, PAGE - 128]))
    n = draw(st.integers(min_value=1, max_value=120))
    events = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["enter", "ret", "flush", "read", "read", "read",
             "write", "write", "write"]))
        if not _enter_ret_flush(draw, kind, events):
            ea = base + draw(st.integers(min_value=0, max_value=256))
            size = draw(st.integers(min_value=1, max_value=8))
            sp = base + draw(st.sampled_from(_SP))
            events.append((kind, ea, size, sp))
    return events


@st.composite
def full_word_streams(draw):
    """A stream whose drains after the first hold only aligned 8-byte
    accesses.

    An optional first drain of sub-word writes by several kernels leaves
    words whose bytes have different writers; the full-word traffic after
    it reads them back.  Words sit low in memory or on both sides of a
    shadow page boundary; SP moves through the cluster, so words fall
    below it, above it or straddle it; accesses before the first
    ``enter`` or after the last ``ret`` are dropped.
    """
    base = draw(st.sampled_from([64, PAGE - 128]))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        events.append(("enter", draw(st.sampled_from(_NAMES))))
        events.append(("write", base + draw(st.integers(0, 255)),
                       draw(st.sampled_from([1, 2, 4])),
                       base + draw(st.sampled_from(_SP))))
    events.append(("flush",))
    for _ in range(draw(st.integers(min_value=1, max_value=120))):
        kind = draw(st.sampled_from(
            ["enter", "ret", "flush", "read", "read", "read",
             "write", "write", "write"]))
        if not _enter_ret_flush(draw, kind, events):
            sp = draw(st.sampled_from(_SP) | st.integers(0, 255))
            # half the words drawn hold the SP byte when it sits inside
            # the cluster, straddling it unless SP is word-aligned
            word = draw(st.integers(0, 31) | st.just(min(sp >> 3, 31)))
            events.append((kind, base + 8 * word, 8, base + sp))
    return events


def _play(events, callstack, on_read, on_write, flush) -> None:
    for ev in events:
        kind = ev[0]
        if kind == "enter":
            callstack.enter(ev[1], MAIN_IMAGE)
        elif kind == "ret":
            callstack.on_ret()
        elif kind == "flush":
            flush()
        elif kind == "read":
            on_read(ev[1], ev[2], ev[3])
        else:
            on_write(ev[1], ev[2], ev[3])


def _paged(events) -> dict:
    """The paged sink's report over the stream, engine-free (a small cap
    forces frequent drains)."""
    sink = PagedQuadSink(CallStack(), cap=24)
    _play(events, sink.tag, make_raw_recorder(sink, write=False),
          make_raw_recorder(sink, write=True), sink.flush)
    return quad_to_dict(sink.report(images={}, total_instructions=0))


def _oracle(events) -> dict:
    tool = PerByteQuadTool()
    _play(events, tool.callstack, tool.on_read, tool.on_write,
          lambda: None)
    return quad_to_dict(tool.report())


class TestPagedLegacyDifferential:
    @given(access_streams())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_byte_identical_to_legacy(self, events):
        assert _paged(events) == _oracle(events)

    @given(full_word_streams())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_full_word_byte_identical_to_legacy(self, events):
        assert _paged(events) == _oracle(events)

    def test_many_kernels_in_one_drain(self):
        """A drain with more kernels than its credit bins can hold densely
        bins only the (producer, consumer) pairs present."""
        names = [f"k{i}" for i in range(64)]
        events = []
        for i, name in enumerate(names):
            events.append(("enter", name))
            events.append(("write", 64 + 8 * i, 8, 1 << 20))
            events.append(("read", 64 + 8 * ((i * 7) % 64), 8, 1 << 20))
            events.append(("read", 64 + 8 * i + 2, 4, 1 << 20))
            events.append(("ret",))
        sink = PagedQuadSink(CallStack())
        _play(events, sink.tag, make_raw_recorder(sink, write=False),
              make_raw_recorder(sink, write=True), sink.flush)
        paged = quad_to_dict(sink.report(images={}, total_instructions=0))
        assert len(paged["bindings"]) > 64
        assert paged == _oracle(events)
