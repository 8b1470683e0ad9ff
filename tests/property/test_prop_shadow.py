"""Differential properties of the paged QUAD shadow memory.

The paged/interned sink (:mod:`repro.quad.shadow`) must be *byte-identical*
to the per-byte dict/set walk of the reference oracle
(:class:`repro.testing.oracles.PerByteQuadTool`) for any access stream.
Hypothesis drives both over random streams of reads/writes of random
sizes and alignments, interleaved with kernel enter/return events, SP
movement (including accesses straddling the stack pointer) and
mid-stream drains, then compares every Table II counter, UnMA
cardinality and binding.
"""

from hypothesis import given, settings, strategies as st

from repro.core.callstack import CallStack
from repro.quad.shadow import PAGE, PagedQuadSink, make_raw_recorder
from repro.serialize import quad_to_dict
from repro.testing.oracles import PerByteQuadTool
from repro.vm.program import MAIN_IMAGE

_NAMES = ["alpha", "beta", "gamma"]


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
        if kind == "enter":
            events.append(("enter", draw(st.sampled_from(_NAMES))))
        elif kind in ("ret", "flush"):
            events.append((kind,))
        else:
            ea = base + draw(st.integers(min_value=0, max_value=256))
            size = draw(st.integers(min_value=1, max_value=8))
            sp = base + draw(st.sampled_from([0, 13, 128, 260, 1 << 30]))
            events.append((kind, ea, size, sp))
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
    @settings(max_examples=120, deadline=None)
    def test_byte_identical_to_legacy(self, events):
        assert _paged(events) == _oracle(events)
