"""Property-based byte-identity of capture replay.

For randomly generated MiniC guests (and the shared fuzz corpus), a
report replayed from a capture must serialise to *exactly* the bytes the
direct re-executing tool produces — across slice intervals (any multiple
of the capture grain), stack policies (including policies derived from a
both-sided capture), and the gprof and QUAD replays.
"""

import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import (CaptureReader, capture_run, replay_gprof,
                           replay_quad, replay_tquad)
from repro.core import TQuadOptions, run_tquad
from repro.core.options import StackPolicy
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.quad import run_quad
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json

CORPUS = sorted((Path(__file__).parent.parent / "fuzz" / "corpus")
                .glob("*.mc"))


@st.composite
def guest_programs(draw):
    """A random multi-function MiniC guest over small global arrays."""
    n_funcs = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.sampled_from([8, 16, 24]))
    funcs, calls = [], []
    for f in range(n_funcs):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            op = draw(st.sampled_from(["fill", "sum", "copy"]))
            if op == "fill":
                body.append(f"for (i = 0; i < {size}; i = i + 1) "
                            f"{{ ga[i] = i * {draw(st.integers(1, 9))}; }}")
            elif op == "sum":
                body.append(f"for (i = 0; i < {size}; i = i + 1) "
                            f"{{ acc = acc + ga[i]; }}")
            else:
                body.append(f"for (i = 0; i < {size}; i = i + 1) "
                            f"{{ gb[i] = ga[i]; }}")
        funcs.append(f"int f{f}() {{ int i; int acc = 0; "
                     + " ".join(body) + " return acc; }")
        calls.extend([f"r = r + f{f}();"]
                     * draw(st.integers(min_value=1, max_value=2)))
    return (f"int ga[{size}]; int gb[{size}];\n" + "\n".join(funcs)
            + "\nint main() { int r = 0; " + " ".join(calls)
            + " return r & 255; }")


def _capture_bytes(program, *, grain, tools=("tquad", "gprof", "quad"),
                   stack=StackPolicy.BOTH):
    buf = io.BytesIO()
    capture_run(program, buf, tools=tools,
                options=TQuadOptions(slice_interval=grain, stack=stack))
    buf.seek(0)
    return buf


class TestRandomGuests:
    @given(source=guest_programs(),
           grain=st.sampled_from([25, 50, 100]),
           factor=st.integers(min_value=1, max_value=6),
           policy=st.sampled_from(list(StackPolicy)))
    @settings(max_examples=15, deadline=None)
    def test_tquad_replay_is_byte_identical(self, source, grain, factor,
                                            policy):
        program = build_program(source)
        buf = _capture_bytes(program, grain=grain, tools=("tquad",))
        opts = TQuadOptions(slice_interval=grain * factor, stack=policy)
        direct = run_tquad(program, options=opts)
        with CaptureReader(buf) as reader:
            replay = replay_tquad(reader, opts)
        assert tquad_to_json(replay) == tquad_to_json(direct)

    @given(source=guest_programs())
    @settings(max_examples=8, deadline=None)
    def test_gprof_and_quad_replays_are_byte_identical(self, source):
        program = build_program(source)
        buf = _capture_bytes(program, grain=100,
                             tools=("gprof", "quad"))
        with CaptureReader(buf) as reader:
            assert flat_to_json(replay_gprof(reader)) \
                == flat_to_json(run_gprof(program))
            assert quad_to_json(replay_quad(reader)) \
                == quad_to_json(run_quad(program))

class TestFuzzCorpus:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_corpus_replays_byte_identically(self, path):
        program = build_program(path.read_text())
        buf = _capture_bytes(program, grain=100)
        with CaptureReader(buf) as reader:
            for interval in (100, 300, 1000):
                opts = TQuadOptions(slice_interval=interval)
                assert tquad_to_json(replay_tquad(reader, opts)) \
                    == tquad_to_json(run_tquad(program, options=opts))
            assert flat_to_json(replay_gprof(reader)) \
                == flat_to_json(run_gprof(program))
            assert quad_to_json(replay_quad(reader)) \
                == quad_to_json(run_quad(program))
