"""Differential fuzzing of the profiler stack.

Hypothesis-generated MiniC guests (and a checked-in seed corpus) run
under all three tools, attached to one engine, in two configurations —
with the superblock JIT (the default tier) and with it disabled — and
every byte of every report must agree: JSON serialisations, rendered
tables, the gprof call graph, the guest exit code and the
retired-instruction count.  Any divergence is a real bug in the VM, the
JIT or the instrumentation engine.

Budget: the hypothesis example count comes from ``FUZZ_EXAMPLES``
(default 15 — CI-sized); the nightly job sets ``TQUAD_NIGHTLY=1`` and a
larger budget.
"""

import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import TQuadOptions, TQuadTool
from repro.gprofsim import GprofTool
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.testing.workloads import (SHAPES, WorkloadSpec,
                                     generate_workload)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.mc"))

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "15"))
FUZZ_NIGHTLY_EXAMPLES = int(os.environ.get("FUZZ_NIGHTLY_EXAMPLES", "200"))
NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"

INTERVAL = 97          # deliberately not a divisor of anything


def fingerprint(src, *, jit: bool = True, fs_factory=None) -> tuple:
    """Every byte-level artifact of one profiling configuration: tQUAD,
    QUAD and gprof attached to one engine, one run.

    ``src`` is MiniC source or a prebuilt ``Program``; ``fs_factory``
    supplies a fresh workspace per run for guests that read input files
    (the corpus property tests reuse this harness).
    """
    program = src if not isinstance(src, str) else build_program(src)
    fs = fs_factory() if fs_factory is not None else None
    engine = PinEngine(program, fs=fs, jit=jit)
    tquad = TQuadTool(TQuadOptions(slice_interval=INTERVAL)).attach(engine)
    quad = QuadTool().attach(engine)
    gprof = GprofTool().attach(engine)
    exit_code = engine.run()
    tq, q, g = tquad.report(), quad.report(), gprof.report()
    return (tquad_to_json(tq), tq.format_table(),
            quad_to_json(q), q.format_table(),
            flat_to_json(g), g.format_table(), g.format_call_graph(),
            exit_code, engine.machine.icount)


def assert_all_configs_agree(src, *, fs_factory=None) -> None:
    reference = fingerprint(src, fs_factory=fs_factory)
    nojit = fingerprint(src, jit=False, fs_factory=fs_factory)
    for i, (a, b) in enumerate(zip(reference, nojit)):
        assert a == b, f"serial vs jit-off diverged at artifact {i}"


# --------------------------------------------------------------- generator
@st.composite
def guest_programs(draw):
    """Random MiniC guests mixing int/float arrays, branches and calls."""
    size = draw(st.sampled_from([8, 16, 24]))
    n_funcs = draw(st.integers(min_value=1, max_value=4))
    use_floats = draw(st.booleans())
    decls = [f"int ga[{size}]; int gb[{size}];"]
    if use_floats:
        decls.append(f"float gf[{size}];")
    funcs, calls = [], []
    for f in range(n_funcs):
        stmts = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from(
                ["fill", "sum", "copy", "branchy", "shift"]
                + (["fsynth", "fsum"] if use_floats else [])))
            k = draw(st.integers(1, 9))
            if kind == "fill":
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ ga[i] = i * {k} + {f}; }}")
            elif kind == "sum":
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ acc = acc + ga[i]; }}")
            elif kind == "copy":
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ gb[i] = ga[i] ^ {k}; }}")
            elif kind == "branchy":
                stmts.append(
                    f"for (i = 0; i < {size}; i++) {{ "
                    f"if (ga[i] % {k + 1} == 0) {{ acc = acc + gb[i]; }} "
                    f"else {{ gb[i] = gb[i] + {k}; }} }}")
            elif kind == "shift":
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ gb[i] = (gb[i] << 1) | (ga[i] >> 1); }}")
            elif kind == "fsynth":
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ gf[i] = (float)ga[i] * 0.5; }}")
            else:  # fsum
                stmts.append(f"for (i = 0; i < {size}; i++) "
                             f"{{ acc = acc + (int)gf[i]; }}")
        funcs.append(f"int f{f}() {{ int i; int acc = 0; "
                     + " ".join(stmts) + " return acc; }")
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            calls.append(f"r = r + f{f}();")
    return ("\n".join(decls) + "\n" + "\n".join(funcs)
            + "\nint main() { int r = 0; " + " ".join(calls)
            + " print_int(r); return r & 255; }")


@st.composite
def workload_specs(draw, max_size: int = 48):
    """Specs for the deterministic shape generator — the corpus' three
    bandwidth shapes (pointer / bursty / streaming) at fuzz scale."""
    return WorkloadSpec(
        shape=draw(st.sampled_from(SHAPES)),
        seed=draw(st.integers(min_value=1, max_value=0x7FFFFFFF)),
        size=draw(st.integers(min_value=8, max_value=max_size)),
        kernels=draw(st.integers(min_value=1, max_value=3)),
        steps=draw(st.integers(min_value=1, max_value=3)))


# -------------------------------------------------------------- the tests
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_differential_with_real_processes(path):
    """Seed corpus: serial == JIT-off.  (The name predates the removal
    of sharded execution, whose worker processes this also ran.)"""
    assert_all_configs_agree(path.read_text())


def test_corpus_is_checked_in():
    assert len(CORPUS) >= 5, "seed corpus missing"


@given(guest_programs())
@settings(max_examples=FUZZ_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_differential(src):
    """Generated guests: all three configurations byte-agree."""
    assert_all_configs_agree(src)


@given(workload_specs(max_size=24))
@settings(max_examples=max(3, FUZZ_EXAMPLES // 3), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_generated_workloads(spec):
    """Shape-generator guests: all three configurations byte-agree."""
    assert_all_configs_agree(generate_workload(spec))


@pytest.mark.nightly
@pytest.mark.skipif(not NIGHTLY, reason="nightly budget (TQUAD_NIGHTLY=1)")
@given(guest_programs())
@settings(max_examples=FUZZ_NIGHTLY_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_differential_nightly(src):
    """The same property at the nightly example budget."""
    assert_all_configs_agree(src)


@pytest.mark.nightly
@pytest.mark.skipif(not NIGHTLY, reason="nightly budget (TQUAD_NIGHTLY=1)")
@given(workload_specs())
@settings(max_examples=FUZZ_NIGHTLY_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_generated_workloads_nightly(spec):
    """Shape-generator guests at the nightly budget."""
    assert_all_configs_agree(generate_workload(spec))
