"""Differential tests for the superblock JIT and the recording analysis.

The fused (superblock) tier, the per-instruction tier, the recording
analysis and the per-event reference analysis
(:class:`repro.testing.oracles.PerEventTQuadTool`) must all be
observationally identical: same architectural state, same instruction
counts, same compile counts, same profiler reports.  These tests pin that
equivalence on the MiniC kernel corpus and the WFS application, plus the
exact-budget semantics of ``Machine.run``.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kernels import (build_conv2d, build_fir, build_histogram,
                                build_matmul, build_mergesort, build_pipeline)
from repro.apps.wfs import TINY, build_wfs_program
from repro.apps.wfs.source import make_workspace
from repro.asmkit import assemble
from repro.core import StackPolicy, TQuadOptions, TQuadTool, run_tquad
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import tquad_to_json
from repro.testing.oracles import PerEventTQuadTool
from repro.vm import (ArithmeticFault, InstructionBudgetExceeded, Machine,
                      MemoryFault)
from repro.vm import superblock
from repro.vm.layout import DEFAULT_MEM_SIZE
from repro.vm.superblock import MAX_BLOCK, build_block


def _run(program, *, jit, fs=None, **kw):
    m = Machine(program, fs=fs, jit=jit)
    code = m.run(**kw)
    return m, code


def _state(m: Machine):
    return (m.icount, m.exit_code, list(m.x), list(m.f),
            bytes(m.mem), bytes(m.stdout))


KERNELS = {
    "matmul": lambda: build_matmul(size=8),
    "fir": lambda: build_fir(length=128, n_taps=4),
    "mergesort": lambda: build_mergesort(length=64),
    "pipeline": lambda: build_pipeline(length=64),
    "conv2d": lambda: build_conv2d(width=12, height=8),
    "histogram": lambda: build_histogram(length=256),
}


class TestBareDifferential:
    """Fused vs per-instruction execution of the bare VM."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_state_identical(self, name):
        program = KERNELS[name]()
        fused, code_f = _run(program, jit=True)
        unfused, code_u = _run(program, jit=False)
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
        # compile_count counts distinct static instructions on both tiers
        assert fused.compile_count == unfused.compile_count

    def test_wfs_tiny_state_identical(self):
        program = build_wfs_program(TINY)
        fused, code_f = _run(program, jit=True, fs=make_workspace(TINY))
        unfused, code_u = _run(program, jit=False, fs=make_workspace(TINY))
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
        assert fused.fs.exists("wfs_out.wav")
        assert fused.fs.get("wfs_out.wav") == unfused.fs.get("wfs_out.wav")

    def test_faults_identical(self):
        src = ".text\nli t0, 64\nld t1, 0(t0)\nhalt\n"
        results = []
        for jit in (True, False):
            m = Machine(assemble(src), jit=jit)
            with pytest.raises(Exception) as ei:
                m.run()
            results.append((type(ei.value), ei.value.pc, m.icount))
        assert results[0] == results[1]


class TestBudgetExactness:
    SPIN = ".text\nspin: j spin\n"
    COUNT = """.text
    li t0, 0
    li t1, 5
    loop: addi t0, t0, 1
    blt t0, t1, loop
    halt
    """  # retires exactly 12 instructions

    @pytest.mark.parametrize("jit", [True, False])
    def test_zero_budget_raises_immediately(self, jit):
        m = Machine(assemble(self.SPIN), jit=jit)
        with pytest.raises(InstructionBudgetExceeded):
            m.run(max_instructions=0)
        assert m.icount == 0

    @pytest.mark.parametrize("jit", [True, False])
    def test_negative_budget_is_value_error(self, jit):
        m = Machine(assemble(self.SPIN), jit=jit)
        with pytest.raises(ValueError):
            m.run(max_instructions=-1)

    @pytest.mark.parametrize("jit", [True, False])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 11])
    def test_bound_enforced_exactly(self, jit, budget):
        m = Machine(assemble(self.COUNT), jit=jit)
        with pytest.raises(InstructionBudgetExceeded):
            m.run(max_instructions=budget)
        assert m.icount == budget

    @pytest.mark.parametrize("jit", [True, False])
    def test_halting_exactly_at_budget_completes(self, jit):
        ref = Machine(assemble(self.COUNT), jit=jit)
        ref.run()
        m = Machine(assemble(self.COUNT), jit=jit)
        assert m.run(max_instructions=ref.icount) == 0
        assert m.icount == ref.icount

    @pytest.mark.parametrize("budget", [100, 1000, 9999])
    def test_partial_state_identical_across_tiers(self, budget):
        program = build_fir(length=64, n_taps=4)
        states = []
        for jit in (True, False):
            m = Machine(program, jit=jit)
            with pytest.raises(InstructionBudgetExceeded):
                m.run(max_instructions=budget)
            states.append(_state(m))
        assert states[0] == states[1]


def _oracle_tquad(program, *, options, jit, fs=None):
    engine = PinEngine(program, fs=fs, jit=jit)
    tool = PerEventTQuadTool(options).attach(engine)
    engine.run()
    return tool.report()


class TestProfilerDifferential:
    """All four (analysis, tier) combinations must agree bit-for-bit; the
    per-event analysis is the reference oracle."""

    @pytest.mark.parametrize("policy", list(StackPolicy))
    def test_tquad_fir_reports_identical(self, policy):
        program = build_fir(length=256, n_taps=8)
        options = TQuadOptions(slice_interval=5000, stack=policy)
        tables = set()
        for run in (run_tquad, _oracle_tquad):
            for jit in (True, False):
                report = run(program, options=options, jit=jit)
                tables.add(report.format_table())
        assert len(tables) == 1

    @pytest.mark.parametrize("oracle", [False, True])
    def test_tquad_wfs_tiny_reports_identical(self, oracle):
        program = build_wfs_program(TINY)
        options = TQuadOptions(slice_interval=20000)
        run = _oracle_tquad if oracle else run_tquad
        tables = set()
        for jit in (True, False):
            report = run(program, options=options, jit=jit,
                         fs=make_workspace(TINY))
            tables.add(report.format_table())
        assert len(tables) == 1

    def test_tquad_buffered_equals_legacy_on_wfs(self):
        """The recording path against the per-event oracle."""
        program = build_wfs_program(TINY)
        options = TQuadOptions(slice_interval=20000)
        tables = {
            run: run(program, options=options, jit=True,
                     fs=make_workspace(TINY)).format_table()
            for run in (run_tquad, _oracle_tquad)
        }
        assert tables[run_tquad] == tables[_oracle_tquad]

    def test_gprof_reports_identical(self):
        program = build_fir(length=256, n_taps=8)
        tables = set()
        for jit in (True, False):
            engine = PinEngine(program, jit=jit)
            from repro.gprofsim import GprofTool
            tool = GprofTool().attach(engine)
            engine.run()
            tables.add(tool.report().format_table())
        assert len(tables) == 1

    def test_quad_reports_identical(self):
        program = build_fir(length=256, n_taps=8)
        tables = set()
        for jit in (True, False):
            engine = PinEngine(program, jit=jit)
            tool = QuadTool().attach(engine)
            engine.run()
            tables.add(tool.report().format_table())
        assert len(tables) == 1

    def test_prefetch_skips_identical(self):
        src = """
        int ga[32];
        int main() {
            int i;
            for (i = 0; i < 32; i = i + 1) {
                __prefetch(&ga[i]);
                ga[i] = i;
            }
            return 0;
        }
        """
        program = build_program(src)
        counts = set()
        from repro.core import TQuadTool
        for cls in (TQuadTool, PerEventTQuadTool):
            for jit in (True, False):
                engine = PinEngine(program, jit=jit)
                tool = cls().attach(engine)
                engine.run()
                counts.add(tool.prefetches_skipped)
        assert counts == {32}


#: Guests that fault mid-trace, after the open segment has recorded
#: accesses (``g[1] = g[2] + g[3]``) and, for the null read, on an access.
FAULT_GUESTS = {
    "null-read": """
int g[16];
int main() { int i; int *p;
  for (i = 0; i < 16; i++) { g[i] = i; }
  p = 0; g[1] = g[2] + g[3]; g[4] = g[5] + *p; return 0; }
""",
    "div-zero": """
int g[16];
int main() { int i; int z;
  for (i = 0; i < 16; i++) { g[i] = i; }
  z = 0; g[1] = g[2] + g[3]; g[4] = g[5] / z; return 0; }
""",
    "float-to-int": """
int g[16];
int main() { int i; float f;
  for (i = 0; i < 16; i++) { g[i] = i; }
  f = 0.0; f = 1.0 / f; g[1] = g[2] + g[3]; g[4] = g[5] + (int) f;
  return 0; }
""",
}

#: Long straight-line segments: 36 global accesses in main, 20+ per trace.
STRAIGHT = "int g[64];\nint main() { %s return 0; }\n" % " ".join(
    f"g[{i}] = g[{i + 20}] + g[{i + 40}];" for i in range(12))


@pytest.fixture()
def sources(monkeypatch):
    """The source of every superblock compiled while the test runs."""
    out: list[str] = []

    def spy(src, filename, mode, *args, **kwargs):
        if filename.startswith("<superblock@"):
            out.append(src)
        return compile(src, filename, mode, *args, **kwargs)

    monkeypatch.setattr(superblock, "compile", spy, raising=False)
    return out


def _straight_source(sources, *, quad: bool) -> str:
    engine = PinEngine(build_program(STRAIGHT))
    TQuadTool(TQuadOptions(slice_interval=10**6)).attach(engine)
    if quad:
        QuadTool().attach(engine)
    engine.run()
    return max(sources, key=len)


class TestRecordEmission:
    """What generated bodies write, and when.  A trace runs in agg mode
    when tQUAD is its only sink and in event mode when a QUAD sink shares
    it; both must record what the per-instruction tier records, also when
    a fault cuts a segment short."""

    @pytest.mark.parametrize("quad", [False, True],
                             ids=["tquad", "tquad+quad"])
    @pytest.mark.parametrize("guest", sorted(FAULT_GUESTS))
    def test_fault_mid_trace_keeps_segment_records(self, guest, quad):
        def partial(jit):
            engine = PinEngine(build_program(FAULT_GUESTS[guest]), jit=jit)
            tool = TQuadTool(TQuadOptions(slice_interval=1000))
            tool.attach(engine)
            if quad:
                QuadTool().attach(engine)
            with pytest.raises((MemoryFault, ArithmeticFault)):
                engine.run()
            return tquad_to_json(tool.report(allow_partial=True))

        assert partial(jit=True) == partial(jit=False)

    @pytest.mark.parametrize("policy", list(StackPolicy))
    def test_event_mode_reports_identical(self, policy):
        program = build_fir(length=256, n_taps=8)
        options = TQuadOptions(slice_interval=5000, stack=policy)

        def shared_with_quad(jit):
            engine = PinEngine(program, jit=jit)
            tool = TQuadTool(options).attach(engine)
            QuadTool().attach(engine)
            engine.run()
            return tquad_to_json(tool.report())

        oracle = _oracle_tquad(program, options=options, jit=False)
        assert (shared_with_quad(True) == shared_with_quad(False)
                == tquad_to_json(oracle))

    def test_event_mode_writes_once_per_buffer(self, sources):
        src = _straight_source(sources, quad=True)
        accesses = len(re.findall(r"\be\d+ = \d+ if a <", src))
        writes = len(re.findall(r"_fb\d+\(_pk\d+\(ic \+ \d+, ", src))
        assert accesses >= 20
        assert 0 < writes * 8 <= accesses

    def test_agg_mode_sums_at_compile_time(self, sources):
        src = _straight_source(sources, quad=False)
        assert "aI" not in src
        sums = [int(v) for v in
                re.findall(r"_pk\d+\(ic \+ 1, (\d+), e\d+, K\d+\)", src)]
        assert max(sums) > 8

    @pytest.mark.parametrize("quad", [False, True],
                             ids=["tquad", "tquad+quad"])
    def test_fault_branches_write_nothing(self, sources, quad):
        src = _straight_source(sources, quad=quad)
        lines = src.splitlines()
        raises = [i for i, line in enumerate(lines)
                  if line.strip().startswith("raise ")]
        assert raises
        for i in raises:
            assert not re.search(r"_(fb|bx|ba)\d+\(", lines[i - 1])
        assert src.count("except ") == 1


#: A trace whose live-in base ``s0`` sits 8 bytes below the top of
#: memory: the entry check fails, so the execution runs on the
#: per-instruction tier, which faults at the second access.
ENTRY_FAULT = """
.text
.func main
main:
    li s0, %d
    li t1, 7
    bne s0, zero, body
    halt
body:
    sd t1, 0(s0)
    addi sp, sp, -16
    sd t1, -8(sp)
    ld t2, 8(s0)
    halt
.endfunc
"""


class TestEntryCheck:
    """Accesses through a base that still holds its trace-entry value are
    bounds-checked once, at entry; an execution failing the check faults,
    and the per-instruction tier it falls back to faults exactly."""

    @pytest.mark.parametrize("policy", list(StackPolicy))
    def test_fault_at_entry_checked_access(self, policy):
        from repro.obs import TELEMETRY

        def run(jit):
            program = assemble(ENTRY_FAULT % (DEFAULT_MEM_SIZE - 8))
            engine = PinEngine(program, jit=jit)
            tool = TQuadTool(TQuadOptions(slice_interval=1000, stack=policy))
            tool.attach(engine)
            with pytest.raises(MemoryFault) as ei:
                engine.run()
            m = engine.machine
            return ((ei.value.pc, ei.value.icount), _state(m),
                    tquad_to_json(tool.report(allow_partial=True)))

        before = TELEMETRY.counters.get("vm/entry_fallbacks", 0)
        fused = run(True)
        assert TELEMETRY.counters.get("vm/entry_fallbacks", 0) == before + 1
        assert fused == run(False)

    def test_no_fallback_on_wfs(self):
        from repro.obs import TELEMETRY

        before = TELEMETRY.counters.get("vm/entry_fallbacks", 0)
        run_tquad(build_wfs_program(TINY), fs=make_workspace(TINY),
                  options=TQuadOptions(slice_interval=5000))
        assert TELEMETRY.counters.get("vm/entry_fallbacks", 0) == before


class TestTraceFormation:
    def test_traces_follow_calls_and_jumps(self):
        program = assemble("""
        .text
        main: jal f
        halt
        f: li t0, 1
        ret
        """)
        m = Machine(program)
        fn, indices = build_block(m, 0)
        # the trace runs through the jal into the callee, up to the ret
        assert indices == [0, 2, 3]

    def test_trace_stops_on_cycle(self):
        program = assemble(".text\nspin: j spin\n")
        m = Machine(program)
        fn, indices = build_block(m, 0)
        assert indices == [0]
        assert fn(0) == 0  # the jump dispatches back to its own head

    def test_trace_length_capped(self):
        body = "addi t0, t0, 1\n" * (3 * MAX_BLOCK)
        program = assemble(".text\n" + body + "halt\n")
        m = Machine(program)
        fn, indices = build_block(m, 0)
        assert len(indices) == MAX_BLOCK

    def test_compile_count_matches_executed_instructions(self):
        program = KERNELS["mergesort"]()
        fused, _ = _run(program, jit=True)
        unfused, _ = _run(program, jit=False)
        assert fused.compile_count == unfused.compile_count
        assert fused.compile_count <= len(program.instrs)


# ---------------------------------------------------------------- property
@st.composite
def minic_programs(draw):
    """Small random MiniC programs exercising loops, calls and arrays."""
    size = draw(st.sampled_from([4, 8, 16]))
    n_stmts = draw(st.integers(min_value=1, max_value=3))
    stmts = []
    for _ in range(n_stmts):
        kind = draw(st.sampled_from(["fill", "sum", "branch", "call"]))
        if kind == "fill":
            stmts.append(f"for (i = 0; i < {size}; i = i + 1) "
                         f"{{ ga[i] = i * {draw(st.integers(1, 9))}; }}")
        elif kind == "sum":
            stmts.append(f"for (i = 0; i < {size}; i = i + 1) "
                         "{ acc = acc + ga[i]; }")
        elif kind == "branch":
            stmts.append(f"if (acc > {draw(st.integers(0, 50))}) "
                         "{ acc = acc - 1; } else { acc = acc + 2; }")
        else:
            stmts.append("acc = acc + helper(acc);")
    return (f"int ga[{size}];\n"
            "int helper(int v) { return v + 1; }\n"
            "int main() { int i; int acc = 0; "
            + " ".join(stmts) +
            " return acc & 255; }")


class TestPropertyDifferential:
    @given(minic_programs())
    @settings(max_examples=25, deadline=None)
    def test_fused_equals_unfused(self, src):
        program = build_program(src)
        fused, code_f = _run(program, jit=True)
        unfused, code_u = _run(program, jit=False)
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
