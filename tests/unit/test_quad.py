"""QUAD tool tests: shadow memory, UnMA, bindings, overhead model."""

import numpy as np
import pytest

from repro.asmkit import assemble
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import (InstrumentationCostModel, QuadTool,
                        instrumented_profile, rank_shifts, run_quad)
from repro.quad.shadow import _distinct
from repro.serialize import quad_from_json, quad_to_json
from repro.testing.oracles import PerByteQuadTool
from repro.vm import DATA_BASE

PIPELINE = """
int buf[32];
int out[32];
int producer() {
    int i;
    for (i = 0; i < 32; i = i + 1) { buf[i] = i; }
    return 0;
}
int consumer() {
    int i; int s = 0;
    for (i = 0; i < 32; i = i + 1) { out[i] = buf[i]; s = s + out[i]; }
    return s;
}
int main() { producer(); return consumer() & 255; }
"""


class TestShadowMemory:
    def test_producer_consumer_binding(self):
        rep = run_quad(build_program(PIPELINE))
        assert rep.communication("producer", "consumer") == 32 * 8
        assert rep.communication("consumer", "producer") == 0

    def test_out_counts_consumed_bytes(self):
        rep = run_quad(build_program(PIPELINE))
        row = rep.row("producer")
        # producer's global output is read once by consumer
        assert row.out_excl == 32 * 8

    def test_unma_counts_unique_addresses(self):
        src = """
        int cell;
        int main() {
            int i;
            for (i = 0; i < 100; i = i + 1) { cell = i; }
            return cell & 1;
        }
        """
        rep = run_quad(build_program(src))
        row = rep.row("main")
        # 100 writes, all to the same 8 bytes (plus frame traffic on incl)
        assert row.out_unma_excl == 8

    def test_partial_overwrite_byte_granularity(self):
        src = f"""
            .text
            .func writer
        writer:
            li t0, {DATA_BASE}
            li t1, -1
            sd t1, 0(t0)      # writer owns 8 bytes
            ret
            .endfunc
            .func clobber
        clobber:
            li t0, {DATA_BASE}
            li t1, 0
            sw t1, 0(t0)      # clobber takes over the low 4 bytes
            ret
            .endfunc
            .func reader
        reader:
            li t0, {DATA_BASE}
            ld t2, 0(t0)
            ret
            .endfunc
            .func main
        main:
            addi sp, sp, -8
            sd ra, 0(sp)
            call writer
            call clobber
            call reader
            ld ra, 0(sp)
            addi sp, sp, 8
            halt
            .endfunc
        """
        engine = PinEngine(assemble(src))
        tool = QuadTool().attach(engine)
        engine.run()
        rep = tool.report()
        assert rep.communication("writer", "reader") == 4
        assert rep.communication("clobber", "reader") == 4

    def test_stack_traffic_separated(self):
        src = """
        int g;
        int main() {
            int local = 3;       // stack write
            g = local + 1;       // stack read + global write
            return g;
        }
        """
        rep = run_quad(build_program(src))
        row = rep.row("main")
        assert row.in_incl > row.in_excl
        assert row.out_unma_incl > row.out_unma_excl

    def test_self_communication(self):
        rep = run_quad(build_program(PIPELINE))
        # consumer writes out[] then reads it back -> self binding
        assert rep.communication("consumer", "consumer") > 0

    def test_track_bindings_off(self):
        rep = run_quad(build_program(PIPELINE), track_bindings=False)
        assert rep.bindings == {}
        assert rep.row("producer").out_excl == 32 * 8  # OUT still tracked


def _straddle_report(shadow: str, store: str, load: str,
                     sp_off: int) -> "object":
    """Run one store+load pair whose EA straddles SP (``ea < sp < ea+size``)
    and return the QUAD report of the paged tool or, for ``"legacy"``,
    of the per-byte oracle."""
    src = f"""
        .text
        .func main
    main:
        li t0, {DATA_BASE}
        addi t1, sp, 0     # save sp
        addi sp, t0, {sp_off}  # sp sits inside the accessed range
        li t2, -1
        {store} t2, 0(t0)
        {load} t3, 0(t0)
        addi sp, t1, 0     # restore
        halt
        .endfunc
    """
    engine = PinEngine(assemble(src))
    tool = (QuadTool() if shadow == "paged" else PerByteQuadTool())
    tool.attach(engine)
    engine.run()
    return tool.report()


class TestSpStraddle:
    """Byte-denominated columns split a straddling access per byte; the
    dynamic access counters stay whole-access (``ea < sp``)."""

    @pytest.mark.parametrize("shadow", ["paged", "legacy"])
    def test_word_access_straddling_sp(self, shadow):
        rep = _straddle_report(shadow, "sd", "ld", 4)
        io = rep.kernels["main"]
        row = rep.row("main")
        assert (io.reads, io.writes) == (1, 1)
        # whole-access classification: ea < sp, so both count non-stack
        assert (io.reads_nonstack, io.writes_nonstack) == (1, 1)
        # per-byte classification: only the 4 bytes under sp are excl
        assert (row.in_incl, row.in_excl) == (8, 4)
        assert (row.in_unma_incl, row.in_unma_excl) == (8, 4)
        assert (row.out_unma_incl, row.out_unma_excl) == (8, 4)
        assert (row.out_incl, row.out_excl) == (8, 4)
        assert rep.bindings[("main", "main")] == [8, 4]

    @pytest.mark.parametrize("shadow", ["paged", "legacy"])
    def test_subword_access_straddling_sp(self, shadow):
        # sw/lw cover bytes A..A+3 with sp = A+2: two bytes below, two
        # above — on the paged path this runs the exact per-byte pipeline
        rep = _straddle_report(shadow, "sw", "lw", 2)
        row = rep.row("main")
        assert (row.in_incl, row.in_excl) == (4, 2)
        assert (row.in_unma_incl, row.in_unma_excl) == (4, 2)
        assert (row.out_unma_incl, row.out_unma_excl) == (4, 2)
        assert rep.bindings[("main", "main")] == [4, 2]


class TestDistinct:
    @pytest.mark.parametrize("high", [1 << 20, 1 << 40])
    def test_matches_numpy_unique(self, high):
        """The drain's sort-based distinct, for keys that fit 32 bits and
        keys that do not."""
        keys = np.random.default_rng(0).integers(0, high, 5000)
        keys[::7] = keys[3]
        assert np.array_equal(_distinct(keys), np.unique(keys))
        assert _distinct(keys[:0]).size == 0


class TestShadowStats:
    def test_paged_report_carries_footprint_stats(self):
        rep = run_quad(build_program(PIPELINE))
        s = rep.shadow_stats
        assert s is not None and s["shadow_pages"] >= 1
        assert s["interned_kernels"] >= 2
        assert s["resident_bytes"] > 0
        assert "QUAD shadow memory:" in rep.format_stats()

    def test_legacy_report_has_no_stats(self):
        # a deserialized report carries no sink, hence no footprint
        rep = quad_from_json(quad_to_json(run_quad(build_program(PIPELINE))))
        assert rep.shadow_stats is None
        assert "unavailable" in rep.format_stats()


class TestQuadReport:
    def test_table_rendering(self):
        rep = run_quad(build_program(PIPELINE))
        table = rep.format_table()
        assert "producer" in table and "consumer" in table
        assert "_start" not in table  # library routines filtered

    def test_qdu_graph(self):
        rep = run_quad(build_program(PIPELINE))
        g = rep.qdu_graph(include_stack=False)
        assert g.has_edge("producer", "consumer")
        assert g["producer"]["consumer"]["bytes"] == 256
        assert "strlen" not in g

    def test_stack_in_ratio(self):
        rep = run_quad(build_program(PIPELINE))
        assert rep.row("consumer").stack_in_ratio > 1.0

    def test_access_counts(self):
        rep = run_quad(build_program(PIPELINE))
        reads, writes, nreads, nwrites = rep.access_counts("producer")
        assert writes >= 32
        assert nwrites >= 32
        assert reads >= nreads

    def test_report_before_run_rejected(self):
        engine = PinEngine(build_program(PIPELINE))
        tool = QuadTool().attach(engine)
        with pytest.raises(RuntimeError):
            tool.report()


class TestOverheadModel:
    def test_instrumented_profile_inflates_memory_kernels(self):
        prog = build_program(PIPELINE)
        flat = run_gprof(prog)
        quad = run_quad(prog)
        inst = instrumented_profile(flat, quad)
        assert inst.row("producer").self_instructions > \
            flat.row("producer").self_instructions

    def test_cost_model_scaling(self):
        prog = build_program(PIPELINE)
        flat = run_gprof(prog)
        quad = run_quad(prog)
        cheap = instrumented_profile(flat, quad,
                                     InstrumentationCostModel(1, 1, 1))
        pricey = instrumented_profile(flat, quad,
                                      InstrumentationCostModel(10, 1000, 10))
        assert pricey.profiled_instructions > cheap.profiled_instructions

    def test_rank_shift_trends(self):
        prog = build_program(PIPELINE)
        flat = run_gprof(prog)
        quad = run_quad(prog)
        inst = instrumented_profile(flat, quad)
        shifts = rank_shifts(flat, inst)
        assert {s.kernel for s in shifts} == {r.name for r in flat.rows}
        for s in shifts:
            assert s.trend in ("<->", "up", "down", "upup", "downdown")

    def test_non_stack_heavy_kernel_gains_share(self):
        # a kernel with many global accesses must grow relative to a
        # compute-only kernel under instrumentation (the Table III effect)
        src = """
        int big[512];
        int memory_bound() {
            int i; int s = 0;
            for (i = 0; i < 512; i = i + 1) { big[i] = i; s = s + big[i]; }
            return s;
        }
        int compute_bound() {
            int i; int x = 1;
            for (i = 0; i < 2000; i = i + 1) { x = (x * 31 + 7) % 65536; }
            return x;
        }
        int main() { return (memory_bound() + compute_bound()) & 255; }
        """
        prog = build_program(src)
        flat = run_gprof(prog)
        quad = run_quad(prog)
        inst = instrumented_profile(flat, quad)
        gain = (inst.percent("memory_bound") - flat.percent("memory_bound"))
        loss = (inst.percent("compute_bound") - flat.percent("compute_bound"))
        assert gain > 0 > loss
