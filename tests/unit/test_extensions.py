"""Tests for the extension features: MiniC syntax sugar, single-sided stack
policies, multi-pass averaging, partial reports, call-graph rendering, and
report serialisation."""

import pytest

from repro.core import (MultiPassResult, StackPolicy, TQuadOptions,
                        TQuadTool, profile_passes, run_tquad)
from repro.gprofsim import run_gprof
from repro.minic import MiniCError, build_program, run_minic
from repro.pin import PinEngine
from repro.quad import run_quad
from repro.serialize import (flat_from_json, flat_to_json, quad_from_json,
                             quad_to_dict, quad_to_json, tquad_from_json,
                             tquad_to_json)
from repro.vm import InstructionBudgetExceeded


class TestMiniCSyntaxSugar:
    @pytest.mark.parametrize("body,expected", [
        ("int s = 5; s += 3; return s;", 8),
        ("int s = 5; s -= 3; return s;", 2),
        ("int s = 5; s *= 3; return s;", 15),
        ("int s = 7; s /= 2; return s;", 3),
        ("int s = 7; s %= 4; return s;", 3),
        ("int s = 12; s &= 10; return s;", 8),
        ("int s = 12; s |= 3; return s;", 15),
        ("int s = 12; s ^= 10; return s;", 6),
        ("int s = 1; s <<= 4; return s;", 16),
        ("int s = 64; s >>= 2; return s;", 16),
        ("int i = 5; i++; return i;", 6),
        ("int i = 5; i--; return i;", 4),
    ])
    def test_compound_and_incdec(self, body, expected):
        m = run_minic("int main() { " + body + " }")
        assert m.exit_code == expected

    def test_for_with_increment_step(self):
        m = run_minic("""
        int main() {
            int s = 0;
            for (int i = 0; i < 5; i++) { s += i; }
            return s;
        }
        """)
        assert m.exit_code == 10

    def test_compound_on_array_and_pointer(self):
        m = run_minic("""
        int a[4];
        int main() {
            a[1] = 10;
            a[1] += 5;
            int* p = &a[1];
            *p *= 2;
            return a[1];
        }
        """)
        assert m.exit_code == 30

    def test_float_compound(self):
        m = run_minic("""
        int main() {
            float x = 1.5;
            x *= 4.0;
            x += 1.0;
            return (int)x;
        }
        """)
        assert m.exit_code == 7

    def test_do_while_runs_at_least_once(self):
        m = run_minic("""
        int main() {
            int n = 0;
            do { n++; } while (n < 0);
            return n;
        }
        """)
        assert m.exit_code == 1

    def test_do_while_with_break_continue(self):
        m = run_minic("""
        int main() {
            int n = 0; int s = 0;
            do {
                n++;
                if (n % 2 == 0) { continue; }
                if (n > 9) { break; }
                s += n;
            } while (n < 100);
            return s;  // 1+3+5+7+9 = 25
        }
        """)
        assert m.exit_code == 25

    def test_call_in_compound_target_rejected(self):
        with pytest.raises(MiniCError):
            build_program("int a[4]; int f() { return 0; } "
                          "int main() { a[f()] += 1; return 0; }")

    def test_compound_on_non_lvalue_rejected(self):
        with pytest.raises(MiniCError):
            build_program("int main() { 1 += 2; return 0; }")


ONE_KERNEL = """
int g[32];
int main() {
    int i;
    for (i = 0; i < 32; i++) { g[i] = i; }
    int s = 0;
    for (i = 0; i < 32; i++) { s += g[i]; }
    return s & 255;
}
"""


class TestSingleSidedPolicies:
    def test_include_only_records_only_included(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=10**6,
                                             stack=StackPolicy.INCLUDE))
        s = rep.series("main")
        assert s.total(write=True, include_stack=True) > 0
        assert s.total(write=True, include_stack=False) == 0

    def test_exclude_only_records_only_excluded(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=10**6,
                                             stack=StackPolicy.EXCLUDE))
        s = rep.series("main")
        assert s.total(write=True, include_stack=True) == 0
        assert s.total(write=True, include_stack=False) == 32 * 8

    def test_sides_agree_with_both(self):
        both = run_tquad(build_program(ONE_KERNEL),
                         options=TQuadOptions(slice_interval=10**6))
        incl = run_tquad(build_program(ONE_KERNEL),
                         options=TQuadOptions(slice_interval=10**6,
                                              stack=StackPolicy.INCLUDE))
        excl = run_tquad(build_program(ONE_KERNEL),
                         options=TQuadOptions(slice_interval=10**6,
                                              stack=StackPolicy.EXCLUDE))
        b = both.series("main")
        assert incl.series("main").total(write=False, include_stack=True) \
            == b.total(write=False, include_stack=True)
        assert excl.series("main").total(write=False, include_stack=False) \
            == b.total(write=False, include_stack=False)


class TestMultiPass:
    def _build(self):
        return build_program(ONE_KERNEL), None

    def test_profile_passes(self):
        result = profile_passes(self._build, [50, 200, 1000])
        assert result.intervals == [50, 200, 1000]
        assert result.total_bytes_consistent()
        est = result.average_bandwidth("main", write=False,
                                       include_stack=True)
        assert est.minimum <= est.mean <= est.maximum

    def test_upper_bound_marker(self):
        result = profile_passes(self._build, [50, 5000])
        est = result.average_bandwidth("main", write=False,
                                       include_stack=True)
        rendered = est.render()
        if est.is_upper_bound:
            assert rendered.startswith("<")
        else:
            assert not rendered.startswith("<")

    def test_format_table(self):
        result = profile_passes(self._build, [100, 400])
        text = result.format_table()
        assert "main" in text and "avgR(i)" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiPassResult(reports={})


class TestPartialReports:
    def test_partial_report_after_crash(self):
        src = """
        int g[16];
        int main() {
            int i;
            for (i = 0; i < 16; i++) { g[i] = i; }
            while (1) { g[0] += 1; }   // never exits
            return 0;                  // unreachable
        }
        """
        engine = PinEngine(build_program(src))
        tool = TQuadTool(TQuadOptions(slice_interval=100)).attach(engine)
        with pytest.raises(InstructionBudgetExceeded):
            engine.run(max_instructions=5000)
        with pytest.raises(RuntimeError):
            tool.report()
        rep = tool.report(allow_partial=True)
        assert not rep.complete
        assert rep.series("main").total(write=True, include_stack=False) > 0

    def test_complete_flag_true_normally(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=1000))
        assert rep.complete


class TestCallGraphRendering:
    def test_call_graph_sections(self):
        src = """
        int leaf(int x) { return x + 1; }
        int mid(int x) { return leaf(x) + leaf(x + 1); }
        int main() { return mid(1) & 7; }
        """
        flat = run_gprof(build_program(src))
        text = flat.format_call_graph()
        assert "-> leaf" in text
        assert "<- mid" in text
        assert "[   1]" in text


class TestSerialization:
    def test_tquad_roundtrip(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=100))
        back = tquad_from_json(tquad_to_json(rep))
        assert back.total_instructions == rep.total_instructions
        assert back.interval == rep.interval
        assert back.kernels() == rep.kernels()
        s0, s1 = rep.series("main"), back.series("main")
        assert list(s0.slices) == list(s1.slices)
        assert list(s0.read_incl) == list(s1.read_incl)
        assert back.format_table() == rep.format_table()

    def test_tquad_roundtrip_preserves_options(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=100,
                                             stack=StackPolicy.EXCLUDE,
                                             exclude_libraries=True,
                                             kernels=("main",)))
        back = tquad_from_json(tquad_to_json(rep))
        assert back.options == rep.options

    def test_flat_roundtrip(self):
        flat = run_gprof(build_program(ONE_KERNEL), main_image_only=False)
        back = flat_from_json(flat_to_json(flat))
        assert back.format_table() == flat.format_table()
        assert back.edges == flat.edges
        assert back.machine == flat.machine

    def test_quad_export(self):
        quad = run_quad(build_program(ONE_KERNEL))
        data = quad_to_dict(quad)
        main = data["kernels"]["main"]
        row = quad.row("main")
        assert main["in_unma_excl"] == row.in_unma_excl
        assert main["in_excl"] == row.in_excl
        assert any(b["producer"] == "main" for b in data["bindings"])

    def test_quad_roundtrip(self):
        quad = run_quad(build_program(ONE_KERNEL))
        back = quad_from_json(quad_to_json(quad))
        assert back.format_table() == quad.format_table()
        assert back.bindings.keys() == quad.bindings.keys()
        assert back.total_instructions == quad.total_instructions
        # UnMA sets collapse to cardinalities on export — the round-trip
        # re-serialises byte-identically all the same
        assert quad_to_json(back) == quad_to_json(quad)

    def test_quad_kind_mismatch_rejected(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=100))
        with pytest.raises(ValueError):
            quad_from_json(tquad_to_json(rep))

    def test_kind_mismatch_rejected(self):
        rep = run_tquad(build_program(ONE_KERNEL),
                        options=TQuadOptions(slice_interval=100))
        blob = tquad_to_json(rep)
        with pytest.raises(ValueError):
            flat_from_json(blob)

    def test_each_json_render_is_one_render_span(self):
        """One ``render`` span per public ``*_to_json`` call, a sweep's
        cells included in its own; tQUAD kinds count the history rows."""
        from repro import obs
        from repro.serialize import sweep_to_json
        from repro.sweep.engine import SweepResult
        from repro.sweep.grid import SweepGrid

        program = build_program(ONE_KERNEL)
        reps = [run_tquad(program, options=TQuadOptions(slice_interval=n))
                for n in (100, 200)]
        grid = SweepGrid(intervals=(100, 200))
        sweep = SweepResult(grid=grid,
                            reports=dict(zip(grid.cells(), reps)),
                            total_instructions=reps[0].total_instructions,
                            grain=100, stats={})
        rows = [r.ledger.table()[2].size for r in reps]
        obs.reset()
        obs.enable()
        try:
            tquad_to_json(reps[0])
            sweep_to_json(sweep)
            quad_to_json(run_quad(program))
        finally:
            obs.disable()
        spans = [(cat, {k: args[k] for k in ("kind", "rows") if k in args})
                 for name, cat, _ts, _dur, _tid, args
                 in obs.TELEMETRY.take_events() if name == "render"]
        assert spans == [
            ("render", {"kind": "tquad", "rows": rows[0]}),
            ("render", {"kind": "tquad_sweep", "rows": sum(rows)}),
            ("render", {"kind": "quad"})]
        assert rows[0] > rows[1] > 0
