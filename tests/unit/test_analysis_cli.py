"""Tests for the analysis helpers and the command-line interface."""

import gc
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import (bandwidth_strips, cluster_kernels, downsample,
                            shade_row, sparkline)
from repro.cli import build_parser, main
from repro.minic import build_program
from repro.quad import run_quad


class TestPlots:
    def test_shade_row_monotone(self):
        row = shade_row(np.array([0.0, 0.5, 1.0]), 1.0)
        assert row[0] == " "
        assert row[2] == "@"

    def test_shade_row_zero_max(self):
        assert shade_row(np.zeros(5), 0.0) == "     "

    def test_downsample_max_pooling(self):
        values = np.zeros(100)
        values[57] = 9.0
        pooled = downsample(values, 10)
        assert len(pooled) == 10
        assert pooled[5] == 9.0  # the burst survives pooling

    def test_downsample_short_input_passthrough(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(downsample(v, 10), v)

    def test_bandwidth_strips_renders(self):
        mat = np.array([[0, 10, 0, 0], [5, 5, 5, 5]], dtype=np.int64)
        text = bandwidth_strips(["bursty", "steady"], mat, interval=10,
                                width=4)
        assert "bursty" in text and "steady" in text
        assert "B/ins" in text

    def test_bandwidth_strips_empty(self):
        assert "(no data)" in bandwidth_strips([], np.zeros((0, 0)),
                                               interval=10)

    def test_sparkline(self):
        line = sparkline(np.array([0.0, 1.0, 2.0, 4.0]), width=4)
        assert len(line) == 4
        assert line[-1] == "█"


class TestClustering:
    SRC = """
    int a[64]; int b[64]; int c[64];
    int p1() { int i; for (i=0;i<64;i=i+1) { a[i]=i; } return 0; }
    int p2() { int i; for (i=0;i<64;i=i+1) { b[i]=a[i]*2; } return 0; }
    int q()  { int i; int s=0; for (i=0;i<64;i=i+1) { c[i]=i; s=s+c[i]; } return s; }
    int main() { p1(); p2(); return q() & 7; }
    """

    def test_heavy_edge_clusters_together(self):
        quad = run_quad(build_program(self.SRC))
        result = cluster_kernels(quad, n_clusters=3)
        group = result.cluster_of("p1")
        assert "p2" in group          # p1 -> p2 communicate heavily
        assert "q" not in group       # q is independent

    def test_intra_fraction_increases_with_fewer_clusters(self):
        quad = run_quad(build_program(self.SRC))
        many = cluster_kernels(quad, n_clusters=4)
        few = cluster_kernels(quad, n_clusters=1)
        assert few.intra_fraction >= many.intra_fraction
        assert few.intra_fraction == 1.0

    def test_conservation(self):
        quad = run_quad(build_program(self.SRC))
        result = cluster_kernels(quad, n_clusters=2)
        internal = sum(c.internal_bytes for c in result.clusters)
        assert internal + result.cut_bytes == result.total_bytes

    def test_validation(self):
        quad = run_quad(build_program(self.SRC))
        with pytest.raises(ValueError):
            cluster_kernels(quad, n_clusters=0)


class TestCli:
    def test_import_leaves_networkx_unloaded(self):
        """Every CLI call, corpus worker and benchmark worker imports the
        package and the CLI; only the QDU graph and the clustering use
        networkx, so only they import it.  Likewise the capture, sweep and
        corpus packages load only for the commands that use them."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import repro, repro.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'networkx' or m.split('.')[:2] in "
                "(['repro', 'capture'], ['repro', 'sweep'], "
                "['repro', 'corpus'])))")
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["wfs", "--preset", "tiny", "--phases"])
        assert args.preset == "tiny" and args.phases

    def test_run_command(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text('int main() { print_str("hi\\n"); return 0; }')
        rc = main(["run", str(src)])
        assert rc == 0
        assert "hi" in capsys.readouterr().out

    def test_run_command_trace_out(self, tmp_path, capsys):
        import json

        from repro import obs

        src = tmp_path / "app.mc"
        src.write_text('int main() { print_str("hi\\n"); return 0; }')
        assert main(["run", str(src)]) == 0
        plain = capsys.readouterr()
        trace = tmp_path / "run.json"
        assert main(["run", str(src), "--trace-out", str(trace)]) == 0
        traced = capsys.readouterr()
        assert traced.out == plain.out == "hi\n"
        assert not obs.TELEMETRY.enabled
        events = json.loads(trace.read_text())["traceEvents"]
        runs = [e for e in events if e["name"] == "run"]
        assert sorted(e["cat"] for e in runs) == ["cli", "vm"]
        vm, = (e["args"] for e in runs if e["cat"] == "vm")
        assert vm["peak_close_kib"] >= vm["peak_open_kib"] > 0
        assert any(e["name"] == "superblock" for e in events)
        assert "wrote" in traced.err and "peak +MiB" in traced.err

    def test_profile_gprof(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text("""
        int work() { int i; int s = 0;
            for (i = 0; i < 50; i = i + 1) { s = s + i; } return s; }
        int main() { return work() & 3; }
        """)
        rc = main(["profile", str(src), "--tool", "gprof"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "work" in out and "%time" in out

    def test_profile_tquad_with_figure_and_phases(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text("""
        int a[32];
        int fill() { int i; for (i=0;i<32;i=i+1) { a[i]=i; } return 0; }
        int main() { return fill(); }
        """)
        rc = main(["profile", str(src), "--interval", "100",
                   "--figure", "--phases"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fill" in out
        assert "B/ins" in out

    def test_profile_quad(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text("int g; int main() { g = 1; return g; }")
        rc = main(["profile", str(src), "--tool", "quad"])
        assert rc == 0
        assert "IN(x)" in capsys.readouterr().out

    def test_disasm(self, tmp_path, capsys):
        src = tmp_path / "app.s"
        src.write_text(".text\nmain: li a0, 5\nhalt\n")
        rc = main(["disasm", str(src)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "li a0, 5" in out

    def test_cluster_command(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text("""
        int a[16];
        int w() { int i; for (i=0;i<16;i=i+1) { a[i]=i; } return 0; }
        int r() { int i; int s=0; for (i=0;i<16;i=i+1) { s=s+a[i]; } return s; }
        int main() { w(); return r() & 1; }
        """)
        rc = main(["cluster", str(src), "--clusters", "2"])
        assert rc == 0
        assert "intra-cluster" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        "profile", "wfs", "guest", "sweep", "capture-run", "capture-info",
        "corpus", "run", "cluster", "wcet"])
    def test_trace_out_keeps_stdout(self, command, tmp_path, capsys,
                                    monkeypatch):
        """``--trace-out`` writes a trace with one ``cli`` span, which holds
        every other span (the guest's MiniC compile included), and leaves
        stdout byte-identical to the untraced run."""
        import json

        import repro.minic.driver as driver
        from repro import obs

        compile_unit = driver.compile_unit

        def probed(*args, **kwargs):
            # MiniC compile has no span of its own; this one marks it
            with obs.TELEMETRY.span("compile-probe", cat="test"):
                return compile_unit(*args, **kwargs)

        src = tmp_path / "app.mc"
        src.write_text(TestClustering.SRC)
        hello = tmp_path / "hello.mc"
        hello.write_text('int main() { print_str("hi\\n"); return 0; }')
        cap = tmp_path / "app.capture"
        assert main(["capture", "run", str(src), "--out", str(cap)]) == 0
        monkeypatch.setattr(driver, "compile_unit", probed)
        store = tmp_path / "store"
        argv = {"profile": ["profile", str(src), "--interval", "200",
                            "--phases"],
                "wfs": ["wfs", "--preset", "tiny"],
                "guest": ["guest", "hashjoin", "--top", "4"],
                "sweep": ["sweep", str(src), "--intervals", "100,200"],
                "capture-run": ["capture", "run", str(src), "--out",
                                str(tmp_path / "c.capture")],
                "capture-info": ["capture", "info", str(cap), "--stats",
                                 "--no-page-cache"],
                "corpus": ["corpus", "run", "--only", "gen-streaming_0055",
                           "--store", str(store)],
                "run": ["run", str(hello)],
                "cluster": ["cluster", str(src), "--clusters", "2"],
                "wcet": ["wcet", str(src), "q", "--bounds", "q:64"]}[command]
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr()
        shutil.rmtree(store, ignore_errors=True)
        trace = tmp_path / "trace.json"
        assert main([*argv, "--trace-out", str(trace)]) == 0
        traced = capsys.readouterr()
        assert traced.out == plain.out != ""
        assert not obs.TELEMETRY.enabled
        events = [e for e in json.loads(trace.read_text())["traceEvents"]
                  if e["ph"] != "M"]
        (cli,) = [e for e in events if e["cat"] == "cli"]
        assert cli["name"] == argv[0]
        for e in events:
            assert cli["ts"] <= e["ts"], e["name"]
            assert (e["ts"] + e.get("dur", 0)
                    <= cli["ts"] + cli["dur"] + 1e-3), e["name"]
        compiled = any(e["name"] == "compile-probe" for e in events)
        assert compiled == (command != "capture-info")
        assert "wrote" in traced.err and "peak +MiB" in traced.err

    def test_wfs_paper_preset_refused(self, capsys):
        rc = main(["wfs", "--preset", "paper"])
        assert rc == 2


class TestCsvExport:
    def test_matrix_to_csv(self):
        import numpy as np

        from repro.analysis import matrix_to_csv

        mat = np.array([[10, 0], [5, 5]], dtype=np.int64)
        csv = matrix_to_csv(["a", "b"], mat, interval=10)
        lines = csv.splitlines()
        assert lines[0] == "slice,a,b"
        assert lines[1] == "0,1,0.5"
        assert lines[2] == "1,0,0.5"

    def test_raw_bytes_mode(self):
        import numpy as np

        from repro.analysis import matrix_to_csv

        mat = np.array([[8]], dtype=np.int64)
        csv = matrix_to_csv(["k"], mat, interval=4,
                            bytes_per_instruction=False)
        assert csv.splitlines()[1] == "0,8"


class TestCliErrorPaths:
    """Invalid operands must exit with code 2 (argparse's usage-error
    convention), via a returned int — never an uncaught traceback or a
    SystemExit escaping main().  ``--jobs`` and ``--deadline`` belong to
    ``tquad corpus`` only; every other command rejects them."""

    def _src(self, tmp_path):
        src = tmp_path / "app.mc"
        src.write_text("int main() { return 0; }")
        return str(src)

    def test_profile_zero_interval(self, tmp_path, capsys):
        rc = main(["profile", self._src(tmp_path), "--interval", "0"])
        assert rc == 2
        assert "--interval" in capsys.readouterr().err

    def test_profile_negative_interval(self, tmp_path, capsys):
        rc = main(["profile", self._src(tmp_path), "--interval", "-100"])
        assert rc == 2
        assert "--interval" in capsys.readouterr().err

    def test_profile_zero_jobs(self, tmp_path, capsys):
        rc = main(["profile", self._src(tmp_path), "--jobs", "0"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_profile_negative_jobs(self, tmp_path, capsys):
        rc = main(["profile", self._src(tmp_path), "--jobs", "-4"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_wfs_bad_interval_and_jobs(self, capsys):
        assert main(["wfs", "--interval", "0"]) == 2
        assert main(["wfs", "--jobs", "0"]) == 2
        capsys.readouterr()

    def test_argparse_usage_error_returns_2(self, capsys):
        # unknown subcommand: argparse raises SystemExit(2); main() must
        # convert it to a plain return code
        rc = main(["not-a-command"])
        assert rc == 2
        capsys.readouterr()

    def test_non_integer_jobs_returns_2(self, tmp_path, capsys):
        rc = main(["profile", self._src(tmp_path), "--jobs", "two"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, needle", [
        (["profile", "{src}", "--jobs", "2"], "--jobs"),
        (["wfs", "--jobs", "2"], "--jobs"),
        (["guest", "hashjoin", "--jobs", "2"], "--jobs"),
        (["profile", "{src}", "--deadline", "3"], "--deadline"),
        (["wfs", "--deadline", "3"], "--deadline"),
        (["guest", "hashjoin", "--deadline", "3"], "--deadline"),
        (["sweep", "{src}", "--intervals", "50", "--deadline", "3"],
         "--deadline"),
        (["capture", "run", "{src}", "--out", "{out}", "--deadline", "3"],
         "--deadline"),
    ])
    def test_worker_pool_flags_only_on_corpus(self, tmp_path, capsys,
                                              argv, needle):
        src, out = self._src(tmp_path), str(tmp_path / "app.capture")
        rc = main([a.format(src=src, out=out) for a in argv])
        assert rc == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "app.capture").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["profile", "nope.mc"], id="missing-profile"),
        pytest.param(["run", "nope.mc"], id="missing-run"),
        pytest.param(["sweep", "nope.mc", "--intervals", "100"],
                     id="missing-sweep"),
        pytest.param(["capture", "run", "nope.mc", "--out", "x.capture"],
                     id="missing-capture-run"),
        pytest.param(["cluster", "nope.mc"], id="missing-cluster"),
        pytest.param(["profile", "bad.mc"], id="minic-profile"),
        pytest.param(["disasm", "bad.mc"], id="minic-disasm"),
        pytest.param(["run", "app.mc", "--budget", "-1"],
                     id="negative-budget"),
        pytest.param(["cluster", "app.mc", "--clusters", "0"],
                     id="zero-clusters"),
        *(pytest.param([*command, "--top", top], id=f"{command[0]}-top{top}")
          for command in (["profile", "app.mc", "--interval", "200"],
                          ["wfs"], ["guest", "hashjoin"])
          for top in ("0", "-1")),
        pytest.param(["wcet", "app.mc", "main", "--bounds", "main:x"],
                     id="bad-bounds"),
        pytest.param(["profile", "app.mc", "--json", "missing/dir/x.json"],
                     id="json-dir-missing"),
    ])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, monkeypatch,
                                             capsys, argv):
        """A missing file, a MiniC error or a bad operand is a usage error:
        exit 2 and one ``error:`` line (or argparse's usage and error
        lines), never a traceback."""
        monkeypatch.chdir(tmp_path)
        self._src(tmp_path)
        (tmp_path / "bad.mc").write_text("int main() {\n  return 1 +;\n}\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if err.startswith("error:"):
            assert err.count("\n") == 1, err
        else:
            assert err.startswith("usage:") and "error: argument" in err
        if "bad.mc" in argv:
            assert "line 2:13:" in err  # the MiniC line and column

    @pytest.mark.parametrize("argv, fault", [
        pytest.param(["run", "fault.mc"], "MemoryFault", id="run-fault"),
        pytest.param(["profile", "fault.mc"], "MemoryFault",
                     id="profile-fault"),
        pytest.param(["run", "loop.mc", "--budget", "1000"],
                     "InstructionBudgetExceeded", id="run-budget"),
        pytest.param(["run", "loop.mc", "--budget", "0"],
                     "InstructionBudgetExceeded", id="run-zero-budget"),
        pytest.param(["capture", "run", "fault.mc", "--out", "f.capture"],
                     "MemoryFault", id="capture-run-fault"),
        pytest.param(["profile", "fault.mc", "--capture-out", "f.capture"],
                     "MemoryFault", id="capture-out-fault"),
        pytest.param(["sweep", "loop.mc", "--intervals", "100", "--budget",
                      "10"], "InstructionBudgetExceeded",
                     id="sweep-budget"),
    ])
    def test_guest_fault_exits_1_with_one_line(self, tmp_path, monkeypatch,
                                               capsys, argv, fault):
        """A faulting or runaway guest exits 1 with one line naming the
        fault, its pc and its icount; a capture it was recording is
        deleted, and no half-written archive is left to the collector."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fault.mc").write_text(
            "int main() { int *p; p = 0; return *p; }")
        (tmp_path / "loop.mc").write_text(
            "int main() { int i; i = 0; while (1) { i = i + 1; } "
            "return i; }")
        (tmp_path / "f.capture").write_bytes(b"an earlier capture")
        assert main(argv) == 1
        gc.collect()
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: {fault}: [^\n]* at pc=0x[0-9a-f]+ icount=\d+\n", err)
        assert ("f.capture" in argv) != (tmp_path / "f.capture").exists()
        assert unraisable == []

    @pytest.mark.parametrize("body, budget, fault", [
        ("return *p;", [], "MemoryFault"),
        ("while (1) { p = p + 8; } return 0;", ["--budget", "200"],
         "InstructionBudgetExceeded"),
    ], ids=["fault", "budget"])
    def test_run_keeps_stdout_before_fault(self, tmp_path, capsys, body,
                                           budget, fault):
        """``tquad run`` prints what the guest wrote before it faulted or
        ran out of budget, then the one error line, and exits 1."""
        src = tmp_path / "pf.mc"
        src.write_text("int main() { int *p; p = 0; "
                       f'print_str("before\\n"); {body} }}')
        assert main(["run", str(src), *budget]) == 1
        out, err = capsys.readouterr()
        assert out == "before\n"
        assert re.fullmatch(
            rf"error: {fault}: [^\n]* at pc=0x[0-9a-f]+ icount=\d+\n", err)
