"""Tests for the analysis helpers and the command-line interface."""

import numpy as np
import pytest

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
