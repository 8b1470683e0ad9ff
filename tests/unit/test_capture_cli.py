"""CLI tests for the capture workflow: ``tquad capture run/info``,
``--capture-out``, and ``--from-capture`` — happy paths print byte-identical
reports, and every misuse or bad file fails with a clean exit-2 message."""

import pytest

from repro.cli import main

APP = """
int a[64];
int w() { int i; for (i = 0; i < 64; i++) { a[i] = i; } return 0; }
int r() { int i; int s = 0; for (i = 0; i < 64; i++) { s += a[i]; } return s; }
int main() { w(); return r() & 15; }
"""

OTHER = "int main() { return 1; }\n"


@pytest.fixture()
def app(tmp_path):
    path = tmp_path / "app.mc"
    path.write_text(APP)
    return path


@pytest.fixture()
def capture(app, tmp_path, capsys):
    path = tmp_path / "app.capture"
    rc = main(["capture", "run", str(app), "--out", str(path),
               "--interval", "250"])
    assert rc == 0
    capsys.readouterr()
    return path


class TestCaptureRun:
    def test_run_reports_streams(self, app, tmp_path, capsys):
        out = tmp_path / "c.capture"
        rc = main(["capture", "run", str(app), "--out", str(out),
                   "--interval", "500", "--label", "smoke"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "instructions" in text and "streams" in text
        assert out.exists()

    def test_info_summarises_manifest(self, capture, capsys):
        rc = main(["capture", "info", str(capture)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grain=250" in out
        assert "tquad.read" in out and "quad.raw" in out

    def test_tool_subset(self, app, tmp_path, capsys):
        out = tmp_path / "g.capture"
        rc = main(["capture", "run", str(app), "--out", str(out),
                   "--tools", "gprof"])
        assert rc == 0
        rc = main(["capture", "info", str(out)])
        assert rc == 0
        assert "tools: gprof" in capsys.readouterr().out

    def test_bad_tools_rejected(self, app, tmp_path, capsys):
        rc = main(["capture", "run", str(app), "--out", "x", "--tools",
                   "tquad,bogus"])
        assert rc == 2
        assert "--tools" in capsys.readouterr().err

    def test_bad_interval_rejected(self, app, capsys):
        rc = main(["capture", "run", str(app), "--out", "x",
                   "--interval", "0"])
        assert rc == 2
        assert "--interval" in capsys.readouterr().err

    def test_info_missing_file(self, tmp_path, capsys):
        rc = main(["capture", "info", str(tmp_path / "nope.capture")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestReplayMatchesDirect:
    @pytest.mark.parametrize("argv", [
        ["--interval", "500"],
        ["--interval", "1000", "--figure", "--phases"],
        ["--tool", "gprof", "--callgraph"],
        ["--tool", "quad", "--stats"],
    ])
    def test_from_capture_prints_identically(self, app, capture, capsys,
                                             argv):
        assert main(["profile", str(app), *argv]) == 0
        direct = capsys.readouterr().out
        assert main(["profile", str(app), *argv,
                     "--from-capture", str(capture)]) == 0
        assert capsys.readouterr().out == direct

    def test_capture_out_prints_identically(self, app, tmp_path, capsys):
        assert main(["profile", str(app), "--interval", "500"]) == 0
        direct = capsys.readouterr().out
        out = tmp_path / "rec.capture"
        assert main(["profile", str(app), "--interval", "500",
                     "--capture-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == direct
        assert str(out) in captured.err
        # and the file it wrote replays identically too
        assert main(["profile", str(app), "--interval", "500",
                     "--from-capture", str(out)]) == 0
        assert capsys.readouterr().out == direct

    def test_jobs_capture_out_prints_the_replay(self, app, tmp_path,
                                                capsys):
        # sharded capture tools record only: the printed report is the
        # replay of the merged file, identical to the serial run's
        assert main(["profile", str(app), "--interval", "500"]) == 0
        direct = capsys.readouterr().out
        out = tmp_path / "jobs.capture"
        assert main(["profile", str(app), "--interval", "500",
                     "--jobs", "2", "--capture-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == direct
        assert str(out) in captured.err
        assert main(["profile", str(app), "--interval", "500",
                     "--from-capture", str(out)]) == 0
        assert capsys.readouterr().out == direct

    def test_json_export_from_capture(self, app, capture, tmp_path,
                                      capsys):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["profile", str(app), "--interval", "500",
                     "--json", str(j1)]) == 0
        assert main(["profile", str(app), "--interval", "500",
                     "--json", str(j2), "--from-capture",
                     str(capture)]) == 0
        assert j1.read_text() == j2.read_text()


class TestUsageErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["--from-capture", "c", "--capture-out", "d"], "mutually"),
        (["--from-capture", "c", "--jobs", "2"], "--jobs"),
        (["--from-capture", "c", "--cache"], "--cache"),
        (["--from-capture", "c", "--imix"], "--cache"),
        # QUAD has one shadow: --shadow is no longer a flag
        (["--tool", "quad", "--shadow", "legacy"], "legacy"),
        (["--tool", "quad", "--shadow", "paged"], "paged"),
        (["--capture-out", "d", "--jobs", "2", "--tool", "gprof"],
         "--tool tquad"),
    ])
    def test_flag_combinations(self, app, capsys, argv, needle):
        rc = main(["profile", str(app), *argv])
        assert rc == 2
        assert needle in capsys.readouterr().err

    def test_missing_capture_file(self, app, tmp_path, capsys):
        rc = main(["profile", str(app), "--from-capture",
                   str(tmp_path / "nope.capture")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_capture_file(self, app, tmp_path, capsys):
        bad = tmp_path / "bad.capture"
        bad.write_bytes(b"garbage, not a zip container")
        rc = main(["profile", str(app), "--from-capture", str(bad)])
        assert rc == 2
        assert "not a capture" in capsys.readouterr().err

    def test_wrong_program_rejected(self, capture, tmp_path, capsys):
        other = tmp_path / "other.mc"
        other.write_text(OTHER)
        rc = main(["profile", str(other), "--from-capture", str(capture)])
        assert rc == 2
        assert "different program" in capsys.readouterr().err

    def test_non_multiple_interval_rejected(self, app, capture, capsys):
        rc = main(["profile", str(app), "--interval", "375",
                   "--from-capture", str(capture)])
        assert rc == 2
        assert "multiple" in capsys.readouterr().err

    def test_exclude_libs_derives_from_marked_capture(self, app, capture,
                                                      capsys):
        # captures record library-marked kernel ids, so the exclude-libs
        # view is derivable — and byte-identical to the direct run
        assert main(["profile", str(app), "--interval", "500",
                     "--exclude-libs"]) == 0
        direct = capsys.readouterr().out
        rc = main(["profile", str(app), "--interval", "500",
                   "--exclude-libs", "--from-capture", str(capture)])
        assert rc == 0
        assert capsys.readouterr().out == direct

    def test_include_libs_from_dropped_capture_rejected(self, app, tmp_path,
                                                        capsys):
        # the reverse is impossible: rows dropped at record time are gone
        path = tmp_path / "nolib.capture"
        assert main(["capture", "run", str(app), "--out", str(path),
                     "--interval", "250", "--exclude-libs"]) == 0
        capsys.readouterr()
        rc = main(["profile", str(app), "--interval", "500",
                   "--from-capture", str(path)])
        assert rc == 2
        assert "--exclude-libs" in capsys.readouterr().err

    def test_missing_tool_stream_rejected(self, app, tmp_path, capsys):
        out = tmp_path / "g.capture"
        assert main(["capture", "run", str(app), "--out", str(out),
                     "--tools", "tquad"]) == 0
        capsys.readouterr()
        rc = main(["profile", str(app), "--tool", "gprof",
                   "--from-capture", str(out)])
        assert rc == 2
        assert "gprof" in capsys.readouterr().err

    def test_wfs_report_flag_conflicts(self, tmp_path, capsys):
        for flag in ("--from-capture", "--capture-out"):
            rc = main(["wfs", "--report", str(tmp_path / "r.md"), flag,
                       str(tmp_path / "c.capture")])
            assert rc == 2
            assert "--report" in capsys.readouterr().err


class TestWfsCapture:
    def test_wfs_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "wfs.capture"
        assert main(["wfs", "--preset", "tiny", "--interval", "2500"]) == 0
        direct = capsys.readouterr().out
        assert main(["wfs", "--preset", "tiny", "--interval", "2500",
                     "--capture-out", str(out)]) == 0
        assert capsys.readouterr().out == direct
        assert main(["wfs", "--preset", "tiny", "--interval", "2500",
                     "--from-capture", str(out)]) == 0
        assert capsys.readouterr().out == direct


class TestGuestCapture:
    """``tquad guest`` capture round-trips and the preset-label check.

    Guest presets that differ only in workspace *data* (``tiny`` vs
    ``tiny-alt``) compile to the identical binary, so ``program_sha256``
    matches across them — only the manifest label can reject the replay.
    """

    def test_guest_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "join.capture"
        base = ["guest", "hashjoin", "--preset", "tiny",
                "--interval", "500"]
        assert main(base) == 0
        direct = capsys.readouterr().out
        assert main([*base, "--capture-out", str(out)]) == 0
        assert capsys.readouterr().out == direct
        assert main([*base, "--from-capture", str(out)]) == 0
        assert capsys.readouterr().out == direct

    @pytest.mark.parametrize("app", ["hashjoin", "bfs", "stencil"])
    def test_same_sha_other_preset_rejected(self, app, tmp_path, capsys):
        from repro.apps.registry import GUEST_APPS
        from repro.capture import program_digest

        guest = GUEST_APPS[app]
        assert (program_digest(guest.build_program(guest.config("tiny")))
                == program_digest(guest.build_program(
                    guest.config("tiny-alt")))), \
            "presets no longer share a binary; the label check is untested"
        out = tmp_path / f"{app}.capture"
        assert main(["guest", app, "--preset", "tiny",
                     "--capture-out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["guest", app, "--preset", "tiny-alt",
                   "--from-capture", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{app}-tiny" in err and f"{app}-tiny-alt" in err

    def test_wfs_label_mismatch_rejected(self, tmp_path, capsys):
        # wfs presets differ in size, so the digest check fires first for
        # them — but a label-less path mismatch still reads cleanly
        out = tmp_path / "wfs.capture"
        assert main(["wfs", "--preset", "tiny",
                     "--capture-out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["wfs", "--preset", "small",
                   "--from-capture", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unlabelled_capture_still_replays(self, tmp_path, capsys):
        # plain `capture run` of the same binary has no label: accepted
        from repro.apps.hashjoin import TINY_JOIN, join_source

        src = tmp_path / "join.mc"
        src.write_text(join_source(TINY_JOIN))
        out = tmp_path / "plain.capture"
        assert main(["capture", "run", str(src), "--out", str(out),
                     "--interval", "500"]) == 0
        capsys.readouterr()
        rc = main(["guest", "hashjoin", "--preset", "tiny",
                   "--interval", "500", "--from-capture", str(out)])
        assert rc == 0

    def test_unknown_preset_rejected(self, capsys):
        rc = main(["guest", "bfs", "--preset", "bogus"])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_unrunnable_preset_rejected(self, capsys):
        rc = main(["guest", "wfs", "--preset", "paper"])
        assert rc == 2
        assert "not runnable" in capsys.readouterr().err
