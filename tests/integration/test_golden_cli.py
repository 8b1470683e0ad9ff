"""Golden regression tests for the ``tquad`` command line.

Each case runs one ``tquad`` invocation in a fresh copy of a small
workspace (a MiniC program, an assembly program and a capture of the
former) and compares its exit code, its stdout and every report file it
writes byte for byte against ``tests/golden/cli/<case>.txt``.  One more
fixture, ``flags.json``, lists every subcommand's option strings,
defaults, choices and actions, so no flag appears, vanishes or changes
its default unnoticed.  Every path in an argv is relative to the
workspace, so no temporary directory enters a fixture.  Stderr is not
pinned: it carries progress lines and, on error paths, wording that may
change; stdout and the exit code are the contract.

After an *intentional* output change, refresh the fixtures with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_cli.py \
        --update-golden

and commit the diff alongside the change that caused it.
"""

import argparse
import json
import pathlib
import shutil

import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
CLI_DIR = GOLDEN_DIR / "cli"

APP_MC = """\
int a[64]; int b[64]; int c[64];
int fill() { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i * 3; } return 0; }
int scale() { int i; for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2; } return 0; }
int reduce() { int i; int s = 0;
    for (i = 0; i < 64; i = i + 1) { s = s + b[i] + c[i]; } return s; }
int main() {
    fill(); scale(); memcpy(c, b, 256);
    print_str("sum "); print_int(reduce()); print_str("\\n");
    return (reduce() >> 5) & 7;
}
"""

APP_S = """\
    .data
buf: .space 64
    .text
    .func main
main:
    li t0, buf
    li t1, 8
loop:
    sd t1, 0(t0)
    ld t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bnez t1, loop
    li a0, 3
    halt
    .endfunc
"""

#: The corpus entry the ``corpus`` cases run: small, and in the PR tier.
ENTRY = "gen-streaming_0055"

#: (case, argv, files the case writes whose bytes are pinned).  Cases
#: reading ``app.capture`` replay a capture recorded at grain 100.
CASES = [
    ("profile-views", ["profile", "app.mc", "--interval", "200", "--figure",
                       "--writes", "--exclude-stack", "--phases",
                       "--top", "3"], []),
    ("profile-figure-default-top", ["profile", "app.mc", "--interval",
                                    "400", "--figure"], []),
    ("profile-quad-stats", ["profile", "app.mc", "--tool", "quad",
                            "--stats", "--json", "q.json"], ["q.json"]),
    ("profile-gprof-callgraph", ["profile", "app.mc", "--tool", "gprof",
                                 "--callgraph", "--json", "g.json"],
     ["g.json"]),
    ("profile-cache-imix", ["profile", "app.mc", "--interval", "200",
                            "--cache", "--imix", "--top", "4"], []),
    ("profile-exclude-libs", ["profile", "app.mc", "--interval", "200",
                              "--exclude-libs", "--json", "p.json"],
     ["p.json"]),
    ("profile-budget", ["profile", "app.mc", "--budget", "100000"], []),
    ("profile-asm", ["profile", "app.s", "--interval", "4"], []),
    ("profile-asm-gprof", ["profile", "app.s", "--tool", "gprof"], []),
    ("profile-from-capture-stats", ["profile", "app.mc", "--from-capture",
                                    "app.capture", "--interval", "200",
                                    "--stats", "--figure", "--phases"], []),
    ("profile-from-capture-quad", ["profile", "app.mc", "--tool", "quad",
                                   "--from-capture", "app.capture",
                                   "--stats"], []),
    ("profile-from-capture-gprof", ["profile", "app.mc", "--tool", "gprof",
                                    "--from-capture", "app.capture",
                                    "--callgraph", "--top", "2"], []),
    ("profile-from-capture-mem-limit", ["profile", "app.mc",
                                        "--from-capture", "app.capture",
                                        "--interval", "200", "--mem-limit",
                                        "64K", "--json", "m.json"],
     ["m.json"]),
    ("profile-from-capture-approx", ["profile", "app.mc", "--from-capture",
                                     "app.capture", "--interval", "200",
                                     "--approx", "0.5", "--approx-seed", "3",
                                     "--json", "a.json"], ["a.json"]),
    ("profile-from-capture-no-page-cache", ["profile", "app.mc",
                                            "--from-capture", "app.capture",
                                            "--no-page-cache"], []),
    ("profile-capture-out", ["profile", "app.mc", "--interval", "200",
                             "--capture-out", "rec.capture", "--phases"],
     []),
    ("profile-capture-out-approx", ["profile", "app.mc", "--interval", "200",
                                    "--capture-out", "rec.capture",
                                    "--approx", "0.5", "--mem-limit",
                                    "64K"], []),
    ("profile-capture-out-gprof", ["profile", "app.mc", "--tool", "gprof",
                                   "--capture-out", "rec.capture"], []),
    ("sweep-in-memory", ["sweep", "app.mc", "--intervals", "100,200",
                         "--stacks", "both,exclude", "--libs",
                         "include,exclude", "--json", "s.json"],
     ["s.json"]),
    ("sweep-capture-out", ["sweep", "app.mc", "--intervals", "100",
                           "--capture-out", "sw.capture", "--label", "lab",
                           "--stats", "--budget", "100000"], []),
    ("sweep-from-capture", ["sweep", "app.mc", "--intervals", "200,400",
                            "--from-capture", "app.capture",
                            "--mem-limit", "64K", "--stacks", "include"],
     []),
    ("sweep-approx", ["sweep", "app.mc", "--intervals", "200",
                      "--from-capture", "app.capture", "--approx", "0.5",
                      "--approx-seed", "2", "--no-page-cache"], []),
    ("capture-run", ["capture", "run", "app.mc", "--out", "c.capture",
                     "--interval", "50", "--tools", "tquad,gprof",
                     "--exclude-libs", "--label", "x"], []),
    ("capture-run-defaults", ["capture", "run", "app.mc", "--out",
                              "d.capture"], []),
    ("capture-info", ["capture", "info", "app.capture"], []),
    ("capture-info-estimate-stats", ["capture", "info", "app.capture",
                                     "--estimate", "--stats"], []),
    ("wfs-views", ["wfs", "--preset", "tiny", "--figure", "--phases"], []),
    ("wfs-writes-top", ["wfs", "--interval", "4000", "--figure",
                        "--writes", "--exclude-stack", "--top", "4"], []),
    ("wfs-report", ["wfs", "--preset", "tiny", "--interval", "4000",
                    "--report", "r.md"], ["r.md"]),
    ("wfs-capture-out", ["wfs", "--capture-out", "w.capture", "--top",
                         "5"], []),
    ("guest-hashjoin", ["guest", "hashjoin", "--phases"], []),
    ("guest-bfs-figure", ["guest", "bfs", "--interval", "1000", "--figure",
                          "--writes", "--top", "4"], []),
    ("guest-wfs", ["guest", "wfs", "--top", "6"], []),
    ("guest-capture-out", ["guest", "stencil", "--capture-out",
                           "g.capture", "--top", "3"], []),
    ("corpus-run", ["corpus", "run", "--only", ENTRY, "--store", "st"], []),
    ("corpus-run-mem-limit", ["corpus", "run", "--only", ENTRY, "--store",
                              "st", "--mem-limit", "64K",
                              "--no-page-cache"], []),
    ("corpus-verify", ["corpus", "verify", "--only", ENTRY, "--store", "st",
                       "--golden", "gold"], []),
    ("corpus-update", ["corpus", "update", "--only", ENTRY, "--store", "st",
                       "--golden", "fresh"], []),
    ("disasm", ["disasm", "app.mc"], []),
    ("disasm-asm", ["disasm", "app.s"], []),
    ("run", ["run", "app.mc"], []),
    ("run-asm", ["run", "app.s", "--budget", "1000"], []),
    ("cluster", ["cluster", "app.mc", "--clusters", "2"], []),
    ("wcet", ["wcet", "app.mc", "reduce", "--bounds", "reduce:64"], []),
    ("wcet-callees", ["wcet", "app.mc", "main", "--bounds", "fill:64",
                      "--bounds", "scale:64", "--bounds", "reduce:64",
                      "--bounds", "memcpy:256"], []),
    ("wcet-missing-bounds", ["wcet", "app.mc", "reduce"], []),
    # usage errors: the exit code and an empty stdout are pinned
    ("error-paper-preset", ["wfs", "--preset", "paper"], []),
    ("error-guest-preset", ["guest", "bfs", "--preset", "bogus"], []),
    ("error-guest-unrunnable", ["guest", "wfs", "--preset", "paper"], []),
    ("error-interval", ["profile", "app.mc", "--interval", "0"], []),
    ("error-mutually", ["profile", "app.mc", "--from-capture",
                        "app.capture", "--capture-out", "x.capture"], []),
    ("error-stats", ["profile", "app.mc", "--stats"], []),
    ("error-mem-limit-floor", ["profile", "app.mc", "--from-capture",
                               "app.capture", "--mem-limit", "12"], []),
    ("error-approx-tool", ["profile", "app.mc", "--from-capture",
                           "app.capture", "--tool", "gprof", "--approx",
                           "0.5"], []),
    ("error-wfs-report-capture", ["wfs", "--report", "r.md",
                                  "--capture-out", "w.capture"], []),
    ("error-capture-mismatch", ["profile", "app.s", "--from-capture",
                                "app.capture"], []),
    ("error-capture-missing", ["capture", "info", "nope.capture"], []),
    ("error-sweep-stacks", ["sweep", "app.mc", "--intervals", "100",
                            "--stacks", "bogus"], []),
    ("error-sweep-grain", ["sweep", "app.mc", "--intervals", "150",
                           "--from-capture", "app.capture"], []),
    ("error-capture-tools", ["capture", "run", "app.mc", "--out",
                             "e.capture", "--tools", "bogus"], []),
    ("error-corpus-jobs", ["corpus", "run", "--jobs", "0", "--store",
                           "st"], []),
    ("error-corpus-entry", ["corpus", "run", "--only", "nope", "--store",
                            "st"], []),
    ("error-unknown-command", ["not-a-command"], []),
]


def _check(path: pathlib.Path, text: str, update: bool) -> None:
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with --update-golden")
    assert text == path.read_text(), (
        f"{path.name} drifted from tests/golden/cli/; if the change is "
        f"intentional, refresh with --update-golden")


@pytest.fixture(scope="module")
def seed(tmp_path_factory):
    """The workspace every case starts from: sources, a capture of
    ``app.mc`` at grain 100, and the corpus entry's golden fixtures."""
    root = tmp_path_factory.mktemp("cli-seed")
    (root / "app.mc").write_text(APP_MC)
    (root / "app.s").write_text(APP_S)
    shutil.copytree(GOLDEN_DIR / "corpus" / ENTRY, root / "gold" / ENTRY)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["capture", "run", "app.mc", "--out", "app.capture",
                     "--interval", "100"]) == 0
    return root


@pytest.mark.parametrize("case, argv, files", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_case(case, argv, files, seed, tmp_path, monkeypatch, capsys,
                  update_golden):
    work = tmp_path / "ws"
    shutil.copytree(seed, work)
    monkeypatch.chdir(work)
    monkeypatch.delenv("TQUAD_NIGHTLY", raising=False)
    capsys.readouterr()
    rc = main(list(argv))
    out = capsys.readouterr().out
    parts = [f"$ tquad {' '.join(argv)}", f"exit {rc}", "----- stdout",
             out]
    for name in files:
        parts += [f"----- {name}", (work / name).read_text()]
    _check(CLI_DIR / f"{case}.txt", "\n".join(parts), update_golden)


def _flags(parser: argparse.ArgumentParser, path: str, table: dict) -> None:
    rows = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _flags(sub, f"{path} {name}", table)
            continue
        key = " ".join(action.option_strings) or action.dest
        rows[key] = {"action": type(action).__name__,
                     "default": action.default,
                     "choices": (list(action.choices)
                                 if action.choices is not None else None),
                     "nargs": action.nargs,
                     "required": action.required}
    table[path] = rows


def test_flag_surface(update_golden):
    """Every subparser's option strings, defaults, choices and actions."""
    table: dict = {}
    _flags(build_parser(), "tquad", table)
    text = json.dumps(table, indent=1, sort_keys=True, default=repr) + "\n"
    _check(CLI_DIR / "flags.json", text, update_golden)
