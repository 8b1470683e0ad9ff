"""Self-test of the benchmark, at the ``--smoke`` scale.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Tier-1 (``testpaths = ["tests"]``) does not collect it.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro import obs, serialize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Seconds the slowed render layer sleeps per ``sweep_to_json`` call.
DELAY = 0.3


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_set(tmp_path_factory):
    """One traced smoke set of all four workloads, and its wall time."""
    t0 = time.perf_counter()
    proc = _run("--seconds", "0.5", "--trace", "--json",
                str(tmp_path_factory.mktemp("set") / "set.json"))
    return proc, time.perf_counter() - t0


def test_all_workloads_correct_within_90s(traced_set):
    proc, wall = traced_set
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOAD_NAMES) * run.MIN_OPS
    assert wall < 90


def test_every_metric_printed_with_its_unit(traced_set):
    proc, _ = traced_set
    for name in run.WORKLOAD_NAMES:
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            line = (rf"^{re.escape(name)}\s+{re.escape(m['name'])}\s+\S+ "
                    rf"{re.escape(m['unit'])}$")
            assert re.search(line, proc.stdout, re.M), (name, m["name"])
    assert set(_result(proc)["metrics"]) == {
        f"{name}/{m['name']}" for name in run.WORKLOAD_NAMES
        for m in BENCH["per_layer"]}


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_bounded_cold_spills(traced_set):
    proc, _ = traced_set
    metrics = _result(proc)["metrics"]
    assert metrics["pointer-bounded-cold/stream.spill_bytes"]["value"] > 0


def test_corrupted_digest_fails_every_op(tmp_path, monkeypatch, capsys):
    data = json.loads(run.EXPECTED.read_text())
    data["scales"]["smoke"]["pointer-warm-replay"]["7"]["sweep.json"] = \
        "0" * 64
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(data))
    monkeypatch.setattr(run, "EXPECTED", expected)
    # run.main points TMPDIR into its work directory, which it removes
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", None)
    assert run.main(["--smoke", "--workload", "pointer-warm-replay",
                     "--seconds", "0.2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^pointer-warm-replay\s+fail_rate\s+1 fraction$",
                     out, re.M), out
    result = json.loads(out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_slowed_render_layer_moves_only_its_workload(tmp_path,
                                                     monkeypatch):
    """``sweep_to_json`` made slower shows in ``render.s`` and ``op_s`` of
    the warm replay, which renders a sweep, and not in ``wfs-live``."""
    fast = serialize.sweep_to_json

    def slow(result, **kw):
        time.sleep(DELAY)
        return fast(result, **kw)

    wls = [workloads.make(name, "smoke", 7, tmp_path / name)
           for name in ("wfs-live", "pointer-warm-replay")]
    for wl in wls:
        wl.prepare()
        wl.setup()
        wl.op(workloads.untraced)
    op_s = {(wl.name, s): [] for wl in wls for s in (False, True)}
    render_s = {}
    for rep in range(5):
        for slowed in (False, True):
            monkeypatch.setattr(serialize, "sweep_to_json",
                                slow if slowed else fast)
            for wl in wls:
                t0 = time.perf_counter()
                wl.op(workloads.untraced)
                op_s[wl.name, slowed].append(time.perf_counter() - t0)
    for slowed in (False, True):
        monkeypatch.setattr(serialize, "sweep_to_json",
                            slow if slowed else fast)
        tele = obs.Telemetry(enabled=True)
        worker.traced_op(wls[1], tele, 0)
        render_s[slowed] = worker.op_breakdown(tele.events, 0)[
            "layers"]["render"]

    warm = "pointer-warm-replay"
    assert render_s[True] - render_s[False] > 0.8 * DELAY
    assert (statistics.median(op_s[warm, True])
            - statistics.median(op_s[warm, False])) > 0.8 * DELAY
    # the minimum of interleaved reps filters host contention bursts
    bound = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "minstr_per_s")
    assert min(op_s["wfs-live", True]) <= \
        (1 + bound) * min(op_s["wfs-live", False])
