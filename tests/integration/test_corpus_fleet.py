"""The capture-corpus regression fleet end to end.

Covers the ``repro.corpus`` engine (run/verify/update round-trips, drift
and stale-fixture detection, capture-store reuse) and the ``tquad
corpus`` CLI (exit codes, fleet-report JSON), plus the guardrail that
the *committed* golden tree verifies clean for the PR tier.
"""

import json
import zipfile

import pytest

from repro.cli import main
from repro.corpus import (ARTIFACTS, CaptureStore, fleet_entries,
                          run_fleet, update_fleet, verify_fleet)

ENTRY = "gen-streaming_0055"     # smallest roster entry: fast fixture


@pytest.fixture()
def store(tmp_path):
    return CaptureStore(tmp_path / "store")


class TestRoster:
    def test_pr_tier_is_a_strict_subset(self):
        pr = {e.name for e in fleet_entries(nightly=False)}
        full = {e.name for e in fleet_entries(nightly=True)}
        assert pr < full
        assert len(pr) >= 8

    def test_entry_names_and_labels_unique(self):
        entries = fleet_entries(nightly=True)
        assert len({e.name for e in entries}) == len(entries)
        assert len({e.label for e in entries}) == len(entries)

    def test_unknown_only_filter(self):
        with pytest.raises(KeyError):
            fleet_entries(only="no-such-entry")


class TestFleetEngine:
    def test_update_then_verify_roundtrip(self, tmp_path, store):
        golden = tmp_path / "golden"
        up = update_fleet(golden_root=golden, store=store, only=ENTRY)
        assert up.ok and up.exit_code == 0
        for name in ARTIFACTS:
            assert (golden / ENTRY / name).exists()
        ver = verify_fleet(golden_root=golden, store=store, only=ENTRY)
        assert ver.ok
        assert ver.captures_reused == 1 and ver.captures_executed == 0

    def test_drift_detected_per_artifact(self, tmp_path, store):
        golden = tmp_path / "golden"
        update_fleet(golden_root=golden, store=store, only=ENTRY)
        path = golden / ENTRY / "tquad.txt"
        path.write_text(path.read_text() + "tampered\n")
        ver = verify_fleet(golden_root=golden, store=store, only=ENTRY)
        assert not ver.ok and ver.exit_code == 1
        (entry,) = ver.entries
        assert entry.status == "drift"
        assert entry.drifted == ["tquad.txt"]

    def test_missing_fixture_detected(self, tmp_path, store):
        golden = tmp_path / "golden"
        update_fleet(golden_root=golden, store=store, only=ENTRY)
        (golden / ENTRY / "meta.json").unlink()
        ver = verify_fleet(golden_root=golden, store=store, only=ENTRY)
        (entry,) = ver.entries
        assert entry.status == "missing"
        assert entry.missing == ["meta.json"]

    def test_stale_fixture_detected_and_pruned(self, tmp_path, store):
        golden = tmp_path / "golden"
        update_fleet(golden_root=golden, store=store, only=ENTRY)
        ghost = golden / "renamed-away"
        ghost.mkdir()
        (ghost / "meta.json").write_text("{}")
        ver = verify_fleet(golden_root=golden, store=store)
        assert any(e.status == "stale" and e.name == "renamed-away"
                   for e in ver.entries)
        assert ver.exit_code == 1
        update_fleet(golden_root=golden, store=store)
        assert not ghost.exists()

    def test_only_filter_skips_stale_scan(self, tmp_path, store):
        golden = tmp_path / "golden"
        update_fleet(golden_root=golden, store=store, only=ENTRY)
        (golden / "renamed-away").mkdir()
        ver = verify_fleet(golden_root=golden, store=store, only=ENTRY)
        assert ver.ok, "focused verify must not police other fixtures"

    def test_store_reuses_captures_across_modes(self, tmp_path, store):
        run_fleet(store=store, only=ENTRY)
        assert store.misses == 1
        run_fleet(store=store, only=ENTRY)
        assert store.misses == 1 and store.hits >= 1

    def test_corrupt_store_entry_recaptured(self, tmp_path, store):
        run_fleet(store=store, only=ENTRY)
        (capture_file,) = (p for p in store.root.iterdir()
                           if p.suffix == ".capture")
        capture_file.write_bytes(b"truncated garbage")
        report = run_fleet(store=store, only=ENTRY)
        assert report.ok
        assert store.misses == 2

    def test_version_1_store_entry_recaptured(self, tmp_path, store):
        """A capture of an older format in the store is recorded again,
        with the same artifacts."""
        run_fleet(store=store, only=ENTRY, out_dir=tmp_path / "first")
        (capture_file,) = (p for p in store.root.iterdir()
                           if p.suffix == ".capture")
        with zipfile.ZipFile(capture_file) as zf:
            members = {i.filename: zf.read(i) for i in zf.infolist()}
        manifest = json.loads(members["manifest.json"])
        manifest["format"] = 1
        for info in manifest["streams"].values():
            del info["page_rows"]
        members["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(capture_file, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        report = run_fleet(store=store, only=ENTRY,
                           out_dir=tmp_path / "again")
        assert report.ok
        assert (report.captures_executed, report.captures_reused) == (1, 0)
        assert store.misses == 2
        trees = [{p.relative_to(root): p.read_bytes()
                  for p in root.rglob("*") if p.is_file()}
                 for root in (tmp_path / "first", tmp_path / "again")]
        assert trees[0] and trees[0] == trees[1]

    def test_corrupt_sidecar_rebuilt(self, tmp_path, store):
        """A corrupt decoded-page sidecar is evicted and rebuilt like a
        corrupt capture — and the fleet report counts the rebuild."""
        run_fleet(store=store, only=ENTRY)
        (sidecar,) = (p for p in store.root.iterdir()
                      if p.name.endswith(".capture.pages"))
        sidecar.write_bytes(b"truncated garbage")
        report = run_fleet(store=store, only=ENTRY)
        assert report.ok
        assert store.misses == 1           # the capture itself survived
        assert report.sidecars_rebuilt == 1
        # the rebuilt sidecar serves the next pass warm again
        report = run_fleet(store=store, only=ENTRY)
        assert report.ok and report.sidecars_reused == 1

    def test_no_page_cache_store_writes_no_sidecars(self, tmp_path):
        store = CaptureStore(tmp_path / "store", page_cache=False)
        report = run_fleet(store=store, only=ENTRY)
        assert report.ok
        assert not [p for p in store.root.iterdir()
                    if p.name.endswith(".pages")]
        assert report.sidecars_built == 0
        (entry,) = report.entries
        assert entry.replay["page_cache"] == "off"
        assert entry.replay["decoded_pages"] > 0

    def test_artifacts_identical_with_and_without_page_cache(self,
                                                             tmp_path):
        """The golden artifacts are a pure function of the guest: the
        warm-sidecar route and ``--no-page-cache`` must render the
        same bytes (cache counters live in the fleet report only)."""
        from repro.corpus.fleet import render_artifacts
        from repro.corpus.entries import fleet_entries as _entries

        (entry,) = _entries(only=ENTRY)
        warm_store = CaptureStore(tmp_path / "warm")
        cold_store = CaptureStore(tmp_path / "cold", page_cache=False)
        warm, warm_stats = render_artifacts(entry, warm_store)
        warm2, _ = render_artifacts(entry, warm_store)   # sidecar warm now
        cold, cold_stats = render_artifacts(entry, cold_store)
        assert warm == warm2 == cold
        assert warm_stats["page_cache"] in ("built", "warm")
        assert cold_stats["page_cache"] == "off"
        meta = json.loads(warm["meta.json"])
        assert meta["replay"] == {"pages_served":
                                  json.loads(cold["meta.json"])
                                  ["replay"]["pages_served"]}
        assert meta["replay"]["pages_served"] > 0

    def test_parallel_jobs_report_matches_serial(self, tmp_path):
        """--jobs N must be byte-identical to serial: same artifacts,
        same canonical fleet report, against equivalent store states."""
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        serial = run_fleet(store=CaptureStore(tmp_path / "s1"),
                           only=ENTRY, out_dir=out1)
        fanned = run_fleet(store=CaptureStore(tmp_path / "s2"),
                           only=ENTRY, out_dir=out2, jobs=2)
        assert serial.ok and fanned.ok
        assert serial.canonical_json() == fanned.canonical_json()
        for name in ARTIFACTS:
            assert ((out1 / ENTRY / name).read_bytes()
                    == (out2 / ENTRY / name).read_bytes())

    def test_update_with_only_never_prunes(self, tmp_path, store):
        """Regression: a focused ``update --only`` must not sweep other
        fixture directories as stale."""
        golden = tmp_path / "golden"
        bystander = golden / "some-other-entry"
        bystander.mkdir(parents=True)
        (bystander / "meta.json").write_text("{}")
        report = update_fleet(golden_root=golden, store=store, only=ENTRY)
        assert report.ok
        assert bystander.exists()
        assert (bystander / "meta.json").read_text() == "{}"

    def test_run_writes_artifact_tree(self, tmp_path, store):
        out = tmp_path / "artifacts"
        report = run_fleet(store=store, only=ENTRY, out_dir=out)
        assert report.ok
        meta = json.loads((out / ENTRY / "meta.json").read_text())
        assert meta["entry"] == ENTRY
        assert meta["exit_code"] == 0
        assert meta["sweep_cells"] == 4

    def test_broken_entry_reports_error_not_crash(self, tmp_path, store,
                                                  monkeypatch):
        import repro.corpus.fleet as fleet_mod

        def boom(entry, store, **kwargs):
            raise RuntimeError("guest exploded")

        monkeypatch.setattr(fleet_mod, "render_artifacts", boom)
        report = run_fleet(store=store, only=ENTRY)
        assert report.exit_code == 1
        (entry,) = report.entries
        assert entry.status == "error"
        assert "guest exploded" in entry.error


class TestCorpusCli:
    def test_cli_verify_roundtrip_and_report(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        store = tmp_path / "store"
        rc = main(["corpus", "update", "--golden", str(golden),
                   "--store", str(store), "--only", ENTRY])
        assert rc == 0
        report_path = tmp_path / "fleet.json"
        rc = main(["corpus", "verify", "--golden", str(golden),
                   "--store", str(store), "--only", ENTRY,
                   "--report", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 ok" in out
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["entries"][0]["name"] == ENTRY
        assert data["captures"]["reused"] == 1

    def test_cli_drift_exits_one(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        store = tmp_path / "store"
        assert main(["corpus", "update", "--golden", str(golden),
                     "--store", str(store), "--only", ENTRY]) == 0
        path = golden / ENTRY / "sweep.json"
        path.write_text(path.read_text() + "\n")
        rc = main(["corpus", "verify", "--golden", str(golden),
                   "--store", str(store), "--only", ENTRY])
        assert rc == 1
        err = capsys.readouterr().err
        assert "drift" in err and "sweep.json" in err

    def test_cli_unknown_entry_exits_two(self, tmp_path, capsys):
        rc = main(["corpus", "run", "--store", str(tmp_path / "s"),
                   "--only", "no-such-entry"])
        assert rc == 2
        assert "unknown corpus entry" in capsys.readouterr().err

    def test_cli_bad_jobs_exits_two(self, tmp_path, capsys):
        rc = main(["corpus", "run", "--store", str(tmp_path / "s"),
                   "--only", ENTRY, "--jobs", "0"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cli_parallel_run_with_page_cache_counters(self, tmp_path,
                                                       capsys):
        report_path = tmp_path / "fleet.json"
        rc = main(["corpus", "run", "--store", str(tmp_path / "s"),
                   "--only", ENTRY, "--jobs", "2",
                   "--report", str(report_path)])
        assert rc == 0
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["page_cache"]["sidecars_built"] == 1
        assert data["entries"][0]["replay"]["page_cache"] == "warm"
        assert "sidecars: 1 built" in capsys.readouterr().out

    def test_cli_no_page_cache(self, tmp_path, capsys):
        rc = main(["corpus", "run", "--store", str(tmp_path / "s"),
                   "--only", ENTRY, "--no-page-cache"])
        assert rc == 0
        assert not [p for p in (tmp_path / "s").iterdir()
                    if p.name.endswith(".pages")]

    def test_cli_run_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["corpus", "run", "--store", str(tmp_path / "s"),
                   "--only", ENTRY, "--trace-out", str(trace)])
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == f"fleet:{ENTRY}" for e in events)
        assert any(e.get("name") == f"capture:{ENTRY}" for e in events)


class TestCommittedGolden:
    def test_pr_tier_verifies_against_committed_fixtures(self, tmp_path):
        """The repo's own golden tree is in sync with the code — the
        same gate CI runs via ``tquad corpus verify``."""
        report = verify_fleet(store=CaptureStore(tmp_path / "store"),
                              nightly=False)
        broken = [e.to_json() for e in report.entries
                  if e.status != "ok"]
        assert report.ok, f"committed corpus fixtures drifted: {broken}"
