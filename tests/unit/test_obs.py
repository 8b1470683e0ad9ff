"""Unit tests for the run-telemetry package (``repro.obs``)."""

import json
import mmap
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.obs import core as obs_core
from repro.obs import (MAIN_TID, NULL_SPAN, Telemetry, summary_table,
                       to_chrome_trace, write_chrome_trace)


def make_tele(*, enabled=True, start=1_000_000):
    """A Telemetry on a deterministic fake clock (1 µs per call)."""
    state = {"now": start}

    def clock():
        state["now"] += 1_000
        return state["now"]

    return Telemetry(enabled=enabled, clock=clock)


@pytest.fixture
def fake_memory(monkeypatch):
    """Swap the span memory readers for fakes that log their calls: a
    resident set of 50 KiB, and a peak that grows 4 KiB per read."""
    calls = []

    def read_peak():
        calls.append("peak")
        return 100 + 4 * calls.count("peak")

    def read_rss():
        calls.append("rss")
        return 50

    monkeypatch.setattr(obs_core, "read_peak", read_peak)
    monkeypatch.setattr(obs_core, "read_rss", read_rss)
    return calls


class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        tele = Telemetry(enabled=False)
        assert tele.span("x") is NULL_SPAN
        with tele.span("x", cat="c", arg=1):
            pass
        assert tele.events == []

    def test_enabled_span_records_on_exit(self, fake_memory):
        tele = make_tele()
        with tele.span("replay", cat="shard", shard=3):
            pass
        assert len(tele.events) == 1
        name, cat, ts, dur, tid, args = tele.events[0]
        assert (name, cat, tid) == ("replay", "shard", 0)
        assert args == {"shard": 3, "rss_kib": 50, "peak_open_kib": 104,
                        "peak_close_kib": 108}
        assert dur == 1_000                 # exactly one clock tick inside

    def test_note_adds_args_known_at_the_end(self):
        tele = make_tele()
        with tele.span("page.write", cat="capture", rows=3) as span:
            span.note(compressed_bytes=17)
        assert tele.events[0][5]["rows"] == 3
        assert tele.events[0][5]["compressed_bytes"] == 17
        with Telemetry(enabled=False).span("page.write") as span:
            span.note(compressed_bytes=17)

    def test_span_records_even_when_body_raises(self):
        tele = make_tele()
        with pytest.raises(ValueError):
            with tele.span("boom"):
                raise ValueError("x")
        assert [e[0] for e in tele.events] == ["boom"]

    def test_nested_spans_both_record(self):
        tele = make_tele()
        with tele.span("outer"):
            with tele.span("inner"):
                pass
        assert [e[0] for e in tele.events] == ["inner", "outer"]

    def test_instant_is_zero_duration_and_gated(self):
        tele = make_tele()
        tele.instant("mark", cat="c", k=1)
        assert tele.events[0][3] == 0
        off = Telemetry(enabled=False)
        off.instant("mark")
        assert off.events == []


class TestSpanMemory:
    def test_disabled_telemetry_never_reads_memory(self, fake_memory):
        tele = Telemetry(enabled=False)
        with tele.span("x", cat="c", arg=1):
            pass
        tele.instant("mark")
        tele.count("n")
        tele.gauge("g", 1)
        assert fake_memory == []
        tele.enabled = True
        with tele.span("x"):
            pass
        # the open reads only the peak; the close reads both
        assert fake_memory == ["peak", "rss", "peak"]

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "fork"),
                        reason="a forked Linux child starts its peak at its "
                               "resident set")
    def test_span_touching_16_mib_raises_the_peak_that_much(self):
        # in a forked child the process peak starts at the current
        # resident set, whatever the suite's own peak reached before
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                tele = Telemetry(enabled=True)
                with tele.span("touch", cat="test"):
                    # 16 MiB of NumPy memory on a fresh mapping: pages
                    # no allocator can serve from memory already resident
                    block = np.frombuffer(mmap.mmap(-1, 16 << 20))
                    block[:] = 1.0
                args = tele.events[0][5]
                rise = args["peak_close_kib"] - args["peak_open_kib"]
                code = 0 if (rise >= 16 << 10 and block.sum() == 2 << 20
                             and args["rss_kib"] >= 16 << 10) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestCountersAndGauges:
    def test_counters_accumulate_and_are_always_on(self):
        tele = Telemetry(enabled=False)
        tele.count("a")
        tele.count("a", 4)
        tele.count("b", 2)
        assert tele.counters == {"a": 5, "b": 2}

    def test_gauges_keep_latest_value(self):
        tele = Telemetry(enabled=False)
        tele.gauge("pages", 3)
        tele.gauge("pages", 7)
        assert tele.gauges == {"pages": 7}

    def test_merge_counters_adds(self):
        tele = Telemetry()
        tele.count("a", 1)
        tele.merge_counters({"a": 2, "c": 5})
        assert tele.counters == {"a": 3, "c": 5}


class TestCrossProcess:
    def test_take_events_detaches(self):
        tele = make_tele()
        with tele.span("x"):
            pass
        taken = tele.take_events()
        assert len(taken) == 1 and tele.events == []

    def test_adopt_retags_tid(self):
        parent = make_tele()
        worker = make_tele()
        with worker.span("replay", cat="shard", shard=0):
            pass
        parent.adopt(worker.take_events(), tid=7)
        assert parent.events[0][4] == 7
        assert parent.events[0][0] == "replay"

    def test_events_are_picklable(self):
        import pickle

        tele = make_tele()
        with tele.span("x", cat="c", a=1):
            pass
        assert pickle.loads(pickle.dumps(tele.events)) == tele.events


class TestLifecycle:
    def test_reset_clears_everything(self):
        tele = make_tele()
        with tele.span("x"):
            pass
        tele.count("c")
        tele.gauge("g", 1)
        tele.reset()
        assert (tele.events, tele.counters, tele.gauges) == ([], {}, {})

    def test_span_stats_aggregates_by_name(self, fake_memory):
        tele = make_tele()
        for _ in range(3):
            with tele.span("a"):
                pass
        with tele.span("b"):
            pass
        with tele.span("b", cat="vm"):
            pass
        tele.instant("mark")
        stats = tele.span_stats()
        # the fake peak grows 4 KiB per read, so each span raised it 4
        assert stats["a", "run"] == (3, 3_000, 4)
        assert stats["b", "run"] == (1, 1_000, 4)
        assert stats["b", "vm"] == (1, 1_000, 4)
        assert stats["mark", "run"] == (1, 0, None)

    def test_module_singleton_enable_disable(self):
        obs.reset()
        assert obs.span("x") is NULL_SPAN
        try:
            tele = obs.enable()
            assert tele is obs.TELEMETRY
            with obs.span("x"):
                pass
            assert len(obs.TELEMETRY.events) == 1
        finally:
            obs.disable()
            obs.reset()
        assert obs.span("x") is NULL_SPAN


class TestChromeTrace:
    def _sample(self):
        tele = make_tele()
        with tele.span("replay", cat="shard", shard=1):
            pass
        tele.adopt([("replay", "shard", 2_000_000, 5_000, 0, {"shard": 2})],
                   tid=3)
        tele.instant("note")
        tele.count("shards", 2)
        tele.gauge("pages", 4)
        return tele

    def test_structure_and_units(self):
        tele = self._sample()
        doc = to_chrome_trace(tele)
        json.dumps(doc)                     # must be JSON-serialisable
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "main" and e["tid"] == MAIN_TID
                   for e in meta)
        assert any(e["args"]["name"] == "worker-3" for e in meta)
        xs = [e for e in events if e["ph"] == "X"]
        assert all(set(e) >= {"name", "cat", "ts", "dur", "pid", "tid"}
                   for e in xs)
        span = next(e for e in xs if e["tid"] == 3)
        assert span["ts"] == 2_000_000 / 1000       # ns -> µs
        assert span["dur"] == 5.0
        assert any(e["ph"] == "i" for e in events)
        assert doc["otherData"]["counters"] == {"shards": 2}
        assert doc["otherData"]["gauges"] == {"pages": 4}

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "run.json"
        write_chrome_trace(self._sample(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_empty_collection_is_still_valid(self):
        doc = to_chrome_trace(Telemetry())
        json.dumps(doc)
        # only the parent thread-name metadata row, no span events
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestSummaryTable:
    def test_lists_spans_counters_gauges(self):
        tele = self._loaded()
        text = summary_table(tele)
        assert "replay" in text and "shards" in text and "pages" in text
        # sorted by total time descending
        lines = [ln for ln in text.splitlines() if ln.startswith(("replay",
                                                                  "merge"))]
        assert lines[0].startswith("replay")

    def test_empty_fallback(self):
        assert "no telemetry recorded" in summary_table(Telemetry())

    def test_peak_column_is_the_largest_rise_per_name_and_category(self):
        tele = Telemetry()
        tele.adopt([
            ("replay", "capture", 0, 5_000_000, 0,
             {"peak_open_kib": 1024, "peak_close_kib": 1024 + (16 << 10)}),
            ("replay", "capture", 0, 5_000_000, 0,
             {"peak_open_kib": 0, "peak_close_kib": 2048}),
            ("run", "cli", 0, 20_000_000, 0, {}),
            ("run", "vm", 0, 18_000_000, 0,
             {"peak_open_kib": 5, "peak_close_kib": 5}),
        ], tid=0)
        rows = {tuple(ln.split()[:2]): ln.split()
                for ln in summary_table(tele).splitlines()[2:] if ln}
        assert rows["replay", "capture"][2:] == ["2", "10.00", "5.00",
                                                 "16.0"]
        assert rows["run", "cli"][-1] == "-"
        assert rows["run", "vm"][-1] == "0.0"

    @staticmethod
    def _loaded():
        tele = make_tele()
        for _ in range(3):
            with tele.span("replay"):
                pass
        with tele.span("merge"):
            pass
        tele.count("shards", 3)
        tele.gauge("pages", 9)
        return tele
