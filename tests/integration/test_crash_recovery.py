"""Fault tolerance of the supervised worker pool, end to end.

Every fault kind is driven through every stage with real worker
processes.  Most cases run :class:`~repro.parallel.supervise.Supervisor`
over a small module-level runner whose tasks each profile a tiny guest
with all three tools and return the reports' bytes; the assertion is
always the same: the results are byte-identical to running every task
in-process, and the recovery shows up in the telemetry counters
(retries, crashes, hangs, torn payloads, degradations).  Faults injected
at the parent-owned ``checkpoint`` stage are not survivable by design —
there the tests assert they propagate observably instead of corrupting
output.

:class:`TestFleetUnderFaults` runs the corpus fleet itself
(``run_fleet(jobs=2)``) under ``TQUAD_FAULTS`` and holds its canonical
report to the ``--jobs 1`` one.
"""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro import obs
from repro.core import TQuadOptions, TQuadTool
from repro.corpus import CaptureStore, run_fleet
from repro.gprofsim import GprofTool
from repro.minic import build_program
from repro.obs import Telemetry
from repro.parallel import Supervisor
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.testing import FaultPlan, InjectedFault, WorkerExit

SRC = """
int a[{n}]; int b[{n}];
int fill() {{ int i; for (i=0;i<{n};i=i+1) {{ a[i]=i*5; }} return 0; }}
int mix()  {{ int i; for (i=0;i<{n};i=i+1) {{ b[i]=a[i]+b[i]; }} return 0; }}
int main() {{ int r; fill(); mix(); r = b[7] + a[9];
    print_int(r); return r & 31; }}
"""


@dataclass(frozen=True)
class GuestTask:
    """One supervisor task: profile the guest with arrays of ``n``."""

    index: int
    n: int


#: Eight independent tasks, as many as the old sharded runs split into.
TASKS = tuple(GuestTask(index=i, n=16 + 8 * i) for i in range(8))


@dataclass
class GuestResult:
    index: int
    #: tQUAD JSON and table, QUAD JSON, gprof JSON, exit code
    artifacts: tuple


class GuestRunner:
    """Runs :class:`GuestTask`s; the heartbeat token is the live
    engine's ``icount``, so a stalled task stops beating."""

    def __init__(self) -> None:
        self._engine = None
        self._ticks = 0

    def progress(self):
        engine = self._engine
        return (self._ticks,
                engine.machine.icount if engine is not None else -1)

    def execute(self, task: GuestTask) -> GuestResult:
        self._ticks += 1
        engine = self._engine = PinEngine(build_program(
            SRC.format(n=task.n)))
        tquad = TQuadTool(TQuadOptions(slice_interval=64)).attach(engine)
        quad = QuadTool().attach(engine)
        gprof = GprofTool().attach(engine)
        exit_code = engine.run()
        tq = tquad.report()
        return GuestResult(index=task.index, artifacts=(
            tquad_to_json(tq), tq.format_table(),
            quad_to_json(quad.report()), flat_to_json(gprof.report()),
            exit_code))


@dataclass(frozen=True)
class GuestRunnerFactory:
    result_type: ClassVar[type] = GuestResult

    def __call__(self, telemetry) -> GuestRunner:
        return GuestRunner()


@pytest.fixture(scope="module")
def serial():
    runner = GuestRunner()
    return [runner.execute(task) for task in TASKS]


def run_with(plan_text, *, jobs=4, serial=None, tasks=TASKS, **kwargs):
    tele = Telemetry()
    supervisor = Supervisor(GuestRunnerFactory(), jobs=jobs,
                            faults=FaultPlan.parse(plan_text),
                            telemetry=tele, **kwargs)
    results = supervisor.run(tasks)
    if serial is not None:
        assert results == serial
    return supervisor, tele


class TestReplayStage:
    def test_worker_crash_is_retried_byte_identically(self, serial):
        run, tele = run_with("exit@replay:shard=1", serial=serial)
        assert run.retries == 1 and run.degraded == 0
        assert tele.counters["parallel/worker_crashes"] == 1
        assert tele.counters["parallel/shard_retries"] == 1

    def test_worker_exception_is_retried_byte_identically(self, serial):
        run, tele = run_with("exception@replay:shard=2", serial=serial)
        assert run.retries == 1 and run.degraded == 0

    def test_hang_is_killed_at_deadline_and_retried(self, serial):
        run, tele = run_with("stall@replay:shard=1,stall_seconds=60",
                             jobs=2, deadline=1.0, serial=serial)
        assert tele.counters["parallel/worker_hangs"] == 1
        assert run.retries == 1 and run.degraded == 0

    def test_any_single_worker_dying_never_changes_output(self, serial):
        # a fault that kills one specific worker (every time it touches
        # anything) leaves a --jobs 4 run byte-identical
        run, tele = run_with("exit@replay:worker=1,attempt=any",
                             serial=serial)
        assert tele.counters["parallel/worker_crashes"] >= 1
        assert run.retries >= 1


class TestPayloadStage:
    def test_torn_payload_is_detected_and_retried(self, serial):
        run, tele = run_with("truncate@payload:shard=0", jobs=2,
                             serial=serial)
        assert tele.counters["parallel/bad_payloads"] == 1
        assert run.retries == 1 and run.degraded == 0

    def test_exception_extracting_payload_is_retried(self, serial):
        # the worker turns any BaseException escaping a task — here one
        # selected by task and worker — into an "err" message
        run, tele = run_with("exception@replay:shard=3,worker=2",
                             serial=serial)
        assert run.degraded == 0


class TestDegradation:
    def test_persistent_fault_degrades_to_in_process_replay(self, serial):
        run, tele = run_with("exception@replay:shard=2,attempt=any",
                             jobs=3, max_retries=1, serial=serial)
        assert run.degraded == 1
        assert run.retries == 2            # max_retries + 1 failures
        assert tele.counters["parallel/shards_degraded"] == 1

    def test_every_worker_dying_degrades_everything(self, serial):
        # all workers crash on every attempt: every task falls back to an
        # in-process run, still byte-identical
        run, tele = run_with("exit@replay:attempt=any", jobs=2,
                             max_retries=1, serial=serial)
        assert run.degraded == len(TASKS)
        assert tele.counters["parallel/worker_crashes"] >= 2


class TestParentStages:
    def test_checkpoint_exception_propagates(self):
        with pytest.raises(InjectedFault):
            run_with("exception@checkpoint:shard=1")

    def test_checkpoint_exit_raises_worker_exit_not_os_exit(self):
        with pytest.raises(WorkerExit):
            run_with("exit@checkpoint")

    def test_checkpoint_stall_only_delays(self, serial):
        run_with("stall@checkpoint:stall_seconds=0.01", jobs=2,
                 serial=serial)


def _interrupted(supervisor, at_index, before_raise):
    """The task stream, raising KeyboardInterrupt once task
    ``at_index`` has been handed out (workers are spawned by then)."""
    for task in TASKS:
        yield task
        if task.index == at_index:
            before_raise(supervisor)
            raise KeyboardInterrupt


class TestSupervisorHousekeeping:
    def test_keyboard_interrupt_terminates_all_workers(self):
        # regression: the old pool-based orchestrator leaked worker
        # processes when the parent was interrupted mid-run
        supervisor = Supervisor(GuestRunnerFactory(), jobs=2,
                                faults=FaultPlan())
        seen = []
        tasks = _interrupted(
            supervisor, 1, lambda s: seen.extend(s.workers.values()))
        with pytest.raises(KeyboardInterrupt):
            supervisor.run(tasks)
        assert seen, "workers should have been spawned before the interrupt"
        assert supervisor.workers == {}
        for worker in seen:
            worker.process.join(timeout=5.0)
            assert not worker.process.is_alive()

    def test_jobs_beyond_shard_count_spawn_no_idle_workers(self, serial):
        run, tele = run_with("", jobs=8, tasks=TASKS[:1],
                             serial=serial[:1])
        assert tele.counters["parallel/jobs_clamped"] == 7
        assert tele.counters["parallel/workers_spawned"] == 1

    def test_healthy_run_records_no_failure_counters(self, serial):
        run, tele = run_with("", serial=serial)
        assert run.retries == 0 and run.degraded == 0
        for name in ("parallel/worker_crashes", "parallel/worker_hangs",
                     "parallel/bad_payloads", "parallel/shard_retries",
                     "parallel/shards_degraded"):
            assert name not in tele.counters


class TestSpillCleanup:
    """Spill scratch from the bounded-memory streaming tier
    (:mod:`repro.capture.streaming`) must never outlive its owner —
    killed workers, interrupted runs, hard crashes included."""

    @pytest.fixture()
    def private_tmp(self, tmp_path, monkeypatch):
        # point tempfile at a directory this test owns so spill dirs
        # (and the sweeps that reclaim them) are observable in isolation
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    def test_interrupt_sweeps_spill_dirs_of_killed_workers(
            self, private_tmp):
        # regression: a KeyboardInterrupt mid-run terminates workers
        # before their own atexit sweep can run; the parent's shutdown
        # path must reclaim their spill directories
        from repro.capture.streaming import SPILL_PREFIX

        supervisor = Supervisor(GuestRunnerFactory(), jobs=2,
                                faults=FaultPlan())
        left_behind = []

        def spill_as_workers(sup):
            for pid in sorted(sup._pids):
                d = private_tmp / f"{SPILL_PREFIX}{pid}-t"
                d.mkdir()
                (d / "run00000.npy").write_bytes(b"x")
                left_behind.append(d)

        with pytest.raises(KeyboardInterrupt):
            supervisor.run(_interrupted(supervisor, 1, spill_as_workers))
        assert left_behind, "workers should have spawned before interrupt"
        for d in left_behind:
            assert not d.exists(), f"spill dir {d} leaked past shutdown"

    def test_crashed_worker_spill_dirs_are_swept(self, private_tmp,
                                                 monkeypatch):
        # a worker that dies mid-task never runs its own teardown; the
        # scratch it left (modelled here at the moment the supervisor
        # notices the crash) is reclaimed by the end of the run
        import repro.parallel.supervise as sup
        from repro.capture.streaming import SPILL_PREFIX

        spilled = []
        original = sup.Supervisor._failure

        def failure_with_scratch(self, task, wid, reason, pending,
                                 results):
            for pid in sorted(self._pids):
                d = private_tmp / f"{SPILL_PREFIX}{pid}-x"
                if not d.exists():
                    d.mkdir()
                    spilled.append(d)
            return original(self, task, wid, reason, pending, results)

        monkeypatch.setattr(sup.Supervisor, "_failure",
                            failure_with_scratch)
        run, tele = run_with("exit@replay:shard=1", jobs=2)
        assert run.retries == 1
        assert spilled
        for d in spilled:
            assert not d.exists(), f"spill dir {d} leaked"

    def test_hard_killed_process_is_reclaimed_by_cleanup(
            self, private_tmp):
        # the primitive itself: a process that spilled and then died
        # without any teardown is reclaimed by pid-targeted cleanup
        import multiprocessing
        import time as _time

        from repro.capture.streaming import (SPILL_PREFIX, SpillPool,
                                             cleanup_spill_dirs)

        def victim(ready):
            import numpy as np

            pool = SpillPool()
            pool.write(np.zeros((4, 3), np.int64))
            ready.set()
            _time.sleep(60)

        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        proc = ctx.Process(target=victim, args=(ready,))
        proc.start()
        assert ready.wait(timeout=30)
        leaked = list(private_tmp.glob(f"{SPILL_PREFIX}{proc.pid}-*"))
        assert leaked, "victim should have spilled before dying"
        proc.kill()
        proc.join()
        removed = cleanup_spill_dirs([proc.pid])
        assert removed
        assert not list(private_tmp.glob(f"{SPILL_PREFIX}{proc.pid}-*"))


#: The smallest roster entry (the fleet tests' fixture).
ENTRY = "gen-streaming_0055"


class TestFleetUnderFaults:
    """``tquad corpus run --jobs 2`` under ``TQUAD_FAULTS``: the fleet's
    canonical report stays byte-identical to ``--jobs 1``."""

    @pytest.mark.parametrize("plan, counter", [
        ("exit@replay:shard=0", "parallel/worker_crashes"),
        ("exception@replay:attempt=any", "parallel/shards_degraded"),
    ], ids=["crash", "degraded"])
    def test_fleet_matches_jobs_1(self, tmp_path, monkeypatch, plan,
                                  counter):
        serial = run_fleet(store=CaptureStore(tmp_path / "s1"),
                           only=ENTRY)
        before = obs.TELEMETRY.counters.get(counter, 0)
        monkeypatch.setenv("TQUAD_FAULTS", plan)
        fanned = run_fleet(store=CaptureStore(tmp_path / "s2"),
                           only=ENTRY, jobs=2)
        assert serial.ok and fanned.ok
        assert fanned.canonical_json() == serial.canonical_json()
        assert obs.TELEMETRY.counters.get(counter, 0) == before + 1

    def test_torn_payload_keeps_every_artifact(self, tmp_path,
                                               monkeypatch):
        """A torn payload is retried after the failed attempt already
        recorded the capture, so the retry reuses it and the report's
        capture and sidecar counters differ from ``--jobs 1`` (the failed
        attempt's counts are lost with its payload).  Every artifact is
        still byte-identical."""
        from repro.corpus import ARTIFACTS

        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        serial = run_fleet(store=CaptureStore(tmp_path / "s1"),
                           only=ENTRY, out_dir=out1)
        before = obs.TELEMETRY.counters.get("parallel/bad_payloads", 0)
        monkeypatch.setenv("TQUAD_FAULTS", "truncate@payload:shard=0")
        fanned = run_fleet(store=CaptureStore(tmp_path / "s2"),
                           only=ENTRY, out_dir=out2, jobs=2)
        assert serial.ok and fanned.ok
        assert (obs.TELEMETRY.counters.get("parallel/bad_payloads", 0)
                == before + 1)
        for name in ARTIFACTS:
            assert ((out1 / ENTRY / name).read_bytes()
                    == (out2 / ENTRY / name).read_bytes())
