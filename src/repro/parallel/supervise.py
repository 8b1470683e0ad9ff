"""Fault-tolerant worker supervision for ``tquad corpus --jobs``.

A :class:`Supervisor` maps a list of independent tasks onto a fleet of
worker processes and treats that fleet as an unreliable distributed
system, with the results' byte-exactness as the invariant to protect.
The corpus fleet (:mod:`repro.corpus.fleet`) hands it one task per
roster entry.

* **Directed scheduling** — each worker has its own inbox; the parent
  assigns one task at a time, so a failed task can be retried on a
  *different* worker (``excluded`` set per task).
* **Progress heartbeats** — a worker-side thread publishes a timestamp
  whenever the runner's ``progress()`` token (or the worker's task
  counter) advances.  A worker whose heartbeat is older than
  ``deadline`` seconds is declared hung, killed, and its task requeued.
  Because the beat is tied to *progress*, a worker stalled inside a task
  is caught even though its process is alive and scheduling threads.
* **Crash detection** — a non-``None`` ``exitcode`` on a busy worker
  requeues its task with that worker excluded.
* **Torn payloads** — workers pickle their own results and the parent
  unpickles defensively; a truncated or corrupt blob is a task failure
  like any other, not a crashed run.
* **Bounded retry, then degradation** — a task that fails more than
  ``max_retries`` times (or that every surviving worker has already
  failed) runs *in-process* on the parent's own runner.  Tasks are
  deterministic, so a result is a result no matter where it was
  computed.
* **Lazy spawning** — workers are forked only when a task is waiting
  and nobody idle can take it, so ``--jobs`` larger than the task count
  never spawns idle processes (the clamp lands in the
  ``parallel/jobs_clamped`` telemetry counter).

The runner comes from ``runner_factory``: a picklable callable with a
``result_type`` attribute that takes a :class:`~repro.obs.Telemetry` and
builds an object exposing ``execute(task) -> result_type`` and
``progress()``.  Tasks carry an ``index`` that orders the results.

Fault injection (:mod:`repro.testing.faults`) hooks the worker loop
(stage ``replay``), the result wire (stage ``payload``) and the parent's
hand-out of each task (stage ``checkpoint``); a fault's ``shard``
selector is the task index.  The crash-recovery tests drive every kind
through every stage.
"""

from __future__ import annotations

import logging
import pickle
import queue as _queue
import threading
import time
from dataclasses import dataclass, field

from ..obs import Telemetry
from ..testing.faults import FaultInjector, FaultPlan

_LOG = logging.getLogger("repro.parallel")

#: Seconds between heartbeat-thread progress checks in each worker.
HEARTBEAT_INTERVAL = 0.2

#: Default seconds without progress before a busy worker is declared hung.
DEFAULT_DEADLINE = 30.0

#: Default number of re-executions of a failed task on other workers
#: before it degrades to an in-process run.
DEFAULT_MAX_RETRIES = 2

#: Parent-side wait granularity while blocked on worker results.
_POLL = 0.05


@dataclass
class _Task:
    """One task on its way to a result."""

    spec: object
    attempt: int = 0
    #: Worker ids that already failed this task.
    excluded: set[int] = field(default_factory=set)


@dataclass
class _Worker:
    process: object
    inbox: object
    hb: object                       #: shared double: last progress time
    busy: _Task | None = None
    assigned_at: float = 0.0


def _heartbeat(hb, state, runner) -> None:  # pragma: no cover - worker side
    """Publish a fresh timestamp whenever the worker makes progress.

    Progress is the pair (tasks started/finished, the runner's own
    ``progress()`` token — the live guest's ``icount`` for the corpus
    fleet): a stalled task stops advancing the token and therefore stops
    beating, even though the process and this thread stay alive.
    """
    last = None
    while True:
        cur = (state[0], runner.progress())
        if cur != last:
            last = cur
            hb.value = time.monotonic()
        time.sleep(HEARTBEAT_INTERVAL)


def _worker_main(wid, inbox, outbox, hb, factory, plan,
                 tele_enabled) -> None:  # pragma: no cover - subprocess
    """Worker loop: run tasks from the inbox until the sentinel."""
    injector = FaultInjector(plan, role="worker")
    # record into this process's global singleton (reset — fork copied the
    # parent's tallies) so the engine/VM/sink counters that go through it
    # land in the shipped blob too
    from .. import obs

    obs.TELEMETRY.reset()
    obs.TELEMETRY.enabled = tele_enabled
    tele = obs.TELEMETRY
    runner = factory(tele)
    state = [0]
    threading.Thread(target=_heartbeat, args=(hb, state, runner),
                     daemon=True).start()
    while True:
        msg = inbox.get()
        if msg is None:
            return
        spec, attempt = msg
        state[0] += 1
        try:
            injector.fire("replay", shard=spec.index, worker=wid,
                          attempt=attempt)
            result = runner.execute(spec)
            counters, tele.counters = tele.counters, {}
            gauges, tele.gauges = tele.gauges, {}
            blob = pickle.dumps(
                (result, tele.take_events(), counters, gauges),
                protocol=pickle.HIGHEST_PROTOCOL)
            blob = injector.mangle("payload", blob, shard=spec.index,
                                   worker=wid, attempt=attempt)
            outbox.put(("ok", wid, spec.index, attempt, blob))
        except BaseException as exc:  # noqa: BLE001 - becomes a retry
            outbox.put(("err", wid, spec.index, attempt,
                        f"{type(exc).__name__}: {exc}"))
        state[0] += 1


class Supervisor:
    """Runs tasks across a self-healing fleet of worker processes."""

    def __init__(self, runner_factory, *, jobs: int,
                 deadline: float = DEFAULT_DEADLINE,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 faults: FaultPlan | None = None,
                 telemetry: Telemetry | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self.factory = runner_factory
        self.jobs = jobs
        self.deadline = deadline
        self.max_retries = max_retries
        self.plan = faults if faults is not None else FaultPlan.from_env()
        from .. import obs

        self.telemetry = telemetry if telemetry is not None else obs.TELEMETRY
        self._parent_faults = FaultInjector(self.plan, role="parent")
        self.outbox = self.ctx.Queue()
        self.workers: dict[int, _Worker] = {}
        self._idle: set[int] = set()
        self._next_wid = 1               # tid 0 is the parent timeline
        self._spawned = 0
        self._n_tasks = 0
        self._fallback = None
        self._pids: set[int] = set()
        self.retries = 0
        self.degraded = 0

    # --------------------------------------------------------------- driving
    def run(self, tasks) -> list:
        """Consume the task stream and return one result per task, in
        index order, surviving worker crashes, hangs and torn payloads."""
        pending: list[_Task] = []
        results: dict[int, object] = {}
        task_iter = iter(tasks)
        exhausted = False
        try:
            while True:
                if not exhausted:
                    try:
                        self._parent_faults.fire("checkpoint",
                                                 shard=self._n_tasks)
                        spec = next(task_iter)
                    except StopIteration:
                        exhausted = True
                        self._note_clamp()
                    else:
                        pending.append(_Task(spec=spec))
                        self._n_tasks += 1
                self._assign(pending, results)
                self._collect(pending, results, block=exhausted)
                self._reap(pending, results)
                if exhausted and not pending and not self._busy():
                    break
        finally:
            self._shutdown()
        missing = [i for i in range(self._n_tasks) if i not in results]
        if missing:  # pragma: no cover - invariant, not a code path
            raise RuntimeError(f"tasks {missing} produced no result")
        return [results[i] for i in range(self._n_tasks)]

    # ------------------------------------------------------------ scheduling
    def _busy(self) -> bool:
        return any(w.busy is not None for w in self.workers.values())

    def _note_clamp(self) -> None:
        if self._spawned < self.jobs:
            clamped = self.jobs - self._spawned
            self.telemetry.count("parallel/jobs_clamped", clamped)
            _LOG.info("clamped --jobs %d to %d worker(s): only %d task(s)",
                      self.jobs, self._spawned, self._n_tasks)

    def _assign(self, pending: list[_Task],
                results: dict[int, object]) -> None:
        while pending:
            task = pending[0]
            wid = next((w for w in sorted(self._idle)
                        if w not in task.excluded), None)
            if wid is None and len(self.workers) < self.jobs:
                wid = self._spawn()
            if wid is not None:
                pending.pop(0)
                self._send(wid, task)
                continue
            if all(w in task.excluded for w in self.workers):
                # every surviving worker already failed this task
                pending.pop(0)
                self._degrade(task, results)
                continue
            return                    # eligible workers exist but are busy

    def _spawn(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        inbox = self.ctx.Queue()
        hb = self.ctx.Value("d", time.monotonic(), lock=False)
        process = self.ctx.Process(
            target=_worker_main,
            args=(wid, inbox, self.outbox, hb, self.factory, self.plan,
                  self.telemetry.enabled),
            daemon=True, name=f"repro-worker-{wid}")
        process.start()
        if process.pid:
            self._pids.add(process.pid)
        self.workers[wid] = _Worker(process=process, inbox=inbox, hb=hb)
        self._idle.add(wid)
        self._spawned += 1
        self.telemetry.count("parallel/workers_spawned")
        return wid

    def _send(self, wid: int, task: _Task) -> None:
        worker = self.workers[wid]
        self._idle.discard(wid)
        worker.busy = task
        worker.assigned_at = time.monotonic()
        worker.inbox.put((task.spec, task.attempt))

    # ------------------------------------------------------------ collecting
    def _collect(self, pending: list[_Task],
                 results: dict[int, object], *, block: bool) -> None:
        timeout = _POLL if (block and self._busy()) else 0.0
        while True:
            try:
                if timeout:
                    msg = self.outbox.get(timeout=timeout)
                else:
                    msg = self.outbox.get_nowait()
            except _queue.Empty:
                return
            timeout = 0.0             # drain the backlog without waiting
            self._handle(msg, pending, results)

    def _handle(self, msg, pending: list[_Task],
                results: dict[int, object]) -> None:
        kind, wid, idx, attempt, payload = msg
        worker = self.workers.get(wid)
        task = None
        if (worker is not None and worker.busy is not None
                and worker.busy.spec.index == idx):
            task = worker.busy
            worker.busy = None
            self._idle.add(wid)
        if kind == "ok":
            try:
                result, events, counters, gauges = pickle.loads(payload)
                if not isinstance(result, self.factory.result_type):
                    raise TypeError(f"unexpected payload {type(result)}")
            except Exception as exc:
                self.telemetry.count("parallel/bad_payloads")
                if task is not None:
                    self._failure(task, wid, f"torn payload: {exc}",
                                  pending, results)
                return
            if idx not in results:
                results[idx] = result
                self.telemetry.adopt(events, tid=wid)
                self.telemetry.merge_counters(counters)
                self.telemetry.gauges.update(gauges)
        elif task is not None:
            self._failure(task, wid, str(payload), pending, results)

    # ----------------------------------------------------- failure handling
    def _reap(self, pending: list[_Task],
              results: dict[int, object]) -> None:
        now = time.monotonic()
        for wid, worker in list(self.workers.items()):
            exitcode = worker.process.exitcode
            if worker.busy is None:
                if exitcode is not None:
                    self._remove(wid)
                continue
            if exitcode is not None:
                self.telemetry.count("parallel/worker_crashes")
                task = worker.busy
                self._remove(wid)
                self._failure(task, wid,
                              f"worker exited with code {exitcode}",
                              pending, results)
            elif now - max(worker.hb.value, worker.assigned_at) \
                    > self.deadline:
                self.telemetry.count("parallel/worker_hangs")
                task = worker.busy
                worker.process.kill()
                worker.process.join()
                self._remove(wid)
                self._failure(task, wid,
                              f"no progress for {self.deadline:.1f}s "
                              "(heartbeat deadline)", pending, results)

    def _remove(self, wid: int) -> None:
        worker = self.workers.pop(wid)
        self._idle.discard(wid)
        worker.inbox.close()
        worker.inbox.cancel_join_thread()
        # a killed worker's atexit hooks never ran: sweep any spill
        # scratch it left behind (no-op for clean exits)
        self._sweep_spills([worker.process.pid])

    def _sweep_spills(self, pids) -> None:
        try:
            from ..capture.streaming import cleanup_spill_dirs

            removed = cleanup_spill_dirs(p for p in pids if p)
        except Exception:  # cleanup must never sink a run
            return
        if removed:
            self.telemetry.count("parallel/spill_dirs_swept",
                                 len(removed))

    def _failure(self, task: _Task, wid: int, reason: str,
                 pending: list[_Task],
                 results: dict[int, object]) -> None:
        if task.spec.index in results:
            return                    # a racing attempt already delivered
        task.excluded.add(wid)
        task.attempt += 1
        self.retries += 1
        self.telemetry.count("parallel/shard_retries")
        _LOG.warning("task %d attempt %d failed on worker %d: %s",
                     task.spec.index, task.attempt - 1, wid, reason)
        if task.attempt > self.max_retries:
            self._degrade(task, results)
        else:
            pending.insert(0, task)

    def _degrade(self, task: _Task,
                 results: dict[int, object]) -> None:
        """Retries exhausted: run the task in-process.  Tasks are
        deterministic, so the result is exactly what a worker would have
        produced."""
        self.degraded += 1
        self.telemetry.count("parallel/shards_degraded")
        _LOG.warning("task %d degraded to an in-process run",
                     task.spec.index)
        if self._fallback is None:
            self._fallback = self.factory(self.telemetry)
        with self.telemetry.span("replay.degraded", cat="parallel",
                                 shard=task.spec.index):
            results[task.spec.index] = self._fallback.execute(task.spec)

    # -------------------------------------------------------------- teardown
    def _shutdown(self) -> None:
        """Terminate and join every worker (idempotent; also the
        KeyboardInterrupt path — no leaked processes, ever)."""
        for worker in self.workers.values():
            try:
                worker.inbox.put_nowait(None)
            except Exception:         # queue may already be broken
                pass
        deadline = time.monotonic() + 1.0
        for worker in self.workers.values():
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join()
            worker.inbox.close()
            worker.inbox.cancel_join_thread()
        self.workers.clear()
        self._idle.clear()
        self.outbox.close()
        self.outbox.cancel_join_thread()
        self._sweep_spills(self._pids)
        self._pids.clear()
