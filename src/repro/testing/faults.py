"""Deterministic fault injection for the supervised worker pool.

This module is the seam both the runtime and the failure tests drive: the
supervisor behind ``tquad corpus --jobs``
(:mod:`repro.parallel.supervise`) calls :meth:`FaultInjector.fire` at
each stage of a task's life and :meth:`FaultInjector.mangle` on every
wire payload, and a :class:`FaultPlan` decides — deterministically, keyed
on the stage, task index, worker id and attempt number — whether anything
bad happens there.

Fault kinds
-----------

``exit``
    The worker process dies immediately (``os._exit``), modelling a hard
    crash (OOM kill, segfault).  Fired in the parent (the stage the
    parent owns: ``checkpoint``) it raises :class:`SystemExit` instead,
    so tests can observe it without killing the test runner.
``exception``
    Raises :class:`InjectedFault` — an ordinary Python error escaping the
    stage.
``stall``
    Sleeps for ``stall_seconds`` without making progress, modelling a
    hang; the supervisor's heartbeat deadline is what should catch it.
``truncate``
    Applied by :meth:`FaultInjector.mangle`: the pickled wire payload is
    cut to ``truncate_to`` bytes, modelling a torn write on the result
    channel.

Selection
---------

A :class:`FaultSpec` matches on ``stage`` and optionally on ``shard``,
``worker`` and ``attempt`` (``None`` = any).  The stages are:

* ``checkpoint`` — in the parent, just before it takes the next task to
  hand out;
* ``replay`` — in a worker, before it runs a task;
* ``payload`` — the pickled result a worker sends back.

``shard`` selects a task by its index (the corpus fleet's roster order).
``attempt`` defaults to 0 — fire on the first try only, so the retry path
is what gets exercised; ``attempt=None`` makes the fault persistent,
which is how the degradation to an in-process run is driven.

Plans come from parameters (``Supervisor(..., faults=plan)``) or from
the environment: ``TQUAD_FAULTS="exit@replay:shard=1;stall@replay"`` —
``;``-separated specs, each ``kind@stage[:key=value,...]``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: Environment variable the runtime reads when no plan is passed in.
ENV_VAR = "TQUAD_FAULTS"

FAULT_KINDS = ("exit", "exception", "stall", "truncate")
STAGES = ("checkpoint", "replay", "payload")


class InjectedFault(RuntimeError):
    """The error raised by an ``exception`` fault."""


class WorkerExit(SystemExit):
    """Raised instead of ``os._exit`` when an ``exit`` fault fires in the
    parent process (parent stages must stay observable in tests)."""


def _parse_int(value: str) -> int | None:
    return None if value in ("any", "*") else int(value)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault."""

    kind: str
    stage: str = "replay"
    #: Task index to hit (``None`` = any task).
    shard: int | None = None
    #: Worker id to hit (``None`` = any worker).
    worker: int | None = None
    #: Attempt number to hit (``None`` = every attempt — persistent).
    attempt: int | None = 0
    exit_code: int = 17
    stall_seconds: float = 3600.0
    truncate_to: int = 8

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.stage not in STAGES:
            raise ValueError(f"unknown pipeline stage {self.stage!r} "
                             f"(expected one of {STAGES})")

    def matches(self, stage: str, shard: int | None, worker: int | None,
                attempt: int | None) -> bool:
        if stage != self.stage:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind@stage[:key=value,...]`` (see module docstring)."""
        head, _, params = text.strip().partition(":")
        kind, _, stage = head.partition("@")
        kwargs: dict[str, object] = {}
        if stage:
            kwargs["stage"] = stage.strip()
        for item in filter(None, (p.strip() for p in params.split(","))):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed fault parameter {item!r} "
                                 f"in {text!r}")
            key = key.strip()
            value = value.strip()
            if key in ("shard", "worker", "attempt"):
                kwargs[key] = _parse_int(value)
            elif key in ("exit_code", "truncate_to"):
                kwargs[key] = int(value)
            elif key == "stall_seconds":
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault parameter {key!r} "
                                 f"in {text!r}")
        return cls(kind=kind.strip(), **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of planned faults (empty = healthy)."""

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = tuple(FaultSpec.parse(part)
                      for part in filter(None, (p.strip()
                                                for p in text.split(";"))))
        return cls(specs=specs)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        text = (environ if environ is not None else os.environ).get(
            ENV_VAR, "")
        return cls.parse(text) if text.strip() else cls()


class FaultInjector:
    """Evaluates a plan at runtime hooks.

    ``role`` selects crash semantics: ``"worker"`` (default) makes
    ``exit`` faults call ``os._exit`` — the real thing, no cleanup, no
    exception propagation; ``"parent"`` raises :class:`WorkerExit`
    so the orchestrator process survives its own test harness.

    Every fault that fires is appended to :attr:`fired` as
    ``(kind, stage, shard, worker, attempt)`` — worker-side injectors run
    in other processes, so tests observe firing through the runtime's
    retry counters instead.
    """

    def __init__(self, plan: FaultPlan | None, *, role: str = "worker",
                 sleep=time.sleep):
        self.plan = plan if plan is not None else FaultPlan()
        self.role = role
        self.fired: list[tuple] = []
        self._sleep = sleep

    def fire(self, stage: str, *, shard: int | None = None,
             worker: int | None = None, attempt: int | None = 0) -> None:
        """Trigger any planned ``exit``/``exception``/``stall`` fault."""
        for spec in self.plan.specs:
            if spec.kind == "truncate":
                continue            # payload faults go through mangle()
            if not spec.matches(stage, shard, worker, attempt):
                continue
            self.fired.append((spec.kind, stage, shard, worker, attempt))
            if spec.kind == "stall":
                self._sleep(spec.stall_seconds)
            elif spec.kind == "exception":
                raise InjectedFault(
                    f"injected exception at {stage} "
                    f"(shard={shard}, worker={worker}, attempt={attempt})")
            elif spec.kind == "exit":
                if self.role == "worker":
                    os._exit(spec.exit_code)
                else:
                    raise WorkerExit(spec.exit_code)

    def mangle(self, stage: str, blob: bytes, *, shard: int | None = None,
               worker: int | None = None,
               attempt: int | None = 0) -> bytes:
        """Apply any planned ``truncate`` fault to a wire payload."""
        for spec in self.plan.specs:
            if spec.kind != "truncate":
                continue
            if not spec.matches(stage, shard, worker, attempt):
                continue
            self.fired.append((spec.kind, stage, shard, worker, attempt))
            return blob[:spec.truncate_to]
        return blob
