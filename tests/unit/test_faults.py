"""Unit tests for the deterministic fault-injection seam
(``repro.testing.faults``)."""

import pytest

from repro.testing.faults import (ENV_VAR, FAULT_KINDS, STAGES,
                                  FaultInjector, FaultPlan, FaultSpec,
                                  InjectedFault, WorkerExit)


class TestFaultSpec:
    def test_defaults_target_first_attempt_anywhere(self):
        spec = FaultSpec(kind="exit")
        assert spec.stage == "replay"
        assert spec.shard is None and spec.worker is None
        assert spec.attempt == 0

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("stage", STAGES)
    def test_every_kind_stage_combination_constructs(self, kind, stage):
        FaultSpec(kind=kind, stage=stage)

    def test_unknown_kind_and_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            FaultSpec(kind="exit", stage="teardown")
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            FaultSpec(kind="exit", stage="merge")

    def test_matching_semantics(self):
        spec = FaultSpec(kind="exit", stage="replay", shard=2, worker=1,
                         attempt=0)
        assert spec.matches("replay", 2, 1, 0)
        assert not spec.matches("payload", 2, 1, 0)
        assert not spec.matches("replay", 3, 1, 0)
        assert not spec.matches("replay", 2, 2, 0)
        assert not spec.matches("replay", 2, 1, 1)

    def test_none_selectors_match_anything(self):
        spec = FaultSpec(kind="stall", shard=None, worker=None, attempt=None)
        for attempt in (0, 1, 5):
            assert spec.matches("replay", 9, 3, attempt)


class TestParsing:
    def test_minimal(self):
        spec = FaultSpec.parse("exit@replay")
        assert (spec.kind, spec.stage) == ("exit", "replay")

    def test_kind_only_defaults_to_replay(self):
        assert FaultSpec.parse("stall").stage == "replay"

    def test_full_parameters(self):
        spec = FaultSpec.parse(
            "truncate@payload:shard=1,worker=2,attempt=any,truncate_to=4")
        assert spec.shard == 1 and spec.worker == 2
        assert spec.attempt is None
        assert spec.truncate_to == 4

    def test_stall_seconds_and_exit_code(self):
        spec = FaultSpec.parse("stall@replay:stall_seconds=0.5")
        assert spec.stall_seconds == 0.5
        assert FaultSpec.parse("exit@checkpoint:exit_code=3").exit_code == 3

    def test_star_is_wildcard(self):
        assert FaultSpec.parse("exit@replay:shard=*").shard is None

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed fault parameter"):
            FaultSpec.parse("exit@replay:shard")
        with pytest.raises(ValueError, match="unknown fault parameter"):
            FaultSpec.parse("exit@replay:color=red")

    def test_plan_parses_semicolon_separated_specs(self):
        plan = FaultPlan.parse("exit@replay:shard=1; stall@replay ;")
        assert [s.kind for s in plan.specs] == ["exit", "stall"]
        assert bool(plan)
        assert not FaultPlan()

    def test_plan_from_env(self):
        env = {ENV_VAR: "exception@checkpoint"}
        plan = FaultPlan.from_env(env)
        assert plan.specs[0].stage == "checkpoint"
        assert not FaultPlan.from_env({})
        assert not FaultPlan.from_env({ENV_VAR: "   "})

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.parse("exit@replay:shard=1;truncate@payload")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInjector:
    def test_healthy_plan_never_fires(self):
        inj = FaultInjector(None)
        for stage in STAGES:
            inj.fire(stage, shard=0, worker=1, attempt=0)
        assert inj.fired == []

    def test_exception_fault_raises(self):
        inj = FaultInjector(FaultPlan.parse("exception@replay:shard=1"))
        inj.fire("replay", shard=0, worker=1, attempt=0)   # wrong shard
        with pytest.raises(InjectedFault, match="shard=1"):
            inj.fire("replay", shard=1, worker=1, attempt=0)
        assert inj.fired == [("exception", "replay", 1, 1, 0)]

    def test_stall_fault_sleeps(self):
        naps = []
        inj = FaultInjector(
            FaultPlan.parse("stall@replay:stall_seconds=12.5"),
            sleep=naps.append)
        inj.fire("replay", shard=0, worker=1, attempt=0)
        assert naps == [12.5]

    def test_exit_fault_in_parent_role_raises_worker_exit(self):
        inj = FaultInjector(FaultPlan.parse("exit@checkpoint:exit_code=7"),
                            role="parent")
        with pytest.raises(WorkerExit) as info:
            inj.fire("checkpoint")
        assert info.value.code == 7

    def test_exit_fault_in_worker_role_calls_os_exit(self, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.testing.faults.os._exit", calls.append)
        inj = FaultInjector(FaultPlan.parse("exit@replay:exit_code=9"))
        inj.fire("replay", shard=0, worker=1, attempt=0)
        assert calls == [9]

    def test_first_attempt_only_by_default(self):
        inj = FaultInjector(FaultPlan.parse("exception@replay"))
        with pytest.raises(InjectedFault):
            inj.fire("replay", shard=0, worker=1, attempt=0)
        inj.fire("replay", shard=0, worker=2, attempt=1)   # retry: no fault

    def test_persistent_fault_fires_every_attempt(self):
        inj = FaultInjector(FaultPlan.parse("exception@replay:attempt=any"))
        for attempt in range(3):
            with pytest.raises(InjectedFault):
                inj.fire("replay", shard=0, worker=1, attempt=attempt)

    def test_truncate_is_skipped_by_fire_and_applied_by_mangle(self):
        inj = FaultInjector(
            FaultPlan.parse("truncate@payload:truncate_to=3"))
        inj.fire("payload", shard=0, worker=1, attempt=0)   # no-op
        assert inj.fired == []
        assert inj.mangle("payload", b"abcdefgh", shard=0, worker=1,
                          attempt=0) == b"abc"
        assert inj.fired == [("truncate", "payload", 0, 1, 0)]

    def test_mangle_passes_through_when_unmatched(self):
        inj = FaultInjector(
            FaultPlan.parse("truncate@payload:shard=5"))
        blob = b"payload-bytes"
        assert inj.mangle("payload", blob, shard=0, worker=1,
                          attempt=0) is blob
