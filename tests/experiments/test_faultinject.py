"""Tests for the deterministic fault-injection harness."""

import pickle

import pytest

from repro.experiments.faultinject import (
    FaultPlan,
    InjectedCrash,
    SweepAborted,
    _unit_interval,
)


class TestFaultPlan:
    def test_crash_fires_only_on_configured_attempts(self):
        plan = FaultPlan().crash(2, attempts=(0, 1))
        with pytest.raises(InjectedCrash, match="point 2, attempt 0"):
            plan.before_point(2, 0)
        with pytest.raises(InjectedCrash):
            plan.before_point(2, 1)
        plan.before_point(2, 2)  # retries past the plan succeed
        plan.before_point(0, 0)  # other points are untouched

    def test_hang_sleeps_configured_duration(self):
        plan = FaultPlan().hang(1, attempts=(0,), seconds=0.05)
        import time

        started = time.monotonic()
        plan.before_point(1, 0)
        assert time.monotonic() - started >= 0.05
        started = time.monotonic()
        plan.before_point(1, 1)  # attempt not in plan: no sleep
        assert time.monotonic() - started < 0.05

    def test_abort_after_points(self):
        plan = FaultPlan().abort_after_points(2)
        plan.after_success(1)
        with pytest.raises(SweepAborted, match="after 2 completed"):
            plan.after_success(2)

    def test_no_abort_configured_is_silent(self):
        FaultPlan().after_success(100)

    def test_chaining_builds_one_plan(self):
        plan = FaultPlan().crash(0).hang(1, seconds=9.0).abort_after_points(5)
        assert plan.crashes == {0: (0,)}
        assert plan.hangs == {1: (0,)}
        assert plan.hang_seconds == 9.0
        assert plan.abort_after == 5

    def test_plan_is_picklable(self):
        plan = FaultPlan().crash(3, attempts=(0, 1)).hang(4, seconds=1.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.crashes == plan.crashes
        assert clone.hangs == plan.hangs
        assert clone.hang_seconds == plan.hang_seconds
        with pytest.raises(InjectedCrash):
            clone.before_point(3, 1)


class TestSampledFaultPlan:
    def test_affliction_is_deterministic_per_index(self):
        plan = FaultPlan.sampled(64, crash=0.5, hang=0.5, hang_seconds=9.0)
        again = FaultPlan.sampled(64, crash=0.5, hang=0.5, hang_seconds=9.0)
        assert plan == again
        # Roughly half of 64 points is afflicted per kind, not none or all.
        assert 8 < len(plan.crashes) < 56
        assert 8 < len(plan.hangs) < 56
        assert plan.hang_seconds == 9.0

    def test_salt_redraws_the_pattern(self):
        plain = FaultPlan.sampled(64, crash=0.5)
        salted = FaultPlan.sampled(64, crash=0.5, salt="other")
        assert set(plain.crashes) != set(salted.crashes)

    def test_faults_fire_on_first_attempt_only(self):
        plan = FaultPlan.sampled(4, crash=1.0)
        assert plan.crashes == {i: (0,) for i in range(4)}
        with pytest.raises(InjectedCrash):
            plan.before_point(2, 0)
        plan.before_point(2, 1)  # the retry escapes the fault

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan.sampled(4, crash=1.5)
        with pytest.raises(ValueError, match="hang"):
            FaultPlan.sampled(4, hang=-0.1)

    def test_plan_is_picklable_and_hooks_survive(self):
        plan = FaultPlan.sampled(8, crash=1.0, salt="s")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        with pytest.raises(InjectedCrash):
            clone.before_point(3, 0)

    def test_unit_interval_range_and_stability(self):
        values = [_unit_interval(f"t{i}") for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert _unit_interval("t0") == values[0]
