"""Tests for the serializable task / result envelope layer.

The contract under test: an :class:`~repro.exec.EvaluationTask` is a
picklable value object that round-trips through JSON under a versioned
schema, runs every attempt under its point's own seed, and is
content-addressed by exactly the digest the result cache files
its entries under. :func:`~repro.exec.execute_task` never raises, and
a cooperative deadline must never fork the cache key space.
"""

import pickle

import pytest

from repro.backends import EvaluationPlan, ResultCache, get_backend
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import (
    TASK_SCHEMA_VERSION,
    EvaluationTask,
    TaskError,
    TaskResult,
    execute_task,
)

TINY_SIM = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=2)
TINY = EvaluationPlan(simulation=TINY_SIM)


def make_task(**overrides):
    fields = dict(
        index=3,
        series="MTTF (yrs) = 1",
        x=8192,
        params=ModelParameters(n_processors=8192),
        plan=TINY,
        backend="analytical",
        base_seed=17,
        attempt=2,
        priority=1,
        cache_dir=None,
    )
    fields.update(overrides)
    return EvaluationTask(**fields)


class TestEvaluationTask:
    def test_json_round_trip(self):
        task = make_task()
        payload = task.to_json_dict()
        assert payload["schema_version"] == TASK_SCHEMA_VERSION
        rebuilt = EvaluationTask.from_json_dict(payload)
        assert rebuilt.params == task.params
        assert rebuilt.plan == task.plan
        assert rebuilt.cache_key() == task.cache_key()

    def test_pickle_round_trip(self):
        task = make_task(cache_dir="/tmp/somewhere")
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_foreign_schema_version_rejected(self):
        payload = make_task().to_json_dict()
        payload["schema_version"] = TASK_SCHEMA_VERSION + 1
        with pytest.raises(TaskError):
            EvaluationTask.from_json_dict(payload)

    def test_malformed_payload_rejected(self):
        payload = make_task().to_json_dict()
        del payload["params"]
        with pytest.raises(TaskError):
            EvaluationTask.from_json_dict(payload)

    def test_seed_derivation_matches_retry_layer(self):
        # A retry replays the point's seed: the attempt number is
        # bookkeeping only.
        task = make_task(attempt=0)
        assert task.seed == task.base_seed
        retried = task.with_attempt(3)
        assert retried.seed == task.base_seed
        assert retried.seeded_plan() == task.seeded_plan()

    def test_cache_key_matches_result_cache(self, tmp_path):
        # The queue's "same work" and the cache's "same entry" must be
        # the same digest, or coalescing and caching drift apart.
        task = make_task(attempt=0)
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        expected = cache.key(backend, task.params, task.seeded_plan())
        assert task.cache_key() == expected

    def test_cache_key_same_across_attempts(self):
        # A retry is the same work again, so the queue coalesces it
        # and the cache serves it from the one entry.
        task = make_task(attempt=0)
        assert task.cache_key() == task.with_attempt(1).cache_key()


class TestTaskResult:
    def test_json_round_trip(self):
        result = TaskResult(
            status="ok", index=1, series="s", x=2.0, attempt=0,
            seed_used=5, mean=0.75, half_width=0.01,
            result={"backend": "analytical"},
        )
        rebuilt = TaskResult.from_json_dict(result.to_json_dict())
        assert rebuilt == result
        assert rebuilt.ok
        assert rebuilt.outcome == ("s", 2.0, 0.75, 0.01)

    def test_foreign_schema_version_rejected(self):
        payload = TaskResult(
            status="ok", index=0, series="s", x=1.0, attempt=0, seed_used=0
        ).to_json_dict()
        payload["schema_version"] = TASK_SCHEMA_VERSION + 1
        with pytest.raises(TaskError):
            TaskResult.from_json_dict(payload)

    def test_error_result_has_no_outcome(self):
        failed = TaskResult(
            status="error", index=0, series="s", x=1.0, attempt=1,
            seed_used=9, failure={"error_type": "RuntimeError"},
        )
        assert not failed.ok
        with pytest.raises(TaskError):
            failed.outcome


class TestExecuteTask:
    def test_success_envelope(self):
        result = execute_task(make_task(attempt=0))
        assert result.ok
        assert result.seed_used == 17
        assert result.x == 8192
        assert 0 < result.mean <= 1
        assert result.result["backend"] == "analytical"

    def test_never_raises(self):
        bad = make_task(backend="no-such-backend")
        result = execute_task(bad)
        assert not result.ok
        assert result.failure["error_type"] == "UnknownBackendError"
        assert "no-such-backend" in result.failure["error_message"]

    def test_writes_through_to_cache(self, tmp_path):
        task = make_task(attempt=0, cache_dir=str(tmp_path))
        execute_task(task)
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        assert cache.get(backend, task.params, task.seeded_plan()) is not None

    def test_deadline_does_not_pollute_cache_key(self, tmp_path):
        # A deadline tightens the evaluation's wall-clock budget but
        # the entry must still be filed under the un-tightened plan:
        # a later run without any deadline has to hit it.
        task = make_task(attempt=0, cache_dir=str(tmp_path))
        execute_task(task, deadline=3600.0)
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        assert cache.get(backend, task.params, task.seeded_plan()) is not None

    def test_cooperative_deadline_times_out_hung_point(self):
        # A microscopic deadline on the real simulator must surface as
        # a structured WallClockExceededError failure, not a hang.
        slow = EvaluationPlan(
            simulation=SimulationPlan(
                warmup=2 * HOUR, observation=2000 * HOUR, replications=4
            )
        )
        task = make_task(plan=slow, backend="san-sim", attempt=0)
        result = execute_task(task, deadline=1e-6)
        assert not result.ok
        assert result.failure["error_type"] == "WallClockExceededError"

    def test_deadline_tightens_not_loosens(self):
        # An existing (smaller) plan budget wins over a looser deadline.
        budgeted = EvaluationPlan(
            simulation=SimulationPlan(
                warmup=2 * HOUR,
                observation=2000 * HOUR,
                replications=4,
                wall_clock_budget=1e-6,
            )
        )
        task = make_task(plan=budgeted, backend="san-sim", attempt=0)
        result = execute_task(task, deadline=3600.0)
        assert not result.ok
        assert result.failure["error_type"] == "WallClockExceededError"
