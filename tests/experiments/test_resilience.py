"""Tests for fault-tolerant sweep execution: resume from the result
cache, retry with backoff, hang supervision, and graceful degradation."""

import json

import pytest

from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import shutdown_pool
from repro.experiments import SweepPoint, run_sweep
from repro.experiments.archive import save_figure
from repro.experiments.faultinject import FaultPlan, SweepAborted
from repro.experiments.resilience import ResilienceOptions, RetryPolicy

TINY = SimulationPlan(warmup=1 * HOUR, observation=10 * HOUR, replications=1)
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01)


def make_points(count=4):
    base = ModelParameters(n_processors=8192)
    return [SweepPoint("s", float(i + 1), base) for i in range(count)]


def sweep(points, seed=7, **kwargs):
    return run_sweep(
        "fig-test", "t", "x", "useful_work_fraction", points, TINY,
        seed=seed, **kwargs,
    )


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=8, backoff_base=4.0)
        assert policy.delay_for(1) == 4.0
        assert policy.delay_for(2) == 8.0
        assert policy.delay_for(3) == 16.0
        assert policy.delay_for(4) == 30.0  # capped
        assert policy.delay_for(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.5)


class TestDuplicatePointDetection:
    def test_duplicate_series_x_rejected(self):
        base = ModelParameters(n_processors=8192)
        points = [
            SweepPoint("s", 1.0, base),
            # Same (series, x), different configuration: previously this
            # silently overwrote the total-useful-work scale factor.
            SweepPoint("s", 1.0, base.with_overrides(n_processors=16384)),
        ]
        with pytest.raises(ValueError, match="duplicate sweep point"):
            sweep(points)

    def test_same_x_different_series_allowed(self):
        base = ModelParameters(n_processors=8192)
        points = [SweepPoint("a", 1.0, base), SweepPoint("b", 1.0, base)]
        figure = sweep(points)
        assert set(figure.series) == {"a", "b"}


class TestRetries:
    def test_crash_is_retried_and_succeeds(self):
        plan = FaultPlan().crash(0, attempts=(0,))
        figure = sweep(
            make_points(2),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert not figure.failures
        assert len(figure.series["s"]) == 2

    def test_exhausted_retries_reported_not_raised(self):
        plan = FaultPlan().crash(1, attempts=(0, 1, 2))
        figure = sweep(
            make_points(3),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert len(figure.failures) == 1
        report = figure.failures[0]
        assert report.series == "s"
        assert report.x == 2.0
        assert report.attempts == 3
        assert report.error_type == "InjectedCrash"
        assert "injected crash" in report.error_message
        assert "InjectedCrash" in report.traceback
        # The other points survived, and the failure is summarised in notes.
        assert [x for x, _, _ in figure.series["s"]] == [1.0, 3.0]
        assert any("FAILED" in note for note in figure.notes)

    def test_no_retries_means_single_attempt(self):
        plan = FaultPlan().crash(0, attempts=(0,))
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=RetryPolicy(max_retries=0), fault_plan=plan
            ),
        )
        assert len(figure.failures) == 1
        assert figure.failures[0].attempts == 1

    def test_progress_reaches_total_despite_failures(self):
        calls = []
        plan = FaultPlan().crash(0, attempts=(0, 1, 2))
        sweep(
            make_points(2),
            progress=lambda done, total: calls.append((done, total)),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert calls[-1] == (2, 2)


class TestCheckpointResume:
    """Resume is a warm cache: an interrupted sweep re-run over the
    same ``cache_dir`` simulates only the points it did not finish."""

    @staticmethod
    def abort_after(points, cache_dir, after, **kwargs):
        plan = FaultPlan().abort_after_points(after)
        with pytest.raises(SweepAborted):
            sweep(
                points,
                resilience=ResilienceOptions(
                    cache_dir=cache_dir, fault_plan=plan
                ),
                **kwargs,
            )

    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        points = make_points(4)
        reference = sweep(points)
        self.abort_after(points, str(tmp_path), 2)
        resumed = sweep(
            points, resilience=ResilienceOptions(cache_dir=str(tmp_path))
        )
        assert resumed.series == reference.series
        assert resumed.manifest.points_from_cache == 2
        assert resumed.manifest.new_evaluations == 2
        assert (
            f"result cache: 2 of 4 point(s) reused from {tmp_path}"
            in resumed.notes
        )

    def test_resumed_archive_is_byte_identical_to_cold(self, tmp_path):
        # Integral x values (machine sizes) must come back as ints: a
        # resumed archive is the cold one byte for byte, apart from the
        # cache's provenance note.
        points = [
            SweepPoint("s", n, ModelParameters(n_processors=n))
            for n in (8192, 16384, 32768)
        ]
        plan = SimulationPlan(
            warmup=1 * HOUR, observation=10 * HOUR, replications=2
        )

        def run(**kwargs):
            return run_sweep(
                "fig-int", "t", "x", "total_useful_work", points, plan,
                seed=7, **kwargs,
            )

        cold = run()
        assert cold.notes == []
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(SweepAborted):
            run(resilience=ResilienceOptions(
                cache_dir=cache_dir,
                fault_plan=FaultPlan().abort_after_points(2),
            ))
        resumed = run(resilience=ResilienceOptions(cache_dir=cache_dir))
        cold_path = save_figure(cold, str(tmp_path / "cold"))
        resumed_path = save_figure(resumed, str(tmp_path / "resumed"))
        with open(cold_path, encoding="utf-8") as handle:
            cold_text = handle.read()
        with open(resumed_path, encoding="utf-8") as handle:
            resumed_text = handle.read()
        payload = json.loads(cold_text)
        # The archive writer's own encoding, so this compares bytes.
        assert json.dumps(payload, indent=2, sort_keys=True) == cold_text
        payload["notes"] = [
            f"result cache: 2 of 3 point(s) reused from {cache_dir}"
        ]
        assert resumed_text == json.dumps(payload, indent=2, sort_keys=True)
        assert all(
            isinstance(x, int) for x, _, _ in resumed.series["s"]
        )

    def test_resumed_points_are_not_resimulated(self, tmp_path):
        points = make_points(3)
        sweep(points, resilience=ResilienceOptions(cache_dir=str(tmp_path)))

        # A crash-everything plan proves nothing runs on resume: the
        # sweep still succeeds because every point comes from the cache.
        plan = FaultPlan()
        for index in range(len(points)):
            plan.crash(index, attempts=(0, 1, 2))
        resumed = sweep(
            points,
            resilience=ResilienceOptions(
                cache_dir=str(tmp_path), retry=FAST_RETRY, fault_plan=plan
            ),
        )
        assert not resumed.failures
        assert len(resumed.series["s"]) == 3

    def test_mismatched_configuration_refuses_resume(self, tmp_path):
        # The cache key covers the whole request, seed included, so a
        # sweep at another root seed cannot pick up the first sweep's
        # points: nothing is reused and its figure equals a cold run.
        points = make_points(2)
        sweep(points, resilience=ResilienceOptions(cache_dir=str(tmp_path)))
        other = sweep(
            points, seed=100,
            resilience=ResilienceOptions(cache_dir=str(tmp_path)),
        )
        assert other.manifest.points_from_cache == 0
        assert other.manifest.new_evaluations == 2
        assert other.series == sweep(points, seed=100).series

    def test_progress_counts_resumed_points(self, tmp_path):
        points = make_points(3)
        self.abort_after(points, str(tmp_path), 2)
        calls = []
        sweep(
            points,
            progress=lambda done, total: calls.append((done, total)),
            resilience=ResilienceOptions(cache_dir=str(tmp_path)),
        )
        assert calls[0] == (2, 3)
        assert calls[-1] == (3, 3)


class TestPoolSupervision:
    def test_pool_crash_retry_matches_serial(self):
        points = make_points(3)
        reference = sweep(points)
        plan = FaultPlan().crash(1, attempts=(0,))
        figure = sweep(
            points,
            processes=2,
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert not figure.failures
        assert figure.manifest.retries == 1
        # The retry replayed the point's own seed, so the recovered
        # point equals the serial reference bit for bit, like the rest.
        assert figure.series == reference.series

    def test_serial_timeout_records_note(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(point_timeout=5.0),
        )
        assert any("point_timeout" in note for note in figure.notes)


class FakeClock:
    """A monotonic clock whose ``sleep`` advances it instantly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)


class ScriptedAsyncResult:
    """An AsyncResult double: ready immediately, or hung forever."""

    def __init__(self, value=None, hang=False, clock=None):
        self.value = value
        self.hang = hang
        self.clock = clock

    def wait(self, timeout=None):
        if self.hang and timeout:
            self.clock.sleep(timeout)

    def ready(self):
        return not self.hang

    def get(self):
        return self.value


class StubPool:
    """A pool double running tasks synchronously in-process, except
    for ``(index, attempt)`` pairs scripted to hang forever."""

    def __init__(self, clock, hangs=()):
        self.clock = clock
        self.hangs = set(hangs)
        self.terminated = False
        self.closed = False

    def apply_async(self, func, args):
        task = args[0]
        if (task.index, task.attempt) in self.hangs:
            return ScriptedAsyncResult(hang=True, clock=self.clock)
        return ScriptedAsyncResult(value=func(*args))

    def close(self):
        self.closed = True

    def terminate(self):
        self.terminated = True

    def join(self):
        pass


class TestDeterministicSupervision:
    """Hang detection and retry backoff on a fake clock: no real
    sleeps, no real pools, no timing margins to go flaky under load.

    The real-pool integration path stays covered by
    ``test_pool_crash_retry_matches_serial`` above.
    """

    @staticmethod
    def ok_task(task, fault_plan=None, deadline=None):
        from repro.exec import TaskResult

        return TaskResult(
            status="ok", index=task.index, series=task.series, x=task.x,
            attempt=task.attempt, seed_used=task.seed, mean=0.5,
            half_width=0.0,
        )

    @staticmethod
    def make_tasks(count):
        from repro.backends import EvaluationPlan
        from repro.exec import EvaluationTask

        base = ModelParameters(n_processors=8192)
        plan = EvaluationPlan(simulation=TINY)
        return [
            EvaluationTask(
                index=i, series="s", x=float(i + 1), params=base,
                plan=plan, backend="san-sim", base_seed=7,
            )
            for i in range(count)
        ]

    def test_hung_worker_is_killed_and_retried(self):
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()
        pools = []

        def pool_factory():
            # The first pool hangs point 0's first attempt; replacement
            # pools are healthy.
            pool = StubPool(clock, hangs={(0, 0)} if not pools else set())
            pools.append(pool)
            return pool

        supervisor = SweepSupervisor(
            ResilienceOptions(retry=FAST_RETRY, point_timeout=5.0),
            processes=2,
            clock=clock,
            sleep=clock.sleep,
            pool_factory=pool_factory,
            run_task=self.ok_task,
        )
        result = supervisor.run(self.make_tasks(2))
        assert not result.failures
        assert set(result.outcomes) == {0, 1}
        assert result.attempts[0] == 2  # killed once, then succeeded
        assert result.attempts[1] == 1
        assert len(pools) == 2  # the hung pool was replaced
        assert pools[0].terminated
        assert result.execution["executor"] == "pool"
        assert result.execution["timeouts"] == 1
        assert result.execution["pools_started"] == 2
        # The supervisor waited out one point timeout plus the backoff,
        # nothing near the "hang" itself (which never returns).
        assert clock.now <= 5.0 + FAST_RETRY.delay_for(1) + 1.0

    def test_hung_point_exhausts_retries_into_failure_report(self):
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()

        def pool_factory():
            # Every pool hangs every attempt of point 0.
            return StubPool(clock, hangs={(0, a) for a in range(10)})

        supervisor = SweepSupervisor(
            ResilienceOptions(
                retry=RetryPolicy(max_retries=1, backoff_base=0.01),
                point_timeout=5.0,
            ),
            processes=2,
            clock=clock,
            sleep=clock.sleep,
            pool_factory=pool_factory,
            run_task=self.ok_task,
        )
        result = supervisor.run(self.make_tasks(1))
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "PointTimeout"
        assert result.failures[0].attempts == 2

    def test_serial_backoff_follows_the_policy_exactly(self):
        from repro.exec import TaskResult
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()
        attempts_seen = []

        def flaky_task(task, fault_plan=None, deadline=None):
            attempts_seen.append(task.attempt)
            if task.attempt < 2:
                return TaskResult(
                    status="error", index=task.index, series=task.series,
                    x=task.x, attempt=task.attempt, seed_used=task.seed,
                    failure={"error_type": "Boom", "error_message": "x"},
                )
            return self.ok_task(task)

        policy = RetryPolicy(max_retries=3, backoff_base=10.0)
        supervisor = SweepSupervisor(
            ResilienceOptions(retry=policy),
            processes=1,
            clock=clock,
            sleep=clock.sleep,
            run_task=flaky_task,
        )
        result = supervisor.run(self.make_tasks(1))
        assert not result.failures
        assert attempts_seen == [0, 1, 2]
        # Two backoffs were slept, both at their exact policy values.
        assert clock.sleeps == [policy.delay_for(1), policy.delay_for(2)]
        assert clock.now == pytest.approx(10.0 + 20.0)

    def test_deterministic_failure_at_seed_exhausts_into_failure_report(self):
        from repro.exec import TaskResult
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()
        seeds_seen = []

        def poisoned_seed(task, *args):
            # Fails whenever it runs at seed 7: a defect of the sample
            # path, not a transient fault.
            seeds_seen.append(task.seed)
            if task.seed == 7:
                return TaskResult(
                    status="error", index=task.index, series=task.series,
                    x=task.x, attempt=task.attempt, seed_used=task.seed,
                    failure={"error_type": "Poisoned",
                             "error_message": "fails at seed 7"},
                )
            return self.ok_task(task)

        supervisor = SweepSupervisor(
            ResilienceOptions(retry=RetryPolicy(max_retries=2,
                                                backoff_base=0.0)),
            processes=1,
            clock=clock,
            sleep=clock.sleep,
            run_task=poisoned_seed,
        )
        result = supervisor.run(self.make_tasks(1))
        # Every retry replayed the same seed, so the failure stays loud
        # instead of being resampled away.
        assert seeds_seen == [7, 7, 7]
        assert result.outcomes == {}
        [report] = result.failures
        assert report.attempts == 3
        assert report.error_type == "Poisoned"


class TestPoolShutdownErrors:
    """Pool-cleanup failures are no longer swallowed silently."""

    class BrokenPool:
        def close(self):
            raise OSError("close failed")

        def terminate(self):
            raise OSError("terminate failed")

        def join(self):
            pass

    class GoodPool:
        def close(self):
            pass

        def terminate(self):
            pass

        def join(self):
            pass

    def test_reraises_when_no_prior_error(self):
        notes = []
        with pytest.raises(OSError, match="close failed"):
            shutdown_pool(self.BrokenPool(), notes=notes)
        assert notes and "close failed" in notes[0]

    def test_suppresses_but_records_with_prior_error_in_flight(self):
        notes = []
        with pytest.raises(ValueError, match="primary"):
            try:
                raise ValueError("primary")
            except ValueError:
                # Cleanup inside an except block must not replace the
                # primary error -- but it must still leave a note.
                shutdown_pool(self.BrokenPool(), notes=notes)
                raise
        assert notes and "close failed" in notes[0]

    def test_counts_failures_in_metrics(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            with pytest.raises(OSError):
                shutdown_pool(self.BrokenPool(), terminate=True)
            from repro.obs.metrics import registry

            assert (
                registry().snapshot()["counters"]["sweep.pool_shutdown_errors"]
                == 1
            )
        finally:
            set_registry(previous)

    def test_clean_shutdown_is_silent(self):
        notes = []
        shutdown_pool(self.GoodPool(), notes=notes)
        assert notes == []


class TestSweepManifest:
    """run_sweep attaches a manifest describing point provenance."""

    def test_cold_then_warm_cache(self, tmp_path):
        points = make_points(2)
        options = ResilienceOptions(cache_dir=str(tmp_path))
        cold = sweep(points, resilience=options)
        assert cold.manifest is not None
        assert cold.manifest.points_total == 2
        assert cold.manifest.new_evaluations == 2
        assert cold.manifest.points_from_cache == 0

        warm = sweep(points, resilience=options)
        assert warm.manifest.new_evaluations == 0
        assert warm.manifest.points_from_cache == 2

    def test_single_replication_marks_unvalidated(self):
        figure = sweep(make_points(1))
        assert figure.unvalidated_intervals is True
        assert any("UNVALIDATED" in note.upper() for note in figure.notes)

    def test_manifest_records_wall_clock_and_metrics(self):
        figure = sweep(make_points(1))
        manifest = figure.manifest
        assert manifest.wall_clock_seconds is not None
        assert manifest.wall_clock_seconds >= 0.0
        assert manifest.metrics["counters"]["sweep.runs"] >= 1
