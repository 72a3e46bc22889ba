"""Fault-tolerant sweep execution: the retry supervisor.

The paper this repository reproduces models systems that survive
failures by persisting state once and rolling back to it; the harness
practices the same discipline. Its one persistent store is the
content-addressed :class:`~repro.backends.cache.ResultCache`: every
evaluated point is written there atomically (fsync + rename), so an
interrupted sweep re-run over the same cache resumes from it,
simulating only the missing points — and since every point's seed is
derived from its position, the resumed figure is bit-identical to an
uninterrupted run. A torn entry (a failure *during* the write) reads
as a miss and is simply re-evaluated. This module provides the
pieces :func:`~repro.experiments.runner.run_sweep` composes around
that store:

* :class:`SweepSupervisor` — the one retry layer. It drives any
  :class:`~repro.exec.base.Executor` (serial, process pool, persistent
  queue — see :mod:`repro.exec`): each point is retried up to
  ``RetryPolicy.max_retries`` times with exponential backoff, and a
  point that exhausts its retries is recorded as a structured
  :class:`FailureReport` instead of aborting the sweep. Hang detection
  (``point_timeout``) and pool-death degradation live in the executors
  themselves.

* :class:`ResilienceOptions` / :class:`RetryPolicy` — the
  configuration threaded from the CLI (``--retries``,
  ``--point-timeout``, ``--cache-dir``, ...) down to the executive.

Determinism contract: a point's outcome depends only on its
``(params, plan, seed)``, and a retry replays its point's own seed.
Scheduling, pool size, resume, retries and injected faults therefore
never change the *values* of points that succeed: a recovered point
is bit-identical to an unfaulted one, and a failure that is
deterministic at its seed stays a loud :class:`FailureReport` rather
than being resampled away.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..exec.base import Executor, ExecutorError
from ..exec.pool import PoolExecutor
from ..exec.serial import SerialExecutor
from ..exec.task import EvaluationTask, Outcome, TaskResult, failure_payload

__all__ = [
    "BACKOFF_MAX_SECONDS",
    "FailureReport",
    "ResilienceOptions",
    "RetryPolicy",
    "SupervisorResult",
    "SweepSupervisor",
    "failure_payload",
]

#: Backoff grows by this factor per retry ...
BACKOFF_FACTOR = 2.0
#: ... and is capped at this many seconds.
BACKOFF_MAX_SECONDS = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often a failed or hung point is retried, and how long the
    supervisor waits first.

    ``delay_for(k)`` is the backoff slept before retry ``k`` (1-based):
    ``backoff_base * 2 ** (k - 1)``, capped at
    :data:`BACKOFF_MAX_SECONDS`. Every retry replays the point's own
    seed; the policy decides only *whether* and *when*.
    """

    max_retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")

    def delay_for(self, attempt: int) -> float:
        """Backoff (seconds) before the given retry attempt (>= 1)."""
        if attempt < 1:
            return 0.0
        return min(
            BACKOFF_MAX_SECONDS,
            self.backoff_base * BACKOFF_FACTOR ** (attempt - 1),
        )


@dataclass
class FailureReport:
    """One sweep point that exhausted its retries.

    Attached to ``FigureResult.failures`` (and summarised into
    ``FigureResult.notes``) instead of aborting the sweep mid-run.
    """

    series: str
    x: float
    index: int
    attempts: int
    error_type: str
    error_message: str
    traceback: str = ""

    def summary(self) -> str:
        return (
            f"point {self.series!r} @ x={self.x:g} failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.error_message}"
        )


@dataclass
class ResilienceOptions:
    """Sweep-level fault-tolerance configuration.

    Attributes
    ----------
    retry:
        The per-point retry/backoff policy.
    point_timeout:
        Wall-clock seconds one point attempt may run before the
        supervisor declares it hung — the only time bound. The pool
        executor enforces it preemptively (the hung worker is
        killed); in-process executors (serial, queue) enforce it
        cooperatively by tightening the simulation's wall-clock
        budget, which a note on the figure records. Either way the
        attempt fails and goes through the normal retry path.
    fault_plan:
        Optional :class:`~repro.experiments.faultinject.FaultPlan`
        used by the tests and the CI smoke job to inject worker
        crashes, hangs and mid-sweep aborts deterministically.
    cache_dir:
        Root of a content-addressed
        :class:`~repro.backends.cache.ResultCache`. Every evaluated
        point is stored under its canonical request hash and re-used
        by later sweeps that request the identical evaluation, so
        re-running an interrupted sweep with the same ``cache_dir``
        resumes it. The cache is shared across figures, seeds and
        runs. ``None`` disables caching.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    point_timeout: Optional[float] = None
    fault_plan: Optional[Any] = None
    cache_dir: Optional[str] = None


@dataclass
class SupervisorResult:
    """Everything a supervised execution produced.

    ``execution`` is the executor's ``stats()`` snapshot (executor
    id, tasks executed, coalesced count, ...) taken when the run
    finished; the runner folds it into the manifest's ``execution``
    section. ``None`` when no task needed executing.
    """

    outcomes: Dict[int, Outcome] = field(default_factory=dict)
    failures: List[FailureReport] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    attempts: Dict[int, int] = field(default_factory=dict)
    execution: Optional[Dict[str, Any]] = None


class _PendingQueue:
    """Retry-aware work queue: FIFO of ready entries plus a delayed
    set whose backoff deadlines have not passed yet."""

    def __init__(self, indices: Sequence[int]) -> None:
        self.ready: Deque[Tuple[int, int]] = deque((i, 0) for i in indices)
        self.delayed: List[Tuple[float, int, int]] = []

    def __bool__(self) -> bool:
        return bool(self.ready) or bool(self.delayed)

    def promote(self, now: float) -> None:
        """Move delayed entries whose deadline passed into the ready queue."""
        due = [entry for entry in self.delayed if entry[0] <= now]
        if due:
            self.delayed = [e for e in self.delayed if e[0] > now]
            for _, index, attempt in sorted(due):
                self.ready.append((index, attempt))

    def defer(self, index: int, attempt: int, not_before: float) -> None:
        self.delayed.append((not_before, index, attempt))

    def requeue_front(self, entries: Sequence[Tuple[int, int]]) -> None:
        for index, attempt in reversed(entries):
            self.ready.appendleft((index, attempt))

    def next_deadline(self) -> Optional[float]:
        return min((e[0] for e in self.delayed), default=None)


class SweepSupervisor:
    """Retry policy driver: runs point tasks to completion over any
    executor.

    The supervisor owns *policy* — which attempt to run next, when a
    failed attempt may retry (exponential backoff, same seed), when a
    point is declared failed for good — and delegates
    *mechanism* (processes, hang preemption, persistence, dedup) to
    an :class:`~repro.exec.base.Executor`.

    Parameters
    ----------
    options:
        The :class:`ResilienceOptions` in effect.
    processes:
        Worker process count used when no ``executor`` is passed:
        ``1`` builds a :class:`~repro.exec.serial.SerialExecutor`,
        ``>= 2`` a :class:`~repro.exec.pool.PoolExecutor`.
    on_success:
        Callback ``() -> None`` fired (in the supervisor process) after
        each completed point — progress reporting and fault-plan abort
        hooks live there. Exceptions it raises propagate: an abort
        injected mid-sweep behaves exactly like the process being
        killed.
    clock / sleep / pool_factory:
        Injectable time source, sleep function and worker-pool
        constructor (defaults: ``time.monotonic``, ``time.sleep``,
        ``multiprocessing.Pool``), forwarded to a supervisor-built
        executor. Tests drive backoff and hang detection with a fake
        clock and stub pools so CI never depends on real
        ``time.sleep`` margins.
    run_task:
        Test seam: overrides the task-execution function of a
        supervisor-built executor (default
        :func:`~repro.exec.task.execute_task`).
    executor:
        A ready-made executor to drive instead of building one. The
        caller keeps ownership: the supervisor drains its results and
        notes but does not ``close()`` it.
    """

    def __init__(
        self,
        options: ResilienceOptions,
        processes: int = 1,
        on_success: Optional[Callable[[], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        pool_factory: Optional[Callable[[], Any]] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.options = options
        self.processes = max(1, processes)
        self.on_success = on_success
        self._clock = clock
        self._sleep = sleep
        self._pool_factory = pool_factory
        self._run_task = run_task
        self._executor = executor

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[EvaluationTask]) -> SupervisorResult:
        """Drive every task to success or exhausted retries."""
        result = SupervisorResult()
        if not tasks:
            return result
        by_index = {task.index: task for task in tasks}
        queue = _PendingQueue([task.index for task in tasks])

        executor = self._executor
        owns_executor = executor is None
        if owns_executor:
            executor = self._build_executor()
        if (
            self.options.point_timeout is not None
            and not executor.capabilities.preemptive_timeout
        ):
            result.notes.append(
                "point_timeout is enforced cooperatively (as a simulation "
                f"wall-clock budget) by the {executor.capabilities.name!r} "
                "executor; use the pool executor (processes >= 2) to "
                "preempt hung points"
            )
        try:
            self._drive(executor, queue, by_index, result)
        finally:
            result.execution = executor.stats()
            result.notes.extend(executor.notes)
            del executor.notes[:]
            if owns_executor:
                executor.close()
        return result

    def _build_executor(self) -> Executor:
        """The executor implied by ``processes`` (pool above 1)."""
        options = self.options
        if self.processes > 1:
            return PoolExecutor(
                processes=self.processes,
                point_timeout=options.point_timeout,
                fault_plan=options.fault_plan,
                clock=self._clock,
                sleep=self._sleep,
                pool_factory=self._pool_factory,
                run_task=self._run_task,
            )
        return SerialExecutor(
            point_timeout=options.point_timeout,
            fault_plan=options.fault_plan,
            run_task=self._run_task,
        )

    def _drive(
        self,
        executor: Executor,
        queue: _PendingQueue,
        by_index: Dict[int, EvaluationTask],
        result: SupervisorResult,
    ) -> None:
        """The submit/backoff/collect loop shared by every executor."""
        results_iter = None
        stalled = False
        while queue or executor.pending:
            now = self._clock()
            queue.promote(now)
            while queue.ready:
                index, attempt = queue.ready.popleft()
                executor.submit(by_index[index].with_attempt(attempt))
            if executor.pending == 0:
                deadline = queue.next_deadline()
                if deadline is not None:
                    self._sleep(max(0.0, deadline - now))
                continue
            if results_iter is None:
                results_iter = executor.drain()
            task_result = next(results_iter, None)
            if task_result is None:
                # The drain generator ended; recreate it for the work
                # submitted since. Two consecutive empty drains with
                # work still pending means the executor is stuck.
                results_iter = None
                if stalled:
                    raise ExecutorError(
                        f"executor {executor.capabilities.name!r} reports "
                        f"{executor.pending} pending task(s) but its drain "
                        "yields nothing"
                    )
                stalled = True
                continue
            stalled = False
            task = by_index.get(task_result.index)
            if task is None:
                continue  # not ours (shared persistent queue)
            if task_result.ok:
                self._record_success(
                    task, task_result.outcome, task_result.attempt, result
                )
            else:
                self._record_attempt_failure(
                    task,
                    task_result.attempt,
                    task_result.failure or {},
                    queue,
                    result,
                    self._clock(),
                )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_success(
        self,
        task: EvaluationTask,
        outcome: Outcome,
        attempt: int,
        result: SupervisorResult,
    ) -> None:
        result.outcomes[task.index] = outcome
        result.attempts[task.index] = attempt + 1
        if self.on_success is not None:
            self.on_success()

    def _record_attempt_failure(
        self,
        task: EvaluationTask,
        attempt: int,
        payload: Dict[str, str],
        queue: _PendingQueue,
        result: SupervisorResult,
        now: float,
    ) -> None:
        retry = self.options.retry
        if attempt < retry.max_retries:
            next_attempt = attempt + 1
            queue.defer(task.index, next_attempt, now + retry.delay_for(next_attempt))
        else:
            result.attempts[task.index] = attempt + 1
            result.failures.append(
                FailureReport(
                    series=task.series,
                    x=float(task.x),
                    index=task.index,
                    attempts=attempt + 1,
                    error_type=payload.get("error_type", "Exception"),
                    error_message=payload.get("error_message", ""),
                    traceback=payload.get("traceback", ""),
                )
            )
