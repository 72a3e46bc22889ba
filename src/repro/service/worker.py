"""The service worker: a long-running queue drainer process.

``repro worker --queue-dir Q`` runs one of these. The loop is the
smallest thing that is correct against the queue's concurrency
contract:

1. sweep expired in-flight leases back to ``pending/`` (the shared
   janitor from :mod:`repro.exec.queue` — only claims whose drainer
   stopped heartbeating are requeued);
2. claim the first pending file by atomic rename (losing the race to
   a sibling worker just means trying the next file);
3. execute the task through the standard
   :func:`~repro.exec.task.execute_task` while an
   :class:`~repro.exec.InflightLease` heartbeats the claim, so
   however slow the point is, no other janitor steals it; a failed
   attempt is retried in place under the sweep's
   :class:`~repro.experiments.resilience.RetryPolicy`, on the same
   seed;
4. drop the claim and append one line to the worker's evaluation
   log. The answer itself was stored by ``execute_task`` in the
   task's result cache (``<queue_dir>/cache`` unless the submitter
   named one) — the same entries executors and the job API read.

Several workers share one queue directory safely: the rename in step
2 is the mutual exclusion, and the integration tests assert the
global property it buys — N workers, one submitted job, zero
double-evaluations.

Shutdown is cooperative: SIGTERM (and SIGINT) set a flag checked
between tasks, so the current task always finishes, its result is
stored, and the claim is released before the process exits — a
drained SIGTERM never creates an orphan for the janitor to recover.

Accounting: each executed task (however many attempts it took)
increments ``worker.evaluated`` or ``worker.failed``, and the worker
persists its metrics snapshot to
``<queue_dir>/obs/<worker_id>.metrics.json`` after every task so
``repro obs`` can render it while the worker is alive or after it
exited.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import TYPE_CHECKING, Callable, Optional

from ..exec import InflightLease, TaskError, TaskResult
from ..exec.queue import (
    INFLIGHT_SWEEP_AGE_SECONDS,
    claim_next_pending,
    sweep_orphaned_inflight,
    with_queue_cache,
)
from ..exec.task import EvaluationTask, execute_task
from ..obs import metrics as obs_metrics
from .jobs import write_metrics_snapshot

if TYPE_CHECKING:  # the experiments layer is not imported at runtime
    from ..experiments.resilience import RetryPolicy

__all__ = ["ServiceWorker"]


class ServiceWorker:
    """One drainer process over a shared queue directory.

    Parameters
    ----------
    queue_dir:
        The shared queue (same layout as
        :class:`~repro.exec.QueueExecutor`).
    worker_id:
        Name used for the evaluation log and metrics snapshot;
        defaults to ``worker-<pid>``.
    poll_interval:
        Sleep between polls of an empty queue (seconds).
    idle_exit:
        Exit after this many seconds with nothing claimable
        (``None`` = run until signalled); turns the daemon into a
        finite drainer for tests and CI.
    max_tasks:
        Exit after executing this many tasks (``None`` = unlimited).
    orphan_age:
        Lease threshold shared by the janitor and the heartbeat.
    point_timeout:
        Cooperative per-attempt deadline, passed through to
        :func:`~repro.exec.task.execute_task`.
    retry:
        :class:`~repro.experiments.resilience.RetryPolicy` for failed
        attempts, retried in place on the task's own seed (``None``:
        one attempt).
    run_task / clock / sleep:
        Test seams.
    """

    def __init__(
        self,
        queue_dir: str,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        idle_exit: Optional[float] = None,
        max_tasks: Optional[int] = None,
        orphan_age: float = INFLIGHT_SWEEP_AGE_SECONDS,
        point_timeout: Optional[float] = None,
        retry: Optional["RetryPolicy"] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.queue_dir = queue_dir
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_interval = poll_interval
        self.idle_exit = idle_exit
        self.max_tasks = max_tasks
        self.orphan_age = orphan_age
        self.point_timeout = point_timeout
        self.retry = retry
        self._run_task = run_task or execute_task
        self._clock = clock
        self._sleep = sleep
        self._stop_requested = False
        self.executed = 0
        self.failed = 0
        self._pending_dir = os.path.join(queue_dir, "pending")
        self._inflight_dir = os.path.join(queue_dir, "inflight")
        workers_dir = os.path.join(queue_dir, "workers")
        for directory in (self._pending_dir, self._inflight_dir, workers_dir):
            os.makedirs(directory, exist_ok=True)
        self._log_path = os.path.join(
            workers_dir, f"{self.worker_id}.log.jsonl"
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Finish the current task, then exit the loop."""
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`request_stop` (drain-then-exit)."""
        def handler(_signum: int, _frame: object) -> None:
            self.request_stop()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _log_evaluation(self, key: str, status: str) -> None:
        """Append one JSONL line per executed task (the integration
        tests count these per key to prove zero double-evaluations)."""
        line = json.dumps({
            "key": key,
            "status": status,
            "worker": self.worker_id,
            "unix": self._clock(),
        }, sort_keys=True)
        try:
            with open(self._log_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass

    def _snapshot(self) -> None:
        try:
            write_metrics_snapshot(self.queue_dir, self.worker_id)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _execute_claim(self, claimed: str) -> None:
        try:
            with open(claimed, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            # A task queued without a cache answers into the queue's
            # own, resolved against this worker's queue_dir.
            task = with_queue_cache(
                EvaluationTask.from_json_dict(payload), self.queue_dir
            )
        except (OSError, ValueError, TaskError):
            # Unreadable task file: drop it rather than poison the
            # queue — the same policy as QueueExecutor.drain.
            try:
                os.unlink(claimed)
            except OSError:
                pass
            return
        key = task.cache_key()
        with InflightLease(claimed, self.orphan_age, self._clock):
            result = self._run_with_retries(task)
        self.executed += 1
        reg = obs_metrics.registry()
        if result.ok:
            reg.counter("worker.evaluated").inc()
            self._log_evaluation(key, "ok")
        else:
            self.failed += 1
            reg.counter("worker.failed").inc()
            self._log_evaluation(key, "error")
        try:
            os.unlink(claimed)
        except OSError:
            pass
        self._snapshot()

    def _run_with_retries(self, task: EvaluationTask) -> TaskResult:
        """Run one task, retrying a failed attempt in place on the same
        seed until it succeeds or the retry policy is exhausted."""
        max_retries = self.retry.max_retries if self.retry is not None else 0
        for retry in range(max_retries + 1):
            if retry:
                self._sleep(self.retry.delay_for(retry))
            result = self._run_task(
                task.with_attempt(task.attempt + retry), None,
                self.point_timeout,
            )
            if result.ok:
                break
        return result

    def run(self) -> int:
        """Drain until signalled / idle-exit / max-tasks; returns the
        number of tasks executed."""
        last_work = self._clock()
        last_sweep = 0.0
        while not self._stop_requested:
            if self.max_tasks is not None and self.executed >= self.max_tasks:
                break
            now = self._clock()
            # Sweep at most once per lease period: the janitor is
            # hygiene, not a hot path.
            if self.orphan_age > 0 and now - last_sweep >= self.orphan_age:
                last_sweep = now
                sweep_orphaned_inflight(
                    self._pending_dir, self._inflight_dir, self.orphan_age,
                    clock=self._clock,
                )
            claimed = claim_next_pending(self._pending_dir, self._inflight_dir)
            if claimed is not None:
                self._execute_claim(claimed)
                last_work = self._clock()
                continue
            if (
                self.idle_exit is not None
                and self._clock() - last_work >= self.idle_exit
            ):
                break
            self._sleep(self.poll_interval)
        self._snapshot()
        return self.executed
