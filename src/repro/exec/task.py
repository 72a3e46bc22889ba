"""Serializable evaluation tasks and their result envelope.

The unit of work for the whole execution layer is one
:class:`EvaluationTask`: a sweep point (model parameters + evaluation
plan), the backend that should evaluate it, the seed policy that makes
it reproducible, and the attempt number the retry layer stamped on it.
A task is a frozen dataclass of picklable primitives, round-trips
through JSON (:meth:`EvaluationTask.to_json_dict` /
:meth:`EvaluationTask.from_json_dict`) under a versioned schema, and
is content-addressed by the same canonical digest the result cache
files its entries under (:func:`repro.backends.cache.request_digest`)
— so "two submissions are the same work" means exactly "the cache
would serve both from one entry".

:func:`execute_task` is the one evaluation recipe every executor runs
(in-process for the serial and queue executors, inside a worker
process for the pool): resolve the backend, evaluate under the task's
seed, best-effort write the result through to the cache, and fold any
exception into a structured :class:`TaskResult` failure payload —
nothing un-picklable ever crosses a process boundary.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..backends import EvaluationPlan, ResultCache, get_backend
from ..backends.cache import request_digest
from ..core.parameters import ModelParameters
from ..core.simulation import SimulationPlan

__all__ = [
    "TASK_SCHEMA_VERSION",
    "Outcome",
    "TaskError",
    "EvaluationTask",
    "TaskResult",
    "failure_payload",
    "cached_answer",
    "execute_task",
]

#: Version of the task / result JSON schema. Bump when a field changes
#: meaning; readers reject foreign versions instead of guessing.
TASK_SCHEMA_VERSION = 1

#: A point outcome as assembled into a figure:
#: ``(series, x, mean, half_width)``.
Outcome = Tuple[str, float, float, float]


class TaskError(ValueError):
    """A task or result payload cannot be decoded (wrong schema
    version, missing fields, malformed structure)."""


def failure_payload(exc: BaseException) -> Dict[str, str]:
    """Serialise an exception for transport out of a worker process."""
    return {
        "error_type": type(exc).__name__,
        "error_message": str(exc),
        "traceback": traceback.format_exc(),
    }


@dataclass(frozen=True)
class EvaluationTask:
    """One serializable unit of evaluation work.

    Attributes
    ----------
    index:
        Position of the point in its sweep (also the retry ledger key).
    series / x:
        The figure coordinates the outcome will be plotted under.
    params:
        The model configuration to evaluate.
    plan:
        The evaluation plan *before* seeding; :meth:`seeded_plan`
        roots it at ``base_seed``.
    backend:
        Registered backend id to evaluate through (resolved by name in
        whichever process runs the task).
    base_seed:
        The point's own seed (``sweep seed + index`` by convention).
        Every attempt runs under it: a retry replays the point's
        sample path, so a recovered point is bit-identical to an
        unfaulted one.
    attempt:
        Zero-based retry counter stamped by the supervisor (read by
        fault plans and reporting; it never changes the value).
    priority:
        Queue ordering hint (lower runs first; non-negative).
    cache_dir:
        Optional result-cache root the executing side writes clean
        results through to.
    schema_version:
        Stamped :data:`TASK_SCHEMA_VERSION` for the JSON round-trip.
    """

    index: int
    series: str
    x: float
    params: ModelParameters
    plan: EvaluationPlan
    backend: str
    base_seed: int = 0
    attempt: int = 0
    priority: int = 0
    cache_dir: Optional[str] = None
    schema_version: int = TASK_SCHEMA_VERSION

    @property
    def seed(self) -> int:
        """The effective seed of every attempt: the point's base seed."""
        return self.base_seed

    @property
    def key(self) -> Tuple[str, float]:
        """The figure key ``(series, x)`` this task's outcome fills."""
        return (self.series, self.x)

    def seeded_plan(self) -> EvaluationPlan:
        """The evaluation plan rooted at the point's seed."""
        return self.plan.with_seed(self.seed)

    def with_attempt(self, attempt: int) -> "EvaluationTask":
        """The same work stamped with a different attempt number."""
        return replace(self, attempt=attempt)

    def cache_key(self) -> str:
        """Canonical digest of this task's evaluation request.

        Identical to the :class:`~repro.backends.cache.ResultCache`
        entry key for the same request (backend id + version, params,
        seeded plan), so queue-level deduplication and cache hits
        agree on what "the same work" means. The seed participates
        (sweeps rooted at different seeds are distinct work); the
        attempt does not (a retry is the same work again).
        """
        backend = get_backend(self.backend)
        return request_digest(backend, self.params, self.seeded_plan())

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_json_dict` reverses."""
        plan = self.plan
        return {
            "schema_version": self.schema_version,
            "index": self.index,
            "series": self.series,
            "x": self.x,
            "backend": self.backend,
            "base_seed": self.base_seed,
            "attempt": self.attempt,
            "priority": self.priority,
            "cache_dir": self.cache_dir,
            "params": asdict(self.params),
            "plan": {
                "metrics": list(plan.metrics),
                "seed": plan.seed,
                "duration": plan.duration,
                "simulation": asdict(plan.simulation),
            },
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "EvaluationTask":
        """Rebuild a task from :meth:`to_json_dict` output.

        Raises :class:`TaskError` on a foreign schema version or a
        payload that does not reconstruct — a persisted queue must
        fail loudly on tasks written by an incompatible version rather
        than evaluate something other than what was submitted.
        """
        if not isinstance(payload, dict):
            raise TaskError(
                f"task payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != TASK_SCHEMA_VERSION:
            raise TaskError(
                f"task schema version {version!r} is not readable by this "
                f"package (expected {TASK_SCHEMA_VERSION})"
            )
        try:
            plan_payload = payload["plan"]
            plan = EvaluationPlan(
                metrics=tuple(plan_payload["metrics"]),
                simulation=SimulationPlan(**plan_payload["simulation"]),
                seed=plan_payload["seed"],
                duration=plan_payload["duration"],
            )
            return cls(
                index=int(payload["index"]),
                series=payload["series"],
                x=float(payload["x"]),
                params=ModelParameters(**payload["params"]),
                plan=plan,
                backend=payload["backend"],
                base_seed=int(payload["base_seed"]),
                attempt=int(payload["attempt"]),
                priority=int(payload["priority"]),
                cache_dir=payload.get("cache_dir"),
            )
        except TaskError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TaskError(f"malformed task payload: {exc}") from exc


@dataclass
class TaskResult:
    """What executing one :class:`EvaluationTask` produced.

    ``status`` is ``"ok"`` or ``"error"``. An ok result carries the
    figure outcome (``mean`` / ``half_width``) plus the full
    serialised :class:`~repro.backends.base.EvaluationResult` under
    ``result``; an error result carries the structured
    :func:`failure_payload` under ``failure``. Provenance travels with
    the envelope: which attempt ran, under which seed (always the
    task's ``base_seed``), and whether the result was ``coalesced``
    (served from another submission's evaluation or from the result
    cache rather than evaluated for this submission).
    """

    status: str
    index: int
    series: str
    x: float
    attempt: int
    seed_used: int
    mean: Optional[float] = None
    half_width: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    failure: Optional[Dict[str, str]] = None
    coalesced: bool = False
    schema_version: int = field(default=TASK_SCHEMA_VERSION)

    @property
    def ok(self) -> bool:
        """True when the evaluation succeeded."""
        return self.status == "ok"

    @property
    def outcome(self) -> Outcome:
        """The figure outcome ``(series, x, mean, half_width)``.

        Only meaningful on ok results; an error result raises
        :class:`TaskError` rather than fabricate numbers.
        """
        if not self.ok or self.mean is None or self.half_width is None:
            raise TaskError(
                f"task {self.index} (attempt {self.attempt}) has no outcome: "
                f"status={self.status!r}"
            )
        return (self.series, self.x, self.mean, self.half_width)

    @classmethod
    def answered(cls, task: EvaluationTask, result: Any) -> "TaskResult":
        """The ok envelope of ``task`` answered by ``result`` (an
        :class:`~repro.backends.base.EvaluationResult`, fresh or read
        back from the cache)."""
        value = result.metric(task.plan.metrics[0])
        return cls(
            status="ok",
            index=task.index,
            series=task.series,
            x=task.x,
            attempt=task.attempt,
            seed_used=task.seed,
            mean=value.mean,
            half_width=value.half_width,
            result=result.to_json_dict(),
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_json_dict` reverses."""
        return {
            "schema_version": self.schema_version,
            "status": self.status,
            "index": self.index,
            "series": self.series,
            "x": self.x,
            "attempt": self.attempt,
            "seed_used": self.seed_used,
            "mean": self.mean,
            "half_width": self.half_width,
            "result": self.result,
            "failure": self.failure,
            "coalesced": self.coalesced,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "TaskResult":
        """Rebuild a result envelope from :meth:`to_json_dict` output.

        Raises :class:`TaskError` on foreign schema versions or
        malformed payloads, mirroring :meth:`EvaluationTask.from_json_dict`.
        """
        if not isinstance(payload, dict):
            raise TaskError(
                f"result payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != TASK_SCHEMA_VERSION:
            raise TaskError(
                f"result schema version {version!r} is not readable by this "
                f"package (expected {TASK_SCHEMA_VERSION})"
            )
        try:
            return cls(
                status=payload["status"],
                index=int(payload["index"]),
                series=payload["series"],
                x=float(payload["x"]),
                attempt=int(payload["attempt"]),
                seed_used=int(payload["seed_used"]),
                mean=payload.get("mean"),
                half_width=payload.get("half_width"),
                result=payload.get("result"),
                failure=payload.get("failure"),
                coalesced=bool(payload.get("coalesced", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TaskError(f"malformed result payload: {exc}") from exc


def cached_answer(task: EvaluationTask) -> Optional[TaskResult]:
    """``task`` answered from its result cache, or ``None`` when it
    has no cache or the cache misses (see
    :meth:`~repro.backends.cache.ResultCache.lookup`).

    The one read-side counterpart of :func:`execute_task`'s cache
    write: the sweep runner, the work queue and the job API all ask
    it whether a point is already answered.
    """
    if not task.cache_dir:
        return None
    cached = ResultCache(task.cache_dir).get(
        get_backend(task.backend), task.params, task.seeded_plan()
    )
    return None if cached is None else TaskResult.answered(task, cached)


def execute_task(
    task: EvaluationTask,
    fault_plan: Optional[Any] = None,
    deadline: Optional[float] = None,
) -> TaskResult:
    """Evaluate one task; never raise.

    Resolves the backend by name (backends register at import time in
    every process), evaluates under the task's seed, and best-effort
    writes every ok result through to the task's cache — the one
    write path of the result store every executor, worker and job
    reads.
    Exceptions are folded into a structured ``"error"``
    :class:`TaskResult` before they cross any process boundary.

    ``deadline`` is a cooperative per-point wall-clock budget
    (seconds): it tightens the simulation plan's ``wall_clock_budget``
    for the *evaluation only*, so in-process executors get best-effort
    timeout enforcement. The cache entry is still keyed and stored
    under the task's own (un-tightened) seeded plan — a deadline
    changes whether a point finishes, never its value, so it must not
    fork the cache key space.
    """
    try:
        if fault_plan is not None:
            fault_plan.before_point(task.index, task.attempt)
        backend = get_backend(task.backend)
        seeded_plan = task.seeded_plan()
        eval_plan = seeded_plan
        if deadline is not None:
            budget = seeded_plan.simulation.wall_clock_budget
            tightened = deadline if budget is None else min(budget, deadline)
            eval_plan = replace(
                seeded_plan,
                simulation=replace(
                    seeded_plan.simulation, wall_clock_budget=tightened
                ),
            )
        result = backend.evaluate(task.params, eval_plan)
        answered = TaskResult.answered(task, result)
        if task.cache_dir:
            try:
                ResultCache(task.cache_dir).put(
                    backend, task.params, seeded_plan, result
                )
            except OSError:
                pass  # a full or read-only cache must not fail the point
        return answered
    except Exception as exc:
        return TaskResult(
            status="error",
            index=task.index,
            series=task.series,
            x=task.x,
            attempt=task.attempt,
            seed_used=task.seed,
            failure=failure_payload(exc),
        )
