"""Sweep execution.

A *sweep* is a list of points, each a full model configuration; the
runner evaluates every point (serially, or across worker processes
when the machine has them) through a named evaluation backend (see
:mod:`repro.backends`; the default is the full SAN simulation) and
returns a :class:`FigureResult` shaped like the paper's plot: an
x-grid and one series of y-values per curve.

Execution is fault tolerant (see :mod:`repro.experiments.resilience`):
failed or hung points are retried on their own seed with exponential
backoff and, if they never succeed, reported as structured
:class:`~repro.experiments.resilience.FailureReport` entries on the
figure instead of aborting the other points. With a ``cache_dir``
every evaluated point is stored in a content-addressed
:class:`~repro.backends.cache.ResultCache`, so a repeated sweep
re-uses identical points *across runs*: a warm cache re-runs a
completed figure with zero new evaluations, and re-running an
interrupted sweep over the same cache resumes it bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backends import (
    DERIVED_METRICS,
    EvaluationPlan,
    UnsupportedMetricError,
    UnsupportedParametersError,
    all_backends,
    get_backend,
)
from ..core.parameters import ModelParameters
from ..core.simulation import SimulationPlan
from ..exec import EvaluationTask, Executor, cached_answer, make_executor
from ..obs import RunManifest, metrics as obs_metrics
from ..obs.trace import JsonlTraceSink, default_sink
from ..san import profiling
from .resilience import (
    FailureReport,
    Outcome,
    ResilienceOptions,
    SupervisorResult,
    SweepSupervisor,
)

__all__ = [
    "SweepPoint",
    "FigureResult",
    "run_sweep",
    "sweep_eval_plan",
    "build_sweep_tasks",
    "DEFAULT_BACKEND",
]

#: Backend a sweep uses unless told otherwise (the paper's primary
#: evaluation path).
DEFAULT_BACKEND = "san-sim"


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point of a figure.

    Attributes
    ----------
    series:
        The curve this point belongs to (legend label).
    x:
        The x-axis value the paper plots.
    params:
        The model configuration to simulate.
    """

    series: str
    x: float
    params: ModelParameters


@dataclass
class FigureResult:
    """One regenerated figure.

    ``series`` maps a curve label to ``[(x, y, half_width), ...]``
    sorted by x. ``metric`` names the y-axis ("total_useful_work" or
    "useful_work_fraction"). ``backend`` records which evaluation
    backend produced the series (``None`` for pre-backend archives).
    ``failures`` lists points that exhausted their retries (also
    summarised in ``notes``); their entries are absent from
    ``series``.

    ``unvalidated_intervals`` is True when the half-widths carry no
    statistical information (a stochastic backend ran with fewer than
    two replications): archive comparison must not claim interval
    overlap from them. ``manifest`` is the run's provenance record
    (see :class:`repro.obs.RunManifest`), written next to the archive
    by :func:`repro.experiments.archive.save_figure`.
    """

    figure_id: str
    title: str
    x_label: str
    metric: str
    series: Dict[str, List[Tuple[float, float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    backend: Optional[str] = None
    unvalidated_intervals: bool = False
    manifest: Optional[RunManifest] = None

    def y_values(self, label: str) -> List[float]:
        """The y series of one curve (sorted by x)."""
        return [y for _, y, _ in self.series[label]]

    def x_values(self, label: str) -> List[float]:
        """The x grid of one curve."""
        return [x for x, _, _ in self.series[label]]

    def peak_x(self, label: str) -> float:
        """The x at which a curve attains its maximum."""
        points = self.series[label]
        return max(points, key=lambda p: p[1])[0]


def _resolve_executor(
    executor,
    queue_dir: Optional[str],
    processes: Optional[int],
    options: ResilienceOptions,
) -> Tuple[Optional[Executor], bool]:
    """Turn ``run_sweep``'s ``executor`` argument into an instance.

    Returns ``(instance, owned)``: ``None`` instance means "let the
    supervisor build its default from ``processes``" (the legacy
    behavior); a string is resolved through
    :func:`repro.exec.make_executor` and owned (closed) by the sweep;
    anything else is treated as a ready-made executor the caller
    keeps ownership of.
    """
    if executor is None:
        return None, False
    if isinstance(executor, str):
        return (
            make_executor(
                executor,
                processes=processes,
                point_timeout=options.point_timeout,
                fault_plan=options.fault_plan,
                queue_dir=queue_dir,
            ),
            True,
        )
    return executor, False


def sweep_base_metric(metric: str) -> str:
    """The metric the backends produce for a sweep reporting
    ``metric``: derived metrics (``total_useful_work``) resolve to
    their base; the scale factor is applied at assembly time from
    each point's own processor count."""
    return DERIVED_METRICS.get(metric, metric)


def sweep_eval_plan(metric: str, plan: SimulationPlan,
                    seed: int) -> EvaluationPlan:
    """The evaluation plan a sweep roots every point's task in."""
    return EvaluationPlan(
        metrics=(sweep_base_metric(metric),), simulation=plan, seed=seed
    )


def build_sweep_tasks(
    points: Sequence[SweepPoint],
    eval_plan: EvaluationPlan,
    seed: int,
    backend: str,
    cache_dir: Optional[str] = None,
    priority: int = 0,
) -> List[EvaluationTask]:
    """The :class:`~repro.exec.EvaluationTask` list for a sweep.

    One task per point, seeded ``seed + index`` (the historical per-point convention; retries
    replay it). This is the single construction recipe for
    the in-process sweep (:func:`run_sweep`) and the service-mode job
    API (:mod:`repro.service.jobs`), so both submit byte-identical
    work and coalesce on the same cache keys.
    """
    return [
        EvaluationTask(
            index=index,
            series=point.series,
            # Raw (possibly integral) x: the archive preserves the
            # declared type, exactly as the pre-executor path did.
            x=point.x,
            params=point.params,
            plan=eval_plan,
            backend=backend,
            base_seed=seed + index,
            priority=priority,
            cache_dir=cache_dir,
        )
        for index, point in enumerate(points)
    ]


def _check_unique_points(points: Sequence[SweepPoint]) -> None:
    """Reject sweeps with colliding ``(series, x)`` keys.

    Two points sharing a key are ambiguous everywhere downstream: the
    figure plots one y per (series, x), cache-served points are
    assembled by that key, and the total-useful-work scaling must know
    *which* point's processor count applies.
    """
    seen: Dict[Tuple[str, float], int] = {}
    for index, point in enumerate(points):
        key = (point.series, float(point.x))
        if key in seen:
            raise ValueError(
                f"duplicate sweep point: series {point.series!r} at "
                f"x={point.x:g} appears at indices {seen[key]} and {index}; "
                "every (series, x) pair must be unique within a sweep"
            )
        seen[key] = index


def _check_backend(
    backend_name: str, metric: str, points: Sequence[SweepPoint],
    plan: EvaluationPlan,
):
    """Resolve and vet the backend for a sweep, up front.

    Raises :class:`~repro.backends.base.UnsupportedMetricError` (with
    the backends that *could* produce the metric) or
    :class:`~repro.backends.base.UnsupportedParametersError` naming
    the first offending point — before any simulation time is spent.
    """
    backend = get_backend(backend_name)
    if not backend.capabilities.supports_metric(metric):
        able = [
            other.id
            for other in all_backends()
            if other.capabilities.supports_metric(metric)
        ]
        hint = (
            f"; backends that can: {', '.join(able)}"
            if able
            else ""
        )
        raise UnsupportedMetricError(
            f"backend {backend_name!r} cannot produce metric {metric!r} "
            f"(it supports: {', '.join(sorted(backend.capabilities.metrics))})"
            f"{hint}"
        )
    for point in points:
        reason = backend.supports(point.params, plan)
        if reason is not None:
            raise UnsupportedParametersError(
                f"backend {backend_name!r} cannot evaluate point "
                f"{point.series!r} @ x={point.x:g}: {reason}"
            )
    return backend


def run_sweep(
    figure_id: str,
    title: str,
    x_label: str,
    metric: str,
    points: Sequence[SweepPoint],
    plan: SimulationPlan,
    seed: int = 0,
    processes: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    resilience: Optional[ResilienceOptions] = None,
    backend: str = DEFAULT_BACKEND,
    executor=None,
    queue_dir: Optional[str] = None,
) -> FigureResult:
    """Evaluate every point and assemble the figure.

    ``metric`` selects the reported y value: ``"useful_work_fraction"``
    or ``"total_useful_work"`` (the latter scales the fraction by the
    point's processor count). Point ``i`` uses seed ``seed + i`` so a
    sweep is reproducible and points are independent; a retried point
    replays its own seed, so it is bit-identical to an unfaulted run.

    ``backend`` names the registered evaluation backend every point
    runs through (default ``"san-sim"``, the full SAN simulation);
    the backend's capabilities are checked against the metric and
    every point's parameters before any work starts.

    ``resilience`` configures the result cache, retries, timeouts and
    fault injection; see
    :class:`~repro.experiments.resilience.ResilienceOptions`. With a
    ``cache_dir`` every evaluated point is stored in (and looked up
    from) a content-addressed result cache keyed by the canonical
    parameter hash, backend id/version and schema version, so repeated
    sweeps skip already-evaluated points across runs, and an
    interrupted sweep re-run over the same cache resumes to a figure
    bit-identical to an uninterrupted run.

    ``executor`` selects the execution substrate (see
    :mod:`repro.exec`): ``None`` keeps the legacy behavior (a serial
    executor, or a pool when ``processes >= 2``); the strings
    ``"serial"`` / ``"pool"`` / ``"queue"`` build the named executor
    (``"queue"`` requires ``queue_dir``); an
    :class:`~repro.exec.base.Executor` instance is driven as-is and
    left open, so several sweeps can share one persistent queue and
    coalesce their common points. The manifest's ``execution``
    section records which executor ran and what it did.
    """
    if metric not in ("useful_work_fraction", "total_useful_work"):
        raise ValueError(f"unknown metric {metric!r}")
    _check_unique_points(points)
    start_clock = time.monotonic()
    reg = obs_metrics.registry()
    reg.counter("sweep.runs").inc()

    options = resilience or ResilienceOptions()
    eval_plan = sweep_eval_plan(metric, plan, seed)
    backend_obj = _check_backend(backend, metric, points, eval_plan)

    total = len(points)
    notes: List[str] = []
    if plan.strategy != "flat":
        # Flat sweeps carry no note so pre-zoo archives stay
        # bit-identical; non-flat runs are visibly labelled.
        notes.append(f"checkpoint strategy: {plan.strategy}")
    # A point already answered in the result cache is served from it;
    # its outcome keeps the task's declared x (and its type), exactly
    # as an executed point does, so warm archives match cold ones.
    completed: Dict[Tuple[str, float], Outcome] = {}
    tasks: List[EvaluationTask] = []
    for task in build_sweep_tasks(
        points, eval_plan, seed, backend, cache_dir=options.cache_dir,
    ):
        answer = cached_answer(task)
        if answer is None:
            tasks.append(task)
        else:
            completed[(task.series, float(task.x))] = answer.outcome
    if completed:
        notes.append(
            f"result cache: {len(completed)} of {total} point(s) reused "
            f"from {options.cache_dir}"
        )
    cache_hits = done = len(completed)
    if progress and done:
        progress(done, total)

    def on_success() -> None:
        nonlocal done
        done += 1
        if progress:
            progress(done, total)
        if options.fault_plan is not None:
            options.fault_plan.after_success(done - cache_hits)

    worker_count = processes if processes is not None else 1
    exec_instance, owns_executor = _resolve_executor(
        executor, queue_dir, processes, options
    )
    supervisor = SweepSupervisor(
        options,
        processes=worker_count,
        on_success=on_success,
        executor=exec_instance,
    )
    try:
        supervised: SupervisorResult = supervisor.run(tasks)
    finally:
        if owns_executor and exec_instance is not None:
            exec_instance.close()

    outcomes_by_key: Dict[Tuple[str, float], Outcome] = dict(completed)
    for index, outcome in supervised.outcomes.items():
        outcomes_by_key[(outcome[0], float(outcome[1]))] = outcome
    notes.extend(supervised.notes)

    if progress and supervised.failures:
        # Failed points still count as "handled" so progress reaches total.
        done += len(supervised.failures)
        progress(done, total)

    figure = FigureResult(figure_id, title, x_label, metric, backend=backend)
    figure.failures = list(supervised.failures)
    for report in supervised.failures:
        notes.append("FAILED: " + report.summary())
    if not backend_obj.capabilities.exact and plan.replications < 2:
        figure.unvalidated_intervals = True
        notes.append(
            f"UNVALIDATED intervals: stochastic backend {backend!r} ran "
            f"with {plan.replications} replication(s); half-widths carry "
            "no statistical information and archive comparison will not "
            "claim interval overlap from them"
        )
    figure.notes = notes

    # Assemble in declared point order (deterministic regardless of
    # scheduling); the scale factor comes from the point itself, so two
    # configurations can never collide the way a (series, x)-keyed
    # lookup table could.
    for point in points:
        outcome = outcomes_by_key.get((point.series, float(point.x)))
        if outcome is None:
            continue
        _, x, mean, half_width = outcome
        if metric == "total_useful_work":
            factor = point.params.n_processors
            entry = (x, mean * factor, half_width * factor)
        else:
            entry = (x, mean, half_width)
        figure.series.setdefault(point.series, []).append(entry)
    for label in figure.series:
        figure.series[label].sort(key=lambda p: p[0])

    new_evaluations = len(supervised.outcomes)
    retries = sum(
        max(0, attempts - 1) for attempts in supervised.attempts.values()
    )
    reg.counter("sweep.points_total").inc(total)
    reg.counter("sweep.points_from_cache").inc(cache_hits)
    reg.counter("sweep.evaluations").inc(new_evaluations)
    reg.counter("sweep.retries").inc(retries)
    reg.counter("sweep.failed_points").inc(len(supervised.failures))
    wall_clock = time.monotonic() - start_clock
    reg.timing("sweep.run_seconds").observe(wall_clock)

    execution_section: Dict[str, object] = dict(supervised.execution or {})
    if not execution_section:
        # Nothing needed executing (fully cached sweep):
        # still record which executor *would* have run.
        execution_section = {
            "executor": (
                exec_instance.capabilities.name
                if exec_instance is not None
                else ("pool" if worker_count > 1 else "serial")
            ),
            "tasks_executed": 0,
        }
    execution_section["attempts"] = {
        str(index): count
        for index, count in sorted(supervised.attempts.items())
    }

    aggregate = profiling.aggregated()
    sink = default_sink()
    figure.manifest = RunManifest(
        figure_id=figure_id,
        backend=backend,
        backend_version=backend_obj.backend_version,
        metric=metric,
        seed=seed,
        plan=asdict(plan),
        points_total=total,
        points_from_cache=cache_hits,
        new_evaluations=new_evaluations,
        retries=retries,
        failed_points=len(supervised.failures),
        kernel_stats=aggregate.as_dict() if aggregate is not None else None,
        metrics=reg.snapshot(),
        trace=sink.summary() if isinstance(sink, JsonlTraceSink) else None,
        wall_clock_seconds=wall_clock,
        execution=execution_section,
        notes=list(notes),
    )
    return figure
