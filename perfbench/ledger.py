"""Arithmetic of the figure benchmark: spans, self time, percentiles,
import-time parsing and the per-layer ledger.

Nothing here imports ``repro``: the functions work on plain span
records so the self-tests can feed them hand-made trees.

A span record is a dict with ``id`` (unique within its process),
``parent`` (the id of the enclosing span in the same process, or
``None``), ``name``, ``start`` and ``end`` (``time.monotonic()``
seconds, one system-wide clock), ``pid`` and ``attrs`` (counts the
wrapper read off the call's arguments or result).
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Dict[str, object]

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children may overlap each other (pool workers run tasks
    concurrently) and may stick out of ``interval``; each is clipped
    to it and overlaps are counted once.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it ``children`` cover."""
    interval = (float(span["start"]), float(span["end"]))
    return (interval[1] - interval[0]) - covered(
        interval, ((float(c["start"]), float(c["end"])) for c in children)
    )


def children_of(spans: Sequence[Span]) -> Dict[Tuple[object, object], List[Span]]:
    """Map ``(pid, id)`` of each span to its direct children."""
    index: Dict[Tuple[object, object], List[Span]] = {}
    for span in spans:
        if span["parent"] is not None:
            index.setdefault((span["pid"], span["parent"]), []).append(span)
    return index


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time of the spans of each name."""
    kids = children_of(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        own = self_time(span, kids.get((span["pid"], span["id"]), ()))
        totals[str(span["name"])] = totals.get(str(span["name"]), 0.0) + own
    return totals


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it, as ``(percentile, value, sample_count)``.

    Nearest rank: with ``n`` samples sorted ascending, the value at
    rank ``n - TAIL_BEYOND`` (1-based) has exactly ``TAIL_BEYOND``
    samples above it, and it is the ``100 * (n - TAIL_BEYOND) / n``-th
    percentile. ``None`` when fewer than ``TAIL_BEYOND + 1`` samples
    exist, because then no percentile has enough samples beyond it.
    """
    n = len(samples)
    if n < TAIL_BEYOND + 1:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(samples)[rank - 1], n


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds of import self time per module from ``-X importtime``.

    Lines look like ``import time:  1234 |  5678 |   scipy.stats``
    (self and cumulative microseconds, then the module indented by
    nesting depth); the header line and anything else is skipped. A
    module imported twice (it cannot be, but a repeated line would
    be) adds up.
    """
    seconds: Dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            module = match.group(4)
            seconds[module] = seconds.get(module, 0.0) + int(match.group(1)) / 1e6
    return seconds


def import_metrics(stderr: str) -> Dict[str, float]:
    """``import.total_s`` (self time of every module imported) and
    ``import.scipy_s`` (self time of the modules of the ``scipy``
    package)."""
    per_module = parse_importtime(stderr)
    if not per_module:
        raise ValueError("no '-X importtime' lines in the interpreter's stderr")
    return {
        "import.total_s": sum(per_module.values()),
        "import.scipy_s": sum(
            s for m, s in per_module.items() if m.split(".")[0] == "scipy"
        ),
    }


def _named(spans: Sequence[Span], name: str) -> List[Span]:
    return [s for s in spans if s["name"] == name]


def _total(spans: Sequence[Span]) -> float:
    return sum(float(s["end"]) - float(s["start"]) for s in spans)


def _attr_sum(spans: Sequence[Span], key: str) -> float:
    return sum(float(s["attrs"].get(key, 0)) for s in spans)  # type: ignore[union-attr]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced figure process (and its pool
    workers) from its spans.

    The span names are those :mod:`hooks` records; see README.md for
    which end-to-end metric each of these should move.
    """
    own = self_time_by_name(spans)
    kids = children_of(spans)
    out: Dict[str, float] = {}

    figures = _named(spans, "experiments.run_figure")
    sweeps = _named(spans, "experiments.run_sweep")
    evaluations = _named(spans, "backends.evaluate")
    # The figure's work starts at run_sweep for sweep figures and at the
    # first backend evaluation for custom figures.
    starts = [float(s["start"]) for s in sweeps] or [
        float(s["start"]) for s in evaluations
    ]
    out["experiments.build_points_s"] = (
        min(starts) - float(figures[0]["start"]) if figures and starts else 0.0
    )
    tasks = _named(spans, "exec.execute_task")
    drains = _named(spans, "exec.drain")
    out["experiments.sweep_self_s"] = sum(
        self_time(s, [c for c in kids.get((s["pid"], s["id"]), ())
                      if c["name"] == "exec.drain"])
        for s in sweeps
    )
    out["experiments.archive_write_s"] = own.get("experiments.save_figure", 0.0)
    out["experiments.shape_checks_failed"] = _attr_sum(
        _named(spans, "experiments.validate_figure"), "failed"
    )
    out["obs.manifest_write_s"] = _total(_named(spans, "obs.write_manifest"))

    task_s = [float(s["end"]) - float(s["start"]) for s in tasks]
    out["exec.tasks"] = float(len(tasks))
    out["exec.task_s_median"] = statistics.median(task_s) if task_s else 0.0
    tail = tail_percentile(task_s)
    out["exec.task_s_tail"] = tail[1] if tail else 0.0
    task_intervals = [(float(s["start"]), float(s["end"])) for s in tasks]
    out["exec.dispatch_s"] = sum(
        (float(d["end"]) - float(d["start"]))
        - covered((float(d["start"]), float(d["end"])), task_intervals)
        for d in drains
    )
    capacity = sum(
        float(d["attrs"].get("workers", 1)) * (float(d["end"]) - float(d["start"]))  # type: ignore[union-attr]
        for d in drains
    )
    out["exec.worker_busy_ratio"] = _ratio(sum(task_s), capacity)

    cluster_evals = [s for s in evaluations if s["attrs"].get("layer") == "cluster"]  # type: ignore[union-attr]
    out["backends.evaluations"] = float(len(evaluations))
    out["backends.evaluate_self_s"] = own.get("backends.evaluate", 0.0)
    gets = _named(spans, "backends.cache_get")
    puts = _named(spans, "backends.cache_put")
    out["backends.cache_gets"] = float(len(gets))
    out["backends.cache_get_s"] = _total(gets)
    out["backends.cache_puts"] = float(len(puts))
    out["backends.cache_put_s"] = _total(puts)
    out["backends.cache_bytes"] = _attr_sum(puts, "bytes")

    builds = _named(spans, "core.build_system")
    out["core.build_system_calls"] = float(len(builds))
    out["core.build_system_s"] = _total(builds)

    runs = _named(spans, "san.run")
    events = _attr_sum(runs, "events")
    run_s = _total(runs)
    pushes = _attr_sum(runs, "heap_pushes")
    checks = _attr_sum(runs, "enabled_checks")
    skipped = _attr_sum(runs, "enabled_checks_skipped")
    out["san.runs"] = float(len(runs))
    out["san.run_s"] = run_s
    out["san.events"] = events
    out["san.events_per_s"] = _ratio(events, run_s)
    out["san.enabled_checks"] = checks
    out["san.check_efficiency"] = _ratio(skipped, checks + skipped)
    out["san.heap_pushes"] = pushes
    out["san.stale_pop_ratio"] = _ratio(_attr_sum(runs, "stale_pops"), pushes)
    out["san.resamples"] = _attr_sum(runs, "resamples")
    out["san.stats_s"] = _total(_named(spans, "san.confidence_interval"))

    cluster_runs = _named(spans, "cluster.run")
    cluster_events = _attr_sum(cluster_runs, "events")
    cluster_s = _total(cluster_runs)
    out["cluster.evaluations"] = float(len(cluster_evals))
    out["cluster.run_s"] = cluster_s
    out["cluster.events"] = cluster_events
    out["cluster.events_per_s"] = _ratio(cluster_events, cluster_s)
    return out


def quality_metrics(series: Dict[str, List[List[float]]]) -> Dict[str, float]:
    """Estimator quality of a sweep archive's ``series``.

    ``san.ci_rel_halfwidth_median`` is the median of half-width / |mean|
    over points with a non-zero mean. ``san.degenerate_points`` counts
    points whose interval has zero width (relative to the mean, below
    1e-9, which is rounding of two equal replications) or whose mean is
    negative, although every figure plots a non-negative measure.
    """
    rel: List[float] = []
    degenerate = 0
    for points in series.values():
        for _, mean, half in points:
            if mean != 0:
                rel.append(abs(half) / abs(mean))
            if abs(half) <= 1e-9 * max(abs(mean), 1.0) or mean < 0:
                degenerate += 1
    return {
        "san.ci_rel_halfwidth_median": statistics.median(rel) if rel else 0.0,
        "san.degenerate_points": float(degenerate),
    }


def law_errors(series: Dict[str, List[List[float]]],
               measured: str, predicted: str) -> List[float]:
    """Relative error |measured - predicted| / predicted at each x."""
    law = {x: y for x, y, _ in series.get(predicted, [])}
    return [
        abs(y - law[x]) / law[x] if x in law and law[x] else math.inf
        for x, y, _ in series.get(measured, [])
    ]
