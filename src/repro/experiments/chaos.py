"""Chaos testing: run a figure under injected faults and prove the
archive still matches a clean run.

The paper models machines that keep doing useful work while their
components fail; this module holds the harness to the same standard.
:func:`run_chaos` regenerates a (sliced, scaled-down) figure twice —
once cleanly and serially, once through the process pool under a
:meth:`~repro.experiments.faultinject.FaultPlan.sampled` plan that
crashes and hangs a deterministic share of the points on their first
attempt — and compares the two archives:

1. **bitwise** first: a retry replays its point's own seed, so every
   point the sweep supervisor recovers must match the clean run bit
   for bit;
2. :func:`~repro.experiments.archive.compare_figures` within
   tolerance otherwise;
3. a :class:`~repro.validate.stats.TolerancePolicy` band cross-check
   on every point, the same agreement bands the differential
   validation suite uses between backends.

The faulted run goes through the pool because only the pool can kill
a hung worker (``point_timeout``). Its
:class:`~repro.obs.RunManifest` records the ``retries`` and the
per-point ``execution.attempts``, which is how the ``repro chaos``
CLI (and the ``chaos-smoke`` CI job) shows that recovery actually
happened rather than the faults never firing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..validate.stats import TolerancePolicy
from .archive import compare_figures, save_figure
from .config import plan_for
from .faultinject import FaultPlan
from .figures import FIGURE_SPECS
from .resilience import ResilienceOptions, RetryPolicy
from .runner import FigureResult, run_sweep

__all__ = ["ChaosOutcome", "run_chaos"]

#: Worker processes of the faulted run (the pool is the executor that
#: can kill a hang).
CHAOS_PROCESSES = 2


@dataclass
class ChaosOutcome:
    """What a chaos comparison found.

    Attributes
    ----------
    figure_id / points / backend:
        The (sliced) figure that was regenerated twice.
    bit_identical:
        The faulted archive matches the clean one exactly — expected
        whenever every afflicted point recovered on a retry.
    discrepancies:
        Rendered :class:`~repro.experiments.archive.Discrepancy`
        entries from the tolerance comparison (empty when within
        tolerance).
    band_violations:
        Points whose clean/faulted difference exceeds the
        :class:`~repro.validate.stats.TolerancePolicy` band.
    retries / failed_points / timeouts:
        From the faulted run's manifest: extra attempts beyond each
        point's first, points that exhausted their retries, and hung
        workers the pool killed.
    attempts:
        ``point index -> attempts`` for every point that needed more
        than one (the manifest's ``execution.attempts``).
    clean_wall_clock / faulted_wall_clock:
        Wall-clock seconds of the two runs.
    """

    figure_id: str
    points: int
    backend: str
    bit_identical: bool
    discrepancies: List[str] = field(default_factory=list)
    band_violations: List[str] = field(default_factory=list)
    retries: int = 0
    failed_points: int = 0
    timeouts: int = 0
    attempts: Dict[str, int] = field(default_factory=dict)
    clean_wall_clock: float = 0.0
    faulted_wall_clock: float = 0.0

    @property
    def faults_fired(self) -> bool:
        """At least one injected fault was observed (a chaos run whose
        plan never fires proves nothing)."""
        return self.retries > 0 or self.failed_points > 0

    @property
    def recovered(self) -> bool:
        """The faulted run produced values matching the clean run.

        True when the archives are bit-identical, or agree within both
        the archive tolerance and the validation bands.
        """
        return self.bit_identical or (
            not self.discrepancies and not self.band_violations
        )

    def summary_lines(self) -> List[str]:
        """A human-readable report of the comparison."""
        lines = [
            f"chaos {self.figure_id}: {self.points} point(s), "
            f"backend {self.backend}",
            f"  clean run:   {self.clean_wall_clock:.1f} s (serial)",
            f"  faulted run: {self.faulted_wall_clock:.1f} s "
            f"(pool, {CHAOS_PROCESSES} processes)",
            f"  recovery: {self.retries} retry(ies), "
            f"{self.timeouts} hung worker(s) killed, "
            f"{self.failed_points} failed point(s)",
        ]
        if self.attempts:
            lines.append(
                "  attempts: "
                + ", ".join(
                    f"point {index}: {count}"
                    for index, count in sorted(
                        self.attempts.items(), key=lambda item: int(item[0])
                    )
                )
            )
        if not self.faults_fired:
            lines.append(
                "  WARNING: no injected fault fired; raise the fault "
                "fractions or widen the point slice"
            )
        if self.bit_identical:
            lines.append("  archives: bit-identical")
        elif not self.discrepancies:
            lines.append("  archives: within tolerance (not bit-identical)")
        else:
            lines.append(f"  archives: {len(self.discrepancies)} discrepancy(ies)")
            lines.extend(f"    {entry}" for entry in self.discrepancies)
        if self.band_violations:
            lines.append(
                f"  tolerance bands: {len(self.band_violations)} violation(s)"
            )
            lines.extend(f"    {entry}" for entry in self.band_violations)
        else:
            lines.append("  tolerance bands: all points within band")
        lines.append(
            "  verdict: RECOVERED" if self.recovered else "  verdict: FAILED"
        )
        return lines


def _scaled_plan(preset: str, scale: float):
    """The preset's simulation plan with effort scaled by ``scale``."""
    plan = plan_for(preset)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if scale == 1.0:
        return plan
    return replace(
        plan, warmup=plan.warmup * scale, observation=plan.observation * scale
    )


def run_chaos(
    figure_id: str = "fig4a",
    preset: str = "quick",
    seed: int = 0,
    scale: float = 1.0,
    max_points: Optional[int] = None,
    crash: float = 0.5,
    hang: float = 0.0,
    hang_seconds: float = 3600.0,
    salt: str = "",
    deadline: Optional[float] = 30.0,
    retries: int = 1,
    tolerance: float = 0.15,
    policy: Optional[TolerancePolicy] = None,
    out_dir: Optional[str] = None,
) -> ChaosOutcome:
    """Run one figure clean and faulted; compare the archives.

    ``max_points`` slices the figure's sweep to its first N points
    (the CI smoke runs a handful, not all 30 of fig4a), and ``scale``
    shrinks the simulation effort like the validation CLI's
    ``--scale``. ``crash`` / ``hang`` / ``hang_seconds`` / ``salt``
    build the :meth:`FaultPlan.sampled` plan of the faulted run;
    ``deadline`` is its ``point_timeout`` (it must be well below
    ``hang_seconds`` for a hang to be killed) and ``retries`` its
    :class:`RetryPolicy` (no backoff: a chaos run should spend its
    wall clock simulating, not sleeping). Custom (non-sweep) figures
    are rejected — there is no point-level evaluation to afflict.

    When ``out_dir`` is given, both archives (and their manifests) are
    saved under ``<out_dir>/clean`` and ``<out_dir>/faulted``.
    """
    try:
        spec = FIGURE_SPECS[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; known: "
            f"{', '.join(sorted(FIGURE_SPECS))}"
        ) from None
    if spec.custom is not None:
        raise ValueError(
            f"figure {figure_id!r} is a custom (non-sweep) figure and "
            "cannot run under chaos"
        )
    backend = spec.backend
    points = list(spec.points())
    if max_points is not None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        points = points[:max_points]
    plan = _scaled_plan(preset, scale)
    fault_plan = FaultPlan.sampled(
        len(points), crash=crash, hang=hang, hang_seconds=hang_seconds,
        salt=salt,
    )

    def _run(label: str, processes: Optional[int],
             resilience: ResilienceOptions) -> FigureResult:
        figure = run_sweep(
            figure_id,
            spec.title,
            spec.x_label,
            spec.metric,
            points,
            plan,
            seed=seed,
            processes=processes,
            resilience=resilience,
            backend=backend,
        )
        if out_dir is not None:
            save_figure(figure, os.path.join(out_dir, label))
        return figure

    clean = _run("clean", None, ResilienceOptions())
    faulted = _run(
        "faulted",
        CHAOS_PROCESSES,
        ResilienceOptions(
            retry=RetryPolicy(max_retries=retries, backoff_base=0.0),
            point_timeout=deadline,
            fault_plan=fault_plan,
        ),
    )

    bit_identical = clean.series == faulted.series
    discrepancies = [
        str(entry)
        for entry in compare_figures(clean, faulted, rel_tolerance=tolerance)
    ]

    policy = policy or TolerancePolicy(
        alpha=0.01, rel_tolerance=tolerance, abs_tolerance=0.0
    )
    band_violations: List[str] = []
    for label, clean_points in clean.series.items():
        faulted_by_x = {
            x: y for x, y, _ in faulted.series.get(label, [])
        }
        for x, clean_y, _ in clean_points:
            if x not in faulted_by_x:
                band_violations.append(f"{label!r} at x={x:g}: missing point")
                continue
            faulted_y = faulted_by_x[x]
            band = policy.band(clean_y, faulted_y)
            if abs(faulted_y - clean_y) > band:
                band_violations.append(
                    f"{label!r} at x={x:g}: |{faulted_y:.6g} - {clean_y:.6g}|"
                    f" > band {band:.4g}"
                )

    manifest = faulted.manifest
    execution = (manifest.execution or {}) if manifest else {}
    return ChaosOutcome(
        figure_id=figure_id,
        points=len(points),
        backend=backend,
        bit_identical=bit_identical,
        discrepancies=discrepancies,
        band_violations=band_violations,
        retries=manifest.retries if manifest else 0,
        failed_points=manifest.failed_points if manifest else 0,
        timeouts=int(execution.get("timeouts", 0)),
        attempts={
            index: count
            for index, count in (execution.get("attempts") or {}).items()
            if count > 1
        },
        clean_wall_clock=(
            clean.manifest.wall_clock_seconds if clean.manifest else 0.0
        ),
        faulted_wall_clock=(
            manifest.wall_clock_seconds if manifest else 0.0
        ),
    )
