"""The evaluation harness: regenerate every table and figure.

Programmatic use::

    from repro.experiments import figures, render_figure, validate_figure
    result = figures.figure_4a(preset="quick", seed=1)
    print(render_figure(result))
    for check in validate_figure(result):
        print(check)

Command line: ``python -m repro run-figure fig4a --preset quick``.
"""

from . import figures
from .config import FIGURE_IDS, PRESETS, base_parameters, plan_for
from .figures import FIGURE_RUNNERS, FIGURE_SPECS, run_figure
from .specs import FigureSpec
from .report import (
    figure_to_json,
    render_ascii_chart,
    render_figure,
    render_table3,
)
from .archive import (
    FIGURE_SCHEMA_VERSION,
    Discrepancy,
    compare_archives,
    compare_figures,
    load_archive,
    load_figure,
    save_archive,
    save_figure,
)
from .chaos import ChaosOutcome, run_chaos
from .faultinject import FaultPlan, InjectedCrash, SweepAborted
from .paper_claims import CLAIMS, Claim, ClaimOutcome, evaluate_claims, render_claims
from .resilience import (
    FailureReport,
    ResilienceOptions,
    RetryPolicy,
    SweepSupervisor,
)
from .runner import FigureResult, SweepPoint, run_sweep
from .validation import ShapeCheck, validate_figure

__all__ = [
    "figures",
    "FIGURE_RUNNERS",
    "FIGURE_SPECS",
    "FigureSpec",
    "run_figure",
    "FIGURE_IDS",
    "PRESETS",
    "base_parameters",
    "plan_for",
    "FigureResult",
    "SweepPoint",
    "run_sweep",
    "render_figure",
    "render_ascii_chart",
    "render_table3",
    "figure_to_json",
    "ShapeCheck",
    "validate_figure",
    "FIGURE_SCHEMA_VERSION",
    "save_figure",
    "load_figure",
    "save_archive",
    "load_archive",
    "compare_figures",
    "compare_archives",
    "Discrepancy",
    "CLAIMS",
    "Claim",
    "ClaimOutcome",
    "evaluate_claims",
    "render_claims",
    "ResilienceOptions",
    "RetryPolicy",
    "FailureReport",
    "SweepSupervisor",
    "FaultPlan",
    "InjectedCrash",
    "SweepAborted",
    "ChaosOutcome",
    "run_chaos",
]
