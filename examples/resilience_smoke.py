"""CI smoke test for the resilience layer.

Runs a tiny sweep three ways and asserts the guarantees that
``docs/RESILIENCE.md`` promises:

1. an uninterrupted run (the reference);
2. a run over a result cache killed by an injected abort after 2 of 4
   points, then re-run over the same cache — must simulate only the
   remaining points and save an archive byte-identical to the
   reference's, apart from the cache's one provenance note;
3. a run with an injected crash on a point's first attempt — must
   retry on the point's own seed and reproduce the reference
   bit-identically.

Exits non-zero (via assert) on any violation. Usage::

    PYTHONPATH=src python examples/resilience_smoke.py
"""

import json
import os
import sys
import tempfile

from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.experiments import (
    FaultPlan,
    ResilienceOptions,
    RetryPolicy,
    SweepAborted,
    SweepPoint,
    run_sweep,
    save_figure,
)

PLAN = SimulationPlan(warmup=1 * HOUR, observation=10 * HOUR, replications=2)
# Integral x values: a resumed archive must keep them integral.
POINTS = [
    SweepPoint("smoke", n, ModelParameters(n_processors=n))
    for n in (8192, 16384, 32768, 65536)
]


def sweep(**kwargs):
    return run_sweep(
        "smoke", "Smoke", "processors", "total_useful_work", POINTS, PLAN,
        seed=42, **kwargs,
    )


def archive_text(figure, directory):
    with open(save_figure(figure, directory), encoding="utf-8") as handle:
        return handle.read()


def main():
    with tempfile.TemporaryDirectory() as work:
        print("reference run (uninterrupted)...")
        reference = sweep()
        assert len(reference.series["smoke"]) == 4
        reference_text = archive_text(reference, os.path.join(work, "cold"))

        print("interrupted run: abort after 2 points...")
        cache_dir = os.path.join(work, "cache")
        try:
            sweep(resilience=ResilienceOptions(
                cache_dir=cache_dir,
                fault_plan=FaultPlan().abort_after_points(2),
            ))
            raise AssertionError("injected abort did not fire")
        except SweepAborted:
            pass

        print("re-running over the same cache...")
        progress = []
        resumed = sweep(
            progress=lambda done, total: progress.append((done, total)),
            resilience=ResilienceOptions(cache_dir=cache_dir),
        )
        assert progress[0] == (2, 4), (
            f"resume should start with 2 cached points, got {progress[0]}"
        )
        assert resumed.manifest.new_evaluations == 2
        expected = json.loads(reference_text)
        expected["notes"] = [
            f"result cache: 2 of 4 point(s) reused from {cache_dir}"
        ]
        resumed_text = archive_text(resumed, os.path.join(work, "resumed"))
        assert resumed_text == json.dumps(expected, indent=2, sort_keys=True), (
            "resumed archive differs from the reference beyond the cache note"
        )
        print("resume OK: 2 points from the cache, archive byte-identical")

    print("crash-injection run: point 1 crashes on attempt 0...")
    retried = sweep(resilience=ResilienceOptions(
        retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        fault_plan=FaultPlan().crash(1, attempts=(0,)),
    ))
    assert not retried.failures, f"unexpected failures: {retried.failures}"
    assert retried.series == reference.series, (
        "retried figure is not bit-identical to the reference"
    )
    print("retry OK: crash retried on the same seed, figure bit-identical")

    print("resilience smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
