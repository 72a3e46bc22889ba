"""CI smoke test for the resilience layer.

Runs a tiny sweep three ways and asserts the guarantees that
``docs/RESILIENCE.md`` promises:

1. an uninterrupted run (the reference);
2. a run killed by an injected abort after 2 of 4 points, with a torn
   journal tail, then resumed — must simulate only the remaining
   points and reproduce the reference bit-identically;
3. a run with an injected crash on a point's first attempt — must
   retry on the point's own seed and reproduce the reference
   bit-identically.

Exits non-zero (via assert) on any violation. Usage::

    PYTHONPATH=src python examples/resilience_smoke.py
"""

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
)
from repro.experiments.faultinject import corrupt_journal_tail

PLAN = SimulationPlan(warmup=1 * HOUR, observation=10 * HOUR, replications=1)
POINTS = [
    SweepPoint("smoke", float(i + 1), ModelParameters(n_processors=8192))
    for i in range(4)
]


def sweep(**kwargs):
    return run_sweep(
        "smoke", "Smoke", "x", "useful_work_fraction", POINTS, PLAN,
        seed=42, **kwargs,
    )


def main():
    print("reference run (uninterrupted)...")
    reference = sweep()
    assert len(reference.series["smoke"]) == 4

    print("interrupted run: abort after 2 points, tear the journal tail...")
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        try:
            sweep(resilience=ResilienceOptions(
                checkpoint_dir=checkpoint_dir,
                fault_plan=FaultPlan().abort_after_points(2),
            ))
            raise AssertionError("injected abort did not fire")
        except SweepAborted:
            pass
        corrupt_journal_tail(f"{checkpoint_dir}/smoke.journal.jsonl")

        print("resuming...")
        progress = []
        resumed = sweep(
            progress=lambda done, total: progress.append((done, total)),
            resilience=ResilienceOptions(checkpoint_dir=checkpoint_dir),
        )
        assert progress[0] == (2, 4), (
            f"resume should start with 2 journaled points, got {progress[0]}"
        )
        assert resumed.series == reference.series, (
            "resumed figure is not bit-identical to the reference"
        )
        assert any("resumed" in note for note in resumed.notes)
        print("resume OK: 2 points from journal, figure bit-identical")

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
