"""The ``cluster`` backend: the message-level cluster simulation.

Wraps :class:`repro.cluster.ClusterSimulator` — the per-node,
per-message ground truth for the coordination protocol — behind the
backend protocol. It is the only backend that *measures* coordination
time (QUIESCE broadcast to last READY) rather than assuming a law for
it, which is why the coordination-law cross-validation figure runs
here.

Per-node state costs memory and time linear in the node count (the
protocol's fan-outs and fan-ins are one engine event each, so the
event count grows only with the I/O groups), so the capability flags
advertise a ceiling at BlueGene/L scale; sweeps that exceed it get a
clear :class:`~repro.backends.base.UnsupportedParametersError` up
front instead of an hour-long surprise.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import ClusterSimulator
from ..core.parameters import ModelParameters
from .base import (
    observed,
    BackendCapabilities,
    BaseBackend,
    EvaluationPlan,
    EvaluationResult,
    MEAN_COORDINATION_TIME,
    MetricValue,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
    UnsupportedBackendError,
    non_flat_strategy,
)

__all__ = ["ClusterBackend"]

#: Largest node count the per-node simulator handles in reasonable time
#: (BlueGene/L scale: 32,768 nodes run 40 simulated hours in ~5 s).
MAX_CLUSTER_NODES = 65536


class ClusterBackend(BaseBackend):
    """Single-trajectory message-level simulation of one cluster."""

    id = "cluster"
    backend_version = 1
    capabilities = BackendCapabilities(
        metrics=frozenset(
            {USEFUL_WORK_FRACTION, TOTAL_USEFUL_WORK, MEAN_COORDINATION_TIME}
        ),
        deterministic=False,
        exact=False,
        max_nodes=MAX_CLUSTER_NODES,
        description=(
            "message-level simulation of every node, I/O node and link "
            "(measures coordination time instead of assuming a law) with "
            "one engine event per protocol fan-out and fan-in; "
            f"practical up to {MAX_CLUSTER_NODES} nodes (BlueGene/L scale)"
        ),
    )

    def supports(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> Optional[str]:
        """Reject scales and model features the per-node simulator
        does not cover."""
        if params.n_nodes > MAX_CLUSTER_NODES:
            return (
                f"{params.n_nodes} nodes exceeds the per-node simulator's "
                f"practical ceiling of {MAX_CLUSTER_NODES}"
            )
        if params.timeout is not None:
            return "the cluster protocol does not implement timeout-abort rounds"
        if params.prob_correlated_failure > 0:
            return "correlated failure bursts are not modeled per node"
        if params.generic_correlated_coefficient > 0:
            return "generic correlated failures are not modeled per node"
        if params.recovery_distribution != "exponential":
            return (
                f"recovery distribution {params.recovery_distribution!r} "
                "is not implemented by the cluster simulator"
            )
        spec = non_flat_strategy(plan)
        if spec is not None:
            return (
                f"the message-level protocol implements only the flat "
                f"coordinated checkpoint; strategy {spec!r} needs a "
                f"sampled SAN backend (san-sim)"
            )
        return None

    @observed
    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Run one trajectory of ``plan.duration`` (falling back to
        ``plan.simulation.observation``) seeded with ``plan.seed``."""
        spec = non_flat_strategy(plan)
        if spec is not None:
            raise UnsupportedBackendError(
                f"backend {self.id!r} cannot run: the message-level "
                f"protocol implements only the flat coordinated "
                f"checkpoint; strategy {spec!r} needs a sampled SAN "
                f"backend (san-sim)"
            )
        self.check(params, plan)
        duration = plan.duration or plan.simulation.observation
        outcome = ClusterSimulator(params, seed=plan.seed).run(duration=duration)
        uwf = outcome.useful_work_fraction
        metrics = {
            USEFUL_WORK_FRACTION: MetricValue(mean=uwf),
            TOTAL_USEFUL_WORK: MetricValue(mean=uwf * params.n_processors),
            MEAN_COORDINATION_TIME: MetricValue(
                mean=outcome.mean_coordination_time
            ),
        }
        details = {
            "duration": duration,
            "rounds": float(outcome.rounds),
            "aborts": float(outcome.aborts),
            "commits": float(outcome.commits),
            "failures": float(outcome.failures),
            "io_failures": float(outcome.io_failures),
            "recoveries": float(outcome.recoveries),
            "events": float(outcome.events),
        }
        return self.result(metrics=metrics, details=details)
