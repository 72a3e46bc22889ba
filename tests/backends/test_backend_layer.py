"""Tests for the unified evaluation-backend layer: protocol, registry,
capabilities, plan/result schema."""

import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    BackendError,
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    SchemaMismatchError,
    UnknownBackendError,
    UnsupportedMetricError,
    UnsupportedParametersError,
    all_backends,
    backend_ids,
    get_backend,
    register,
    unregister,
)
from repro.backends.analytical import blocking_checkpoint_overhead
from repro.backends.cluster import MAX_CLUSTER_NODES
from repro.core import HOUR, MINUTE, YEAR, ModelParameters, SimulationPlan

TINY = EvaluationPlan(
    simulation=SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=1)
)


class TestRegistry:
    def test_default_backends_registered(self):
        assert {"san-sim", "san-sim-full", "ctmc", "cluster", "analytical"} <= set(
            backend_ids()
        )

    def test_ids_sorted(self):
        assert backend_ids() == sorted(backend_ids())

    def test_get_backend(self):
        backend = get_backend("san-sim")
        assert backend.id == "san-sim"
        assert isinstance(backend, Backend)

    def test_unknown_backend(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("moebius")
        # The error lists what *is* registered and is a ValueError too.
        assert "san-sim" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, BackendError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(get_backend("ctmc"))

    def test_register_unregister(self):
        class Fake:
            id = "fake-test-backend"
            backend_version = 1
            capabilities = BackendCapabilities(metrics=frozenset())

            def evaluate(self, params, plan):
                raise NotImplementedError

            def supports(self, params, plan):
                return None

        register(Fake())
        try:
            assert get_backend("fake-test-backend").id == "fake-test-backend"
            assert any(b.id == "fake-test-backend" for b in all_backends())
        finally:
            unregister("fake-test-backend")
        with pytest.raises(UnknownBackendError):
            get_backend("fake-test-backend")


class TestCapabilities:
    def test_derived_metric_counts_via_base(self):
        caps = get_backend("ctmc").capabilities
        assert caps.supports_metric("useful_work_fraction")
        assert caps.supports_metric("total_useful_work")  # derived
        assert not caps.supports_metric("mean_coordination_time")

    def test_exact_backends_flagged(self):
        assert get_backend("ctmc").capabilities.deterministic
        assert get_backend("ctmc").capabilities.exact
        assert get_backend("analytical").capabilities.deterministic
        assert not get_backend("san-sim").capabilities.deterministic

    def test_every_backend_described(self):
        for backend in all_backends():
            assert backend.capabilities.description
            assert backend.capabilities.metrics


class TestEvaluationPlan:
    def test_metrics_required(self):
        with pytest.raises(ValueError):
            EvaluationPlan(metrics=())

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            EvaluationPlan(duration=0.0)

    def test_metrics_coerced_to_tuple(self):
        plan = EvaluationPlan(metrics=["useful_work_fraction"])
        assert plan.metrics == ("useful_work_fraction",)

    def test_with_seed(self):
        plan = EvaluationPlan(seed=1)
        reseeded = plan.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.metrics == plan.metrics
        assert plan.seed == 1  # original untouched


class TestEvaluationResult:
    def make_result(self):
        return EvaluationResult(
            backend="san-sim",
            metrics={
                "useful_work_fraction": MetricValue(0.42, 0.01),
                "total_useful_work": MetricValue(27000.5, 650.0),
            },
            details={"replications": 3.0},
            notes=["a note"],
            backend_version=1,
        )

    def test_json_roundtrip_exact(self):
        result = self.make_result()
        assert EvaluationResult.from_json(result.to_json()) == result

    def test_stamped(self):
        from repro import __version__

        result = self.make_result()
        payload = result.to_json_dict()
        assert payload["schema_version"] == 1
        assert payload["repro_version"] == __version__
        assert payload["backend"] == "san-sim"

    def test_missing_metric(self):
        with pytest.raises(UnsupportedMetricError):
            self.make_result().metric("mean_coordination_time")

    def test_schema_mismatch_rejected(self):
        payload = self.make_result().to_json_dict()
        payload["schema_version"] = 99
        with pytest.raises(SchemaMismatchError):
            EvaluationResult.from_json_dict(payload)

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaMismatchError):
            EvaluationResult.from_json("{not json")
        with pytest.raises(SchemaMismatchError):
            EvaluationResult.from_json("[1, 2]")


class TestSupports:
    def test_analytical_rejects_correlated_failures(self):
        backend = get_backend("analytical")
        params = ModelParameters(prob_correlated_failure=0.01)
        reason = backend.supports(params, TINY)
        assert reason is not None and "correlated" in reason
        with pytest.raises(UnsupportedParametersError):
            backend.evaluate(params, TINY)

    def test_analytical_rejects_timeouts(self):
        backend = get_backend("analytical")
        assert backend.supports(ModelParameters(timeout=70.0), TINY) is not None

    def test_ctmc_rejects_timeouts(self):
        backend = get_backend("ctmc")
        assert backend.supports(ModelParameters(timeout=70.0), TINY) is not None
        assert backend.supports(ModelParameters(), TINY) is None

    def test_cluster_rejects_large_systems(self):
        backend = get_backend("cluster")
        big = ModelParameters(n_processors=(MAX_CLUSTER_NODES + 1) * 8)
        reason = backend.supports(big, TINY)
        assert reason is not None and str(MAX_CLUSTER_NODES) in reason

    def test_cluster_runs_bluegene_scale(self):
        # 262,144 processors at 8 per node: the paper's largest system.
        backend = get_backend("cluster")
        params = ModelParameters(n_processors=262_144, mttf_node=100_000 * YEAR)
        assert params.n_nodes == 32_768
        plan = EvaluationPlan(
            metrics=("mean_coordination_time",), seed=1, duration=2 * HOUR
        )
        assert backend.supports(params, plan) is None
        result = backend.evaluate(params, plan)
        assert result.details["rounds"] >= 3
        # One round's coordination time is the max of 32,768 quiesce
        # times: MTTQ * H_n = 109.7 s, spread ~13 s.
        coordination = result.metrics["mean_coordination_time"].mean
        assert 60.0 < coordination < 170.0

    def test_san_sim_covers_everything(self):
        backend = get_backend("san-sim")
        awkward = ModelParameters(
            timeout=70.0, prob_correlated_failure=0.01
        )
        assert backend.supports(awkward, TINY) is None

    def test_unsupported_metric_raised_by_evaluate(self):
        backend = get_backend("ctmc")
        plan = EvaluationPlan(metrics=("mean_coordination_time",))
        with pytest.raises(UnsupportedMetricError):
            backend.evaluate(ModelParameters(), plan)


class TestAnalyticalBackend:
    def test_closed_form_matches_renewal_helper(self):
        from repro.analytical.useful_work import useful_work_fraction

        params = ModelParameters(
            n_processors=65536, mttf_node=1 * YEAR, mttr=10 * MINUTE
        )
        result = get_backend("analytical").evaluate(params, TINY)
        expected = useful_work_fraction(
            params.checkpoint_interval,
            blocking_checkpoint_overhead(params),
            params.system_mtbf,
            params.mttr,
        )
        value = result.metric("useful_work_fraction")
        assert value.mean == pytest.approx(expected)
        assert value.half_width == 0.0

    def test_deterministic_across_seeds(self):
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        a = backend.evaluate(params, TINY.with_seed(1))
        b = backend.evaluate(params, TINY.with_seed(2))
        assert a.metrics == b.metrics


class TestCTMCBackend:
    def test_fractions_sum_to_one(self):
        result = get_backend("ctmc").evaluate(
            ModelParameters(n_processors=8192), TINY
        )
        total = (
            result.metric("frac_execution").mean
            + result.metric("frac_checkpointing").mean
            + result.metric("frac_recovering").mean
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert result.details["states"] == 3.0

    def test_deterministic_across_seeds(self):
        backend = get_backend("ctmc")
        params = ModelParameters(n_processors=8192)
        a = backend.evaluate(params, TINY.with_seed(1))
        b = backend.evaluate(params, TINY.with_seed(2))
        assert a.metrics == b.metrics
