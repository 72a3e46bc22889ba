"""Tests for RunManifest serialization, atomic writes, and rendering."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    load_manifest,
    manifest_path,
    render_manifest,
    write_manifest,
)


def make_manifest(**overrides):
    fields = dict(
        figure_id="fig3",
        backend="san-sim",
        backend_version="1.0",
        metric="useful_work_fraction",
        seed=42,
        preset="quick",
        plan={"replications": 3, "kernel": "incremental"},
        points_total=10,
        points_from_cache=3,
        new_evaluations=5,
        retries=1,
        failed_points=0,
        metrics={"counters": {"sweep.runs": 1}, "gauges": {}, "timings": {}},
        wall_clock_seconds=12.5,
        notes=["example note"],
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        manifest = make_manifest()
        path = Path(write_manifest(manifest, str(tmp_path)))
        assert str(path) == manifest_path(str(tmp_path), "fig3")
        assert path.exists()
        loaded = load_manifest(path)
        assert loaded.figure_id == "fig3"
        assert loaded.backend == "san-sim"
        assert loaded.seed == 42
        assert loaded.points_total == 10
        assert loaded.points_from_cache == 3
        assert loaded.new_evaluations == 5
        assert loaded.retries == 1
        assert loaded.plan == {"replications": 3, "kernel": "incremental"}
        assert loaded.metrics["counters"]["sweep.runs"] == 1
        assert loaded.notes == ["example note"]
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION

    def test_write_stamps_provenance(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert payload["created_unix"] > 0
        assert payload["repro_version"]
        # git_version may be "unknown" outside a repo but must be present.
        assert "git_version" in payload

    def test_warm_cache_shape(self, tmp_path):
        """A warm-cache re-run manifest records zero new evaluations."""
        manifest = make_manifest(points_from_cache=10, new_evaluations=0)
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.new_evaluations == 0
        assert loaded.points_from_cache == loaded.points_total

    def test_legacy_from_journal_count_loads(self, tmp_path):
        # Manifests written while sweeps could resume from a checkpoint
        # journal count those points under points.from_journal.
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        payload["points"]["from_journal"] = 2
        path.write_text(json.dumps(payload))
        loaded = load_manifest(str(path))
        assert loaded.points_from_cache == 3
        assert loaded.new_evaluations == 5
        assert "from_journal" not in loaded.to_json_dict()["points"]
        assert "journal" not in render_manifest(loaded)


class TestImportSeconds:
    def test_round_trips_and_renders_beside_wall_clock(self, tmp_path):
        manifest = make_manifest(import_seconds=0.31)
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.import_seconds == 0.31
        assert "wall clock: 12.50 s   import: 0.31 s" in render_manifest(loaded)

    def test_absent_in_old_payloads_loads_as_zero(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        del payload["import_seconds"]
        path.write_text(json.dumps(payload))
        assert load_manifest(str(path)).import_seconds == 0.0


class TestResilienceSection:
    """Manifests no longer carry a ``resilience`` section; ones written
    while the backend resilience layer existed must still load."""

    LEGACY_SECTION = {
        "events": [{"kind": "retry", "backend": "san-sim", "attempt": 1}],
        "summary": {"by_kind": {"retry": 1}, "degraded": []},
    }

    def test_legacy_resilience_key_loads(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        payload["resilience"] = self.LEGACY_SECTION
        path.write_text(json.dumps(payload))
        loaded = load_manifest(str(path))
        assert loaded.figure_id == make_manifest().figure_id
        assert "resilience" not in loaded.to_json_dict()

    def test_absent_in_old_payloads_loads_as_none(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert "resilience" not in payload
        assert load_manifest(str(path)).retries == make_manifest().retries

    def test_render_without_section_is_silent(self):
        assert "resilience" not in render_manifest(make_manifest())


class TestExecutionSection:
    SECTION = {
        "executor": "queue",
        "tasks_executed": 4,
        "coalesced": 2,
        "queue_depth_high_water": 4,
        "orphans_requeued": 1,
        "attempts": {"0": 1, "1": 3},
    }

    def test_round_trips(self, tmp_path):
        manifest = make_manifest(execution=self.SECTION)
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.execution == self.SECTION

    def test_absent_in_old_payloads_loads_as_none(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert payload["execution"] is None
        del payload["execution"]  # a pre-executor-layer manifest
        path.write_text(json.dumps(payload))
        assert load_manifest(path).execution is None

    def test_render_shows_executor_and_counters(self):
        text = render_manifest(make_manifest(execution=self.SECTION))
        assert "execution: queue executor, 4 task(s) executed" in text
        assert "2 coalesced" in text
        assert "queue depth high-water 4" in text
        assert "1 orphan(s) requeued" in text
        assert "point 1: 3 attempts" in text
        # Single-attempt points are not worth a line.
        assert "point 0" not in text

    def test_render_pool_shape(self):
        text = render_manifest(
            make_manifest(
                execution={
                    "executor": "pool",
                    "tasks_executed": 5,
                    "processes": 4,
                    "timeouts": 2,
                }
            )
        )
        assert "execution: pool executor, 5 task(s) executed" in text
        assert "2 timeout(s)" in text

    def test_render_without_section_is_silent(self):
        assert "execution" not in render_manifest(make_manifest())


class TestSchemaRejection:
    def test_wrong_schema_version(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_missing_figure_id(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        del payload["figure_id"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(str(tmp_path / "absent.manifest.json"))


class TestRender:
    def test_render_smoke(self):
        text = render_manifest(make_manifest())
        assert "fig3" in text
        assert "san-sim" in text
        assert "useful_work_fraction" in text
        # Point provenance must be visible to a human reader.
        assert "cache" in text


class TestBatchedKernelStamping:
    """The batched kernel's identity and counters must survive the
    manifest round trip and be visible in the rendered report."""

    BATCH_STATS = {
        "kernel": "batched",
        "events": 120000,
        "events_per_sec": 250000.0,
        "batch_width": 64,
        "batch_steps": 2000,
        "batch_occupancy": 0.975,
        "scalar_fallback_rate": 0.0008,
    }

    def test_plan_stamp_round_trips_kernel_and_batch_size(self, tmp_path):
        manifest = make_manifest(
            backend="san-sim-batched",
            plan={"replications": 12, "kernel": "batched", "batch_size": 64},
        )
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.plan["kernel"] == "batched"
        assert loaded.plan["batch_size"] == 64

    def test_render_shows_kernel_and_batch_size_in_plan(self):
        text = render_manifest(
            make_manifest(
                plan={"replications": 12, "kernel": "batched", "batch_size": 64}
            )
        )
        assert "kernel=batched" in text
        assert "batch_size=64" in text

    def test_render_shows_batch_occupancy_and_fallback(self):
        text = render_manifest(make_manifest(kernel_stats=self.BATCH_STATS))
        assert "batch width 64" in text
        assert "occupancy 97.5%" in text
        assert "scalar fallback 0.08%" in text

    def test_render_scalar_kernel_has_no_batch_clause(self):
        stats = {"kernel": "incremental", "events": 5000,
                 "events_per_sec": 100000.0, "batch_steps": 0}
        text = render_manifest(make_manifest(kernel_stats=stats))
        assert "events/s" in text
        assert "batch width" not in text
