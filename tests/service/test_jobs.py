"""Job API: submit / status / collect against a queue directory.

The contract under test: a submitted job persists every point as a
queue task plus a JSON record next to the queue; status is a
non-blocking poll of the job's result cache; collect assembles a
figure identical to what the in-process sweep produces from the same
cache entries.
"""

import json
import os

import pytest

from repro.exec import EvaluationTask
from repro.service import (
    JOB_SCHEMA_VERSION,
    JobError,
    collect_job,
    job_path,
    job_status,
    list_jobs,
    load_job,
    submit_job,
)
from repro.service.worker import ServiceWorker


def submit_small(queue_dir, **kwargs):
    defaults = dict(
        preset="quick", seed=3, max_points=3,
        backend="analytical", name="smoke",
    )
    defaults.update(kwargs)
    return submit_job(str(queue_dir), "fig4a", **defaults)


class TestSubmit:
    def test_record_and_pending_files(self, tmp_path):
        record = submit_small(tmp_path)
        assert record.schema_version == JOB_SCHEMA_VERSION
        assert record.figure_id == "fig4a"
        # The queue's own cache is resolved when read, never stored.
        assert record.cache_dir is None
        assert record.submitted == 3
        assert len(record.points) == 3
        assert os.path.isfile(job_path(str(tmp_path), record.job_id))
        pending = sorted(os.listdir(tmp_path / "pending"))
        assert len(pending) == 3
        # The pending files are real executable tasks keyed by the
        # points' cache digests, in submission (= point) order.
        keys = [point["key"] for point in record.points]
        assert [name.split("-", 2)[2][: -len(".json")] for name in pending] == keys
        with open(tmp_path / "pending" / pending[0], encoding="utf-8") as fh:
            task = EvaluationTask.from_json_dict(json.load(fh))
        assert task.cache_key() == keys[0]
        assert task.cache_dir is None

    def test_named_cache_is_recorded_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        record = submit_small("q", cache_dir="answers")
        assert record.cache_dir == os.path.join(str(tmp_path), "answers")

    def test_points_preserve_declared_x_type(self, tmp_path):
        # fig4a sweeps machine sizes: integral x values must stay
        # integral in the record, or the collected archive would not
        # be bit-identical to a serial run.
        record = submit_small(tmp_path)
        assert all(
            isinstance(point["x"], int) for point in record.points
        )

    def test_resubmission_coalesces(self, tmp_path):
        first = submit_small(tmp_path)
        again = submit_small(tmp_path)
        assert again.coalesced == 3
        assert len(os.listdir(tmp_path / "pending")) == 3
        assert sorted(list_jobs(str(tmp_path))) == sorted(
            [first.job_id, again.job_id]
        )

    def test_answered_points_are_served_from_results(self, tmp_path):
        first = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        assert job_status(str(tmp_path), first.job_id).finished
        again = submit_small(tmp_path)
        assert again.served_from_cache == 3
        assert os.listdir(tmp_path / "pending") == []

    def test_unknown_figure_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="unknown figure"):
            submit_job(str(tmp_path), "fig999")

    def test_custom_figure_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="not a sweep"):
            submit_job(str(tmp_path), "fig3")

    def test_submitter_leaves_a_metrics_snapshot(self, tmp_path):
        record = submit_small(tmp_path)
        assert os.listdir(tmp_path / "obs") == [
            f"submit-{record.job_id}.metrics.json"
        ]

    def test_legacy_record_with_tenant_loads(self, tmp_path):
        # Records written when jobs carried a tenant label and the
        # queue kept a results/ dir: they load, and read the queue's
        # own cache.
        record = submit_small(tmp_path)
        path = job_path(str(tmp_path), record.job_id)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["tenant"] = "acme"
        del payload["cache_dir"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        loaded = load_job(str(tmp_path), record.job_id)
        assert loaded.cache_dir is None
        assert loaded.points == record.points
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        assert job_status(str(tmp_path), record.job_id).finished


class TestStatusAndCollect:
    def test_lifecycle_timestamps(self, tmp_path):
        record = submit_small(tmp_path)
        assert record.submitted_unix > 0
        status = job_status(str(tmp_path), record.job_id)
        assert status.state == "submitted"
        assert (status.done, status.pending) == (0, 3)

        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        status = job_status(str(tmp_path), record.job_id)
        assert status.finished
        assert status.state == "done"
        reloaded = load_job(str(tmp_path), record.job_id)
        assert reloaded.started_unix is not None
        assert reloaded.finished_unix is not None

    def test_missing_job_raises(self, tmp_path):
        with pytest.raises(JobError, match="cannot read job record"):
            job_status(str(tmp_path), "no-such-job")

    def test_foreign_schema_is_rejected(self, tmp_path):
        record = submit_small(tmp_path)
        path = job_path(str(tmp_path), record.job_id)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = JOB_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(JobError, match="schema version"):
            load_job(str(tmp_path), record.job_id)

    def test_collect_refuses_unfinished_job(self, tmp_path):
        record = submit_small(tmp_path)
        with pytest.raises(JobError, match="not finished"):
            collect_job(str(tmp_path), record.job_id)

    def test_collect_matches_in_process_sweep(self, tmp_path):
        from repro.experiments.figures import run_figure

        record = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        collected = collect_job(str(tmp_path), record.job_id)
        serial = run_figure(
            "fig4a", preset="quick", seed=3, max_points=3,
            backend="analytical",
        )
        assert collected.series == serial.series
        assert collected.metric == serial.metric
        assert collected.backend == serial.backend
        assert collected.unvalidated_intervals == serial.unvalidated_intervals

    def test_jobs_with_different_caches_on_one_queue_both_finish(
        self, tmp_path
    ):
        # Same points, different caches: the second job must not ride
        # on the first job's queued files, whose answers land in the
        # other cache.
        queue = str(tmp_path / "q")
        first = submit_small(queue)
        second = submit_small(queue, cache_dir=str(tmp_path / "other"))
        assert second.coalesced == 0
        assert len(os.listdir(os.path.join(queue, "pending"))) == 6
        ServiceWorker(queue, idle_exit=0.0).run()
        for record in (first, second):
            assert job_status(queue, record.job_id).finished
        assert (
            collect_job(queue, first.job_id).series
            == collect_job(queue, second.job_id).series
        )

    def test_default_cache_follows_the_readers_queue_dir(
        self, tmp_path, monkeypatch
    ):
        # Submitted through a relative queue path; polled and drained
        # through the absolute one from another working directory.
        (tmp_path / "work").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        record = submit_small("q")
        monkeypatch.chdir(tmp_path / "elsewhere")
        queue = str(tmp_path / "work" / "q")
        ServiceWorker(queue, idle_exit=0.0).run()
        assert job_status(queue, record.job_id).finished
        assert not (tmp_path / "elsewhere" / "q").exists()

    def test_collect_carries_a_manifest(self, tmp_path):
        record = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        figure = collect_job(str(tmp_path), record.job_id)
        assert figure.manifest is not None
        assert figure.manifest.execution["executor"] == "service"
        assert figure.manifest.execution["job_id"] == record.job_id


class TestCrossPathSharing:
    """A serial sweep and a job over one cache share every answer."""

    def test_job_over_a_serially_filled_cache_enqueues_nothing(
        self, tmp_path, capsys
    ):
        from repro.experiments import cli

        cache = str(tmp_path / "cache")
        queue = str(tmp_path / "q")
        assert cli.main([
            "run-figure", "fig4a", "--preset", "quick", "--seed", "1",
            "--max-points", "6", "--cache-dir", cache, "--no-validate",
            "--save-json", str(tmp_path / "serial"),
        ]) == 0
        capsys.readouterr()

        assert cli.main([
            "job", "submit", "fig4a", "--queue-dir", queue,
            "--preset", "quick", "--seed", "1", "--max-points", "6",
            "--cache-dir", cache,
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        assert os.listdir(os.path.join(queue, "pending")) == []
        assert load_job(queue, job_id).served_from_cache == 6

        assert cli.main(["job", "status", job_id, "--queue-dir", queue]) == 0
        assert ": done" in capsys.readouterr().out
        assert cli.main([
            "job", "collect", job_id, "--queue-dir", queue,
            "--save-json", str(tmp_path / "service"),
        ]) == 0
        serial = (tmp_path / "serial" / "fig4a.json").read_bytes()
        assert (tmp_path / "service" / "fig4a.json").read_bytes() == serial
