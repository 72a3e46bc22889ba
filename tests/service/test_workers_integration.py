"""Two real drainer processes on one shared queue: the global
properties the service exists for.

A fig4a slice is submitted once as a job; two ``repro worker``
subprocesses race over the queue. Assertions: every point was
evaluated exactly once across both workers (the per-key counts of the
workers' evaluation logs), both workers exit cleanly on SIGTERM, and
the collected archive is byte-for-byte identical to a serial
``run_figure`` of the same slice.
"""

import collections
import filecmp
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.archive import save_figure
from repro.experiments.figures import run_figure
from repro.service import collect_job, job_status, submit_job

POINTS = 4
DEADLINE = 240.0


def spawn_worker(queue_dir, worker_id):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--queue-dir", str(queue_dir),
            "--worker-id", worker_id,
            "--poll-interval", "0.05",
            "--idle-exit", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.mark.slow
def test_two_workers_zero_double_evaluations_bit_identical(tmp_path):
    queue_dir = tmp_path / "queue"
    record = submit_job(
        str(queue_dir), "fig4a", preset="quick", seed=1,
        max_points=POINTS, name="itest",
    )
    workers = [
        spawn_worker(queue_dir, "itest-a"),
        spawn_worker(queue_dir, "itest-b"),
    ]
    try:
        deadline = time.time() + DEADLINE
        status = job_status(str(queue_dir), record.job_id)
        while not status.finished and time.time() < deadline:
            assert any(proc.poll() is None for proc in workers), (
                "both workers died before the job finished: "
                + " / ".join(proc.stdout.read() for proc in workers)
            )
            time.sleep(0.2)
            status = job_status(str(queue_dir), record.job_id)
        assert status.finished, f"job stuck: {status.render()}"
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        outputs = []
        for proc in workers:
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            outputs.append(out)

    # SIGTERM is a clean exit, not a crash.
    assert all(proc.returncode == 0 for proc in workers), outputs

    # Zero double-evaluations: each key appears exactly once across
    # both workers' evaluation logs.
    counts = collections.Counter()
    workers_dir = queue_dir / "workers"
    for name in os.listdir(workers_dir):
        with open(workers_dir / name, encoding="utf-8") as handle:
            for line in handle:
                counts[json.loads(line)["key"]] += 1
    expected_keys = {point["key"] for point in record.points}
    assert set(counts) == expected_keys
    assert all(count == 1 for count in counts.values()), counts

    # The collected archive is bit-identical to a serial run.
    figure = collect_job(str(queue_dir), record.job_id)
    save_figure(figure, str(tmp_path / "service_out"))
    serial = run_figure("fig4a", preset="quick", seed=1, max_points=POINTS)
    save_figure(serial, str(tmp_path / "serial_out"))
    assert filecmp.cmp(
        str(tmp_path / "service_out" / "fig4a.json"),
        str(tmp_path / "serial_out" / "fig4a.json"),
        shallow=False,
    )
