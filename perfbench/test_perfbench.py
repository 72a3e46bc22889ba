"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench

No figure runs here: the tests feed hand-made spans, import-time
output and archives to the functions ``run.py`` uses.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import pytest

import checks
import cores
import hooks
import ledger


def span(sid, parent, name, start, end, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "attrs": attrs}


def test_self_time_subtracts_union_of_overlapping_children():
    parent = span(1, None, "p", 0.0, 10.0)
    kids = [span(2, 1, "a", 1.0, 3.0), span(3, 1, "b", 2.0, 5.0),
            span(4, 1, "c", 8.0, 12.0)]  # sticks out past the parent
    # covered: [1, 5] and [8, 10] -> 6 of 10
    assert ledger.self_time(parent, kids) == pytest.approx(4.0)
    assert ledger.self_time(parent, []) == pytest.approx(10.0)


def test_self_time_by_name_subtracts_direct_children_only():
    spans = [
        span(1, None, "sweep", 0.0, 10.0),
        span(2, 1, "drain", 1.0, 9.0),
        span(3, 2, "task", 2.0, 4.0),
        span(4, 2, "task", 5.0, 8.0),
        span(5, 3, "run", 2.5, 3.5),
        # Same ids in another process must not be mixed up.
        span(1, None, "task", 0.0, 1.0, pid=2),
    ]
    own = ledger.self_time_by_name(spans)
    assert own["sweep"] == pytest.approx(2.0)
    assert own["drain"] == pytest.approx(3.0)
    assert own["task"] == pytest.approx(1.0 + 3.0 + 1.0)
    assert own["run"] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [11, 12, 48, 100, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    pct, value, count = ledger.tail_percentile(samples)
    assert count == n
    assert sum(s > value for s in samples) == ledger.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_named_cases():
    assert ledger.tail_percentile([1.0] * 10) is None
    assert ledger.tail_percentile([]) is None
    pct, value, _ = ledger.tail_percentile(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)
    pct, value, _ = ledger.tail_percentile(list(range(1, 1001)))
    assert (pct, value) == (99.0, 990)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      1500 |       1500 |     numpy.core._multiarray_umath
import time:      2000 |       3500 |   numpy
import time:     40000 |      40000 |       scipy._lib._util
import time:    700000 |     740000 |     scipy.stats
import time:     10000 |     10000 |   scipy
import time:      3000 |    756620 | repro.experiments.cli
some unrelated warning line
"""


def test_parse_importtime():
    per_module = ledger.parse_importtime(IMPORTTIME)
    assert per_module["scipy.stats"] == pytest.approx(0.7)
    assert "imported" not in " ".join(per_module)
    metrics = ledger.import_metrics(IMPORTTIME)
    assert metrics["import.total_s"] == pytest.approx(0.75662)
    assert metrics["import.scipy_s"] == pytest.approx(0.75)


def test_import_metrics_rejects_output_without_importtime_lines():
    with pytest.raises(ValueError):
        ledger.import_metrics("Traceback (most recent call last):\n")


def test_layer_metrics_pool_dispatch_and_busy_ratio():
    spans = [
        span(1, None, "experiments.run_figure", 0.0, 10.0),
        span(2, 1, "experiments.run_sweep", 1.0, 9.5),
        span(3, 2, "exec.drain", 2.0, 8.0, workers=2),
        # Two workers' tasks, overlapping in time, in other processes.
        span(1, None, "exec.execute_task", 2.0, 5.0, pid=7),
        span(2, None, "exec.execute_task", 5.0, 7.0, pid=7),
        span(1, None, "exec.execute_task", 2.5, 6.0, pid=8),
        span(2, 1, "san.run", 3.0, 5.0, pid=8, events=100, heap_pushes=40,
             stale_pops=4, enabled_checks=30, enabled_checks_skipped=90,
             resamples=40),
    ]
    m = ledger.layer_metrics(spans)
    assert m["experiments.build_points_s"] == pytest.approx(1.0)
    assert m["experiments.sweep_self_s"] == pytest.approx(8.5 - 6.0)
    assert m["exec.tasks"] == 3
    # Tasks cover [2, 7] of the drain's [2, 8].
    assert m["exec.dispatch_s"] == pytest.approx(1.0)
    assert m["exec.worker_busy_ratio"] == pytest.approx((3 + 2 + 3.5) / (2 * 6.0))
    assert m["san.events_per_s"] == pytest.approx(50.0)
    assert m["san.check_efficiency"] == pytest.approx(0.75)
    assert m["san.stale_pop_ratio"] == pytest.approx(0.1)


def test_quality_metrics_flags_zero_width_and_negative_means():
    series = {"a": [[1, 10.0, 1.0], [2, 5.0, 6e-11], [3, -0.1, 0.2]],
              "b": [[1, 0.0, 0.5]]}
    q = ledger.quality_metrics(series)
    assert q["san.degenerate_points"] == 2
    assert q["san.ci_rel_halfwidth_median"] == pytest.approx(0.1)


def _archive(notes=(), failures=(), series=None):
    payload = {
        "figure_id": "fig4a",
        "series": series if series is not None else {
            "s": [[1, 2.0, 0.1], [2, 3.0, 0.2]]},
        "notes": list(notes),
        "failures": list(failures),
    }
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def _check(archive, **kw):
    args = dict(points=2, returncode=0, archive=archive,
                stdout="[PASS] fig4a/s optimum", manifest=None)
    args.update(kw)
    return checks.check_invocation(**args)


def test_identical_archive_passes_every_check():
    archive = _archive()
    verdict = _check(archive, same_as=archive, golden=checks.digest(archive),
                     shape_checked=True)
    assert (verdict.failed, verdict.reasons) == (0, [])
    assert checks.digest(archive) == hashlib.sha256(archive).hexdigest()


def test_corrupted_archive_fails_every_point():
    archive = _archive()
    corrupted = archive.replace(b"2.0", b"2.5")
    assert corrupted != archive
    verdict = _check(corrupted, same_as=archive)
    assert verdict.failed == 2
    verdict = _check(corrupted, golden=checks.digest(archive))
    assert verdict.failed == 2
    verdict = _check(b"{ truncated")
    assert verdict.failed == 2


def test_bad_exit_code_or_no_shape_checks_fail_every_point():
    assert _check(_archive(), returncode=1).failed == 2
    assert _check(_archive(), returncode=2, stdout="[FAIL] b").failed == 2
    assert _check(_archive(), shape_checked=True, stdout="").failed == 2
    assert _check(None).failed == 2


def test_shape_failures_fail_points_only_at_the_default_seed():
    # The CLI exits with 1 when a shape check fails.
    shape_failed = dict(returncode=1, shape_checked=True,
                        stdout="[PASS] a\n[FAIL] b")
    verdict = _check(_archive(), **shape_failed)
    assert (verdict.failed, verdict.shape_failures) == (0, 1)
    verdict = _check(_archive(), shape_must_pass=True, **shape_failed)
    assert (verdict.failed, verdict.shape_failures) == (2, 1)
    # Exit code 1 with a failed point is a failure at any seed.
    failed_point = _archive(failures=[{"index": 1}])
    assert _check(failed_point, **shape_failed).failed == 2


def test_failed_and_missing_points_count_one_each():
    one_point = _archive(series={"s": [[1, 2.0, 0.1]]})
    assert _check(one_point).failed == 1
    failed_point = _archive(series={"s": [[1, 2.0, 0.1]]},
                            failures=[{"index": 1}])
    assert _check(failed_point).failed == 2  # reported failure + missing


def test_warm_archive_equals_cold_except_for_the_cache_note():
    cold = _archive()
    note = "result cache: 2 of 2 point(s) reused from cache"
    warm = _archive(notes=[note])
    ok = {"points": {"new_evaluations": 0}}
    assert _check(warm, cache_warm_over=cold, warm_note=note, manifest=ok).failed == 0
    # Wrong or missing note, changed values, or any new evaluation fail.
    assert _check(cold, cache_warm_over=cold, warm_note=note, manifest=ok).failed == 2
    changed = _archive(notes=[note], series={"s": [[1, 2.0, 0.1], [2, 3.5, 0.2]]})
    assert _check(changed, cache_warm_over=cold, warm_note=note, manifest=ok).failed == 2
    busy = {"points": {"new_evaluations": 1}}
    assert _check(warm, cache_warm_over=cold, warm_note=note, manifest=busy).failed == 2


def test_coordination_law_tolerance_fails_single_points():
    series = {
        checks.MEASURED: [[64.0, 47.0, 0.0], [128.0, 60.0, 0.0]],
        checks.PREDICTED: [[64.0, 47.4, 0.0], [128.0, 54.3, 0.0]],
    }
    archive = _archive(series=series)
    verdict = _check(archive, law=True)
    assert verdict.failed == 1  # 128 nodes is 10.5 % off
    assert ledger.law_errors(series, checks.MEASURED, checks.PREDICTED)[0] == (
        pytest.approx(0.4 / 47.4))


def test_replace_everywhere_reaches_bindings_imported_by_name():
    def original():
        return "original"

    home = types.ModuleType("repro._bench_home")
    user = types.ModuleType("repro._bench_user")
    home.f = original
    user.f = original  # as after "from ._bench_home import f"
    sys.modules.update({home.__name__: home, user.__name__: user})
    try:
        count = hooks.replace_everywhere(original, lambda: "wrapped")
        assert count == 2
        assert home.f() == user.f() == "wrapped"
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_recorder_nests_spans_and_closes_generator_spans(tmp_path):
    recorder = hooks.Recorder(str(tmp_path))
    traced = hooks._traced(recorder, "leaf", lambda x: x * 2)

    def produce():
        yield traced(1)
        yield traced(2)

    drain = hooks._traced_generator(recorder, "drain", produce,
                                    lambda args: {"workers": 1})
    outer = recorder.open("outer")
    assert list(drain()) == [2, 4]
    recorder.close(outer, None)
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s["name"], []).append(s)
    (drain_span,) = by_name["drain"]
    assert drain_span["parent"] == by_name["outer"][0]["id"]
    assert [s["parent"] for s in by_name["leaf"]] == [drain_span["id"]] * 2
    recorder.dump()
    dumped = json.loads((tmp_path / f"spans-{hooks.os.getpid()}.json").read_text())
    assert len(dumped) == 4


def test_choose_moves_only_to_a_clearly_faster_core():
    assert cores.choose(None, {0: 3.0, 1: 2.0}) == 1
    assert cores.choose(0, {0: 3.0, 1: 2.8}) == 0  # within the hysteresis
    assert cores.choose(0, {0: 3.0, 1: 2.6}) == 1
    assert cores.choose(5, {0: 3.0, 1: 2.9}) == 1  # current core not allowed


def test_scaled_is_time_times_mean_speed():
    ref = cores.REFERENCE_PROBE_S
    assert cores.scaled(10.0, [ref, ref]) == pytest.approx(10.0)
    # Half the time at full speed, half at half speed: 7.5 s of work.
    assert cores.scaled(10.0, [ref, 2 * ref]) == pytest.approx(7.5)
    assert cores.scaled(10.0, []) == 10.0


def test_speed_meter_pins_a_child_to_one_core_and_probes_it():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(1)"])
    try:
        with cores.SpeedMeter(child.pid, pin=True) as meter:
            time.sleep(0.3)
            pinned = os.sched_getaffinity(child.pid)
        assert meter.probes and all(p > 0 for p in meter.probes)
        assert len(pinned) == 1
        assert meter.current in os.sched_getaffinity(0)
    finally:
        child.wait()
