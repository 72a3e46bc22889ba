"""End-to-end figure benchmark, timed from process spawn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is one ``run-figure``
command of the repro CLI, run in a fresh interpreter again and again
(closed loop, one figure process at a time) until ``--seconds`` have
passed, at least ``MIN_INVOCATIONS`` times. ``--seed`` becomes the
figure's ``--seed``. Caches and archives go to a scratch directory
under ``.perfbench_work/`` that is removed at the end.

``--trace 0`` reports the end-to-end metrics: medians over the
invocations of ``wall_s`` (spawn to exit), ``setup_s`` (spawn to the
start of the figure's work), ``eval_points_per_s`` (points over
``wall_s - setup_s``), ``peak_rss_mb`` (largest max-RSS of the figure
process and its pool workers) and ``ok_points_ratio``. The timings are
scaled to the reference core speed by the probes of cores.py, which
also keeps a serial figure on the quieter core. ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
ledger of the first traced one (see README.md).

Every archive is checked (see checks.py). The last line of stdout is
one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import cores
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOOKS = HERE / "hooks.py"
GOLDEN = HERE / "golden.json"

#: The CLI's default ``--seed``; archives at this seed must match
#: golden.json.
DEFAULT_SEED = 0
#: Figure processes per run at the least, so ``setup_s`` is a median.
MIN_INVOCATIONS = 3
#: Figure processes still running this long after the run started are
#: killed and counted as failed, so a run ends within its time limit.
RUN_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Workload:
    figure: str
    preset: str
    points: int
    processes: Optional[int] = None
    #: Each invocation gets an empty --cache-dir.
    cache: bool = False

    @property
    def sweep(self) -> bool:
        return self.figure != "coordination-law"


WORKLOADS: Dict[str, Workload] = {
    "fig4a-cold": Workload("fig4a", "quick", 30, cache=True),
    "fig6-pool": Workload("fig6", "quick", 48, processes=2),
    "cluster-coordination": Workload("coordination-law", "standard", 5),
}


@dataclass
class Invocation:
    tag: str
    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    returncode: int
    stdout: str
    archive: Optional[bytes]
    manifest: Optional[dict]
    trace_dir: Optional[Path]
    #: Probe times of the cores the figure ran on (cores.SpeedMeter).
    probes: List[float]

    def scaled(self, seconds: float) -> float:
        return cores.scaled(seconds, self.probes)


class Bench:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        golden = json.loads(GOLDEN.read_text()) if seed == DEFAULT_SEED else {}
        self.golden: Optional[str] = golden.get(name)
        self.attempted = 0
        self.failed = 0
        self.shape_failures = 0
        self.reasons: List[str] = []

    # -- processes -----------------------------------------------------
    def _spawn(self, cmd: List[str], stdout_path: Path,
               pin: bool) -> Tuple[int, float, float, float, List[float]]:
        """Run ``cmd`` in the scratch dir; (exit code, spawn time, exit
        time, max-RSS in MB of it and the children it reaped, probe
        times). ``pin`` keeps it on the quieter core (see cores.py)."""
        with open(stdout_path, "wb") as out:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            killer = threading.Timer(
                max(0.0, self.deadline - spawned), os.killpg,
                (proc.pid, signal.SIGKILL),
            )
            killer.start()
            try:
                with cores.SpeedMeter(proc.pid, pin) as meter:
                    _, status, usage = os.wait4(proc.pid, 0)
                    exited = time.monotonic()
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): take the figure down too.
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        # Pool workers share the session; none may outlive the figure.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return (proc.returncode, spawned, exited, usage.ru_maxrss / 1024.0,
                meter.probes)

    def cli_args(self, tag: str, serial: bool, cache_tag: Optional[str]) -> List[str]:
        wl = self.workload
        args = ["run-figure", wl.figure, "--preset", wl.preset,
                "--seed", str(self.seed), "--save-json", f"out-{tag}"]
        if wl.processes and not serial:
            args += ["--processes", str(wl.processes)]
        if wl.cache:
            args += ["--cache-dir", f"cache-{cache_tag or tag}"]
        return args

    def invoke(self, tag: str, traced: bool = False, serial: bool = False,
               cache_tag: Optional[str] = None) -> Invocation:
        """One figure process; ``cache_tag`` reuses that invocation's cache."""
        mark = self.work / f"mark-{tag}"
        trace_dir = self.work / f"trace-{tag}" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        cmd = [sys.executable, str(HOOKS), str(mark),
               str(trace_dir) if trace_dir else "-", "--",
               *self.cli_args(tag, serial, cache_tag)]
        stdout_path = self.work / f"stdout-{tag}"
        pooled = bool(self.workload.processes) and not serial
        code, spawned, exited, rss, probes = self._spawn(
            cmd, stdout_path, pin=not pooled)
        setup = float(mark.read_text()) - spawned if mark.exists() else None
        out = self.work / f"out-{tag}"
        archive_path = out / f"{self.workload.figure}.json"
        manifest_path = out / f"{self.workload.figure}.manifest.json"
        return Invocation(
            tag=tag, wall_s=exited - spawned, setup_s=setup, peak_rss_mb=rss,
            returncode=code,
            stdout=stdout_path.read_text(errors="replace"),
            archive=archive_path.read_bytes() if archive_path.exists() else None,
            manifest=(json.loads(manifest_path.read_text())
                      if manifest_path.exists() else None),
            trace_dir=trace_dir,
            probes=probes,
        )

    def prepare(self) -> None:
        """Untimed: compile the bytecode, as users do once."""
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.cli"],
            cwd=self.work, env=self.env, check=True,
        )

    # -- checks ----------------------------------------------------------
    def check(self, inv: Invocation, **overrides) -> None:
        """Add ``inv``'s verdict (see checks.check_invocation) to the totals."""
        wl = self.workload
        args = dict(
            points=wl.points,
            returncode=inv.returncode,
            archive=inv.archive,
            stdout=inv.stdout,
            manifest=inv.manifest,
            golden=self.golden,
            shape_checked=wl.figure == "fig4a",
            shape_must_pass=self.seed == DEFAULT_SEED,
            law=not wl.sweep,
        )
        args.update(overrides)
        verdict = checks.check_invocation(**args)
        if inv.setup_s is None:
            verdict.fail_all("the figure's work never started")
        self.attempted += verdict.points
        self.failed += verdict.failed
        self.shape_failures += verdict.shape_failures
        self.reasons += [f"{inv.tag}: {r}" for r in verdict.reasons]

    def check_all(self, invocations: List[Invocation]) -> None:
        """Each archive must equal the first one at this seed. Untimed,
        a cached workload then re-runs against the last invocation's
        cache: the archive must not change and nothing is evaluated."""
        first = invocations[0]
        for inv in invocations:
            if inv is first:
                self.check(inv)
            else:
                self.check(inv, same_as=first.archive,
                           same_as_label=f"run {first.tag} at the same seed")
        if self.workload.cache:
            cold = invocations[-1]
            n = self.workload.points
            self.check(
                self.invoke("warm", cache_tag=cold.tag),
                golden=None,
                cache_warm_over=cold.archive,
                warm_note=f"result cache: {n} of {n} point(s) reused from cache-{cold.tag}",
            )


def run_untraced(bench: Bench, seconds: float,
                 units: Dict[str, str]) -> Dict[str, float]:
    begin = time.monotonic()
    invocations: List[Invocation] = []
    # Start another figure only if one as long as the last still ends
    # within ``seconds``.
    while (len(invocations) < MIN_INVOCATIONS
           or time.monotonic() - begin + invocations[-1].wall_s <= seconds):
        invocations.append(bench.invoke(str(len(invocations))))
    bench.check_all(invocations)
    started = [i for i in invocations if i.setup_s is not None]
    if not started:
        return {}
    # (scaled samples, unscaled samples); see README.md, "Host speed".
    metrics = {
        "wall_s": ([i.scaled(i.wall_s) for i in invocations],
                   [i.wall_s for i in invocations]),
        "setup_s": ([i.scaled(i.setup_s) for i in started],
                    [i.setup_s for i in started]),
        "eval_points_per_s": (
            [bench.workload.points / i.scaled(i.wall_s - i.setup_s) for i in started],
            [bench.workload.points / (i.wall_s - i.setup_s) for i in started]),
        "peak_rss_mb": ([i.peak_rss_mb for i in invocations],) * 2,
    }
    for name, (samples, unscaled) in metrics.items():
        tail = ledger.tail_percentile(samples)
        tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f}" if tail else
                     f"no tail percentile (needs {ledger.TAIL_BEYOND + 1} samples)")
        print(f"{name:<20} median {statistics.median(samples):10.4f} {units[name]:<6} "
              f"(unscaled {statistics.median(unscaled):10.4f})  "
              f"n={len(samples)}  {tail_text}")
    return {name: statistics.median(samples) for name, (samples, _) in metrics.items()}


def _load_spans(trace_dir: Path) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def coverage_errors(bench: Bench, layers: Dict[str, float],
                    manifest: dict) -> List[str]:
    """Counts the wrappers saw that disagree with the program's own
    manifest (a wrapper that missed calls)."""
    counters = manifest.get("metrics", {}).get("counters", {})
    expected: Dict[str, float] = {}
    if bench.workload.sweep:
        new = manifest["points"]["new_evaluations"]
        expected["exec.tasks"] = new
        expected["backends.evaluations"] = new
        expected["san.runs"] = new * manifest["plan"]["replications"]
        if bench.workload.cache:
            expected["backends.cache_puts"] = counters.get("cache.puts", -1)
            expected["backends.cache_gets"] = bench.workload.points
        if not bench.workload.processes:
            expected["san.events"] = counters.get("san.events", 0)
    else:
        expected["cluster.evaluations"] = counters.get("backend.cluster.evaluations", -1)
        expected["cluster.events"] = counters.get("cluster.events", -1)
    return [
        f"{name}: traced {layers[name]:g}, manifest {value:g}"
        for name, value in expected.items() if layers[name] != value
    ]


def run_traced(bench: Bench, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.experiments.cli"],
        cwd=bench.work, env=bench.env, capture_output=True, text=True, check=True,
    )
    imports = ledger.import_metrics(proc.stderr)

    begin = time.monotonic()
    plain: List[Invocation] = []
    traced: List[Invocation] = []
    while (not traced or time.monotonic() - begin
           + plain[-1].wall_s + traced[-1].wall_s <= seconds):
        k = len(traced)
        plain.append(bench.invoke(f"plain{k}"))
        traced.append(bench.invoke(f"traced{k}", traced=True))
    bench.check_all(plain + traced)
    if bench.workload.processes:
        serial = bench.invoke("serial", traced=True, serial=True)
        bench.check(serial, same_as=plain[0].archive, same_as_label="the pool run")

    first = traced[0]
    spans = _load_spans(first.trace_dir)
    layers = ledger.layer_metrics(spans)
    if first.manifest is not None:
        errors = coverage_errors(bench, layers, first.manifest)
        if errors:
            bench.failed += bench.workload.points
            bench.reasons += ["trace wrappers missed calls: " + "; ".join(errors)]
    payload = json.loads(first.archive) if first.archive else {"series": {}}
    series = payload.get("series", {})
    if bench.workload.sweep:
        layers.update(ledger.quality_metrics(series))
        layers["cluster.law_rel_err_max"] = 0.0
    else:
        layers.update({"san.ci_rel_halfwidth_median": 0.0, "san.degenerate_points": 0.0})
        layers["cluster.law_rel_err_max"] = max(
            ledger.law_errors(series, checks.MEASURED, checks.PREDICTED), default=0.0
        )
    layers.update(imports)
    layers["trace.overhead_ratio"] = (
        statistics.median(i.scaled(i.wall_s) for i in traced)
        / statistics.median(i.scaled(i.wall_s) for i in plain)
    )
    layers["failed_points_ratio"] = bench.failed / max(bench.attempted, 1)
    tasks = [s["end"] - s["start"] for s in spans if s["name"] == "exec.execute_task"]
    tail = ledger.tail_percentile(tasks)
    for name in sorted(layers):
        print(f"{name:<34} {layers[name]:.6g}")
    print("exec.task_s tail: " + (
        f"p{tail[0]:.1f} = {tail[1]:.4f} s over {tail[2]} tasks" if tail
        else f"none ({len(tasks)} tasks, needs {ledger.TAIL_BEYOND + 1})"
    ))
    return layers


def declared_metrics(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.prepare()
        if args.trace:
            units = declared_metrics("per_layer")
            values = run_traced(bench, args.seconds)
        else:
            units = declared_metrics("end_to_end")
            values = run_untraced(bench, args.seconds, units)
            values["ok_points_ratio"] = 1.0 - bench.failed / max(bench.attempted, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"failed_points_ratio  {bench.failed / max(bench.attempted, 1):.4f} "
          f"({bench.failed} of {bench.attempted} points)")
    if bench.shape_failures:
        print(f"paper-shape checks failed: {bench.shape_failures} (statistical "
              "at the quick preset; they fail points only at the default seed)")
    for reason in bench.reasons:
        print(f"check failed: {reason}")
    correct = bench.failed == 0 and set(units) <= set(values)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
