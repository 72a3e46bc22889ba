"""Figure-process bootstrap: run the repro CLI under the benchmark's hooks.

    python perfbench/hooks.py MARK_FILE TRACE_DIR -- <repro CLI arguments>

``run.py`` spawns this in a fresh interpreter with ``src`` on
``PYTHONPATH``; the CLI receives only the arguments after ``--``.

In every run one hook writes ``time.monotonic()`` to ``MARK_FILE``
when the figure's work starts, i.e. at the first entry into
``run_sweep`` (sweep figures) or ``ClusterBackend.evaluate`` (the
custom coordination-law figure). It is the only hook when
``TRACE_DIR`` is ``-``.

Otherwise wrappers around the public function at each layer boundary
record spans in memory. The figure process writes
``TRACE_DIR/spans-<pid>.json`` when the CLI returns. Pool workers are
forked from it with an empty span list; the pool terminates them
without running exit hooks, so each rewrites its own file after every
task it executes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_MAIN_PID = os.getpid()


class Recorder:
    """Spans of this process, kept in memory until :meth:`dump`."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.reset()

    def reset(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: Dict[int, Dict[str, Any]] = {}
        self._stack: List[int] = []
        self._next = 0

    def open(self, name: str) -> int:
        self._next += 1
        self._open[self._next] = {
            "id": self._next,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.monotonic(),
            "pid": os.getpid(),
        }
        self._stack.append(self._next)
        return self._next

    def close(self, span_id: int, attrs: Optional[Dict[str, Any]]) -> None:
        span = self._open.pop(span_id)
        span["end"] = time.monotonic()
        span["attrs"] = attrs or {}
        # A generator span (executor drain) may close while a span its
        # consumer opened is still on the stack, so remove by value.
        self._stack.remove(span_id)
        self.spans.append(span)

    def dump(self) -> None:
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        os.replace(path + ".tmp", path)


def _traced(recorder: Recorder, name: str, fn: Callable,
            attrs_of: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
            flush_in_worker: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(span, {"error": type(exc).__name__})
            raise
        recorder.close(span, attrs_of(args, result) if attrs_of else None)
        if flush_in_worker and os.getpid() != _MAIN_PID:
            recorder.dump()
        return result

    return wrapper


def _traced_generator(recorder: Recorder, name: str, fn: Callable,
                      attrs_of: Callable[[tuple], Dict[str, Any]]) -> Callable:
    """A span from the first ``next()`` until the generator is done."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            recorder.close(span, attrs_of(args))

    return wrapper


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module attribute that is ``original``.

    Callers that did ``from .system import build_system`` hold their
    own binding, so patching the defining module alone would miss
    them. Returns the number of bindings replaced.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _patch_function(module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(module, attr)
    if not replace_everywhere(original, make(original)):
        raise RuntimeError(f"no binding of {module.__name__}.{attr} found")


def _kernel_attrs(args: tuple, output: Any) -> Dict[str, Any]:
    stats = output.kernel_stats
    return {
        "events": stats.events,
        "heap_pushes": stats.heap_pushes,
        "stale_pops": stats.stale_pops,
        "enabled_checks": stats.enabled_checks,
        "enabled_checks_skipped": stats.enabled_checks_skipped,
        "resamples": stats.resamples,
    }


def _cache_put_attrs(args: tuple, path: str) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(path)}


def install_tracing(recorder: Recorder) -> None:
    """Wrap the layer boundaries the per-layer ledger reads."""
    import repro.experiments.cli  # noqa: F401  (loads every layer)
    from repro.backends.cache import ResultCache
    from repro.backends.cluster import ClusterBackend
    from repro.backends.san_sim import SanSimulationBackend
    from repro.cluster.simulator import ClusterSimulator
    from repro.core import system
    from repro.exec import task
    from repro.exec.pool import PoolExecutor
    from repro.exec.serial import SerialExecutor
    from repro.experiments import archive, figures, runner, validation
    from repro.obs import manifest
    from repro.san import statistics
    from repro.san.simulator import Simulator

    def wrap(name, attrs_of=None, flush_in_worker=False):
        return lambda fn: _traced(recorder, name, fn, attrs_of, flush_in_worker)

    for module, attr, make in (
        (figures, "run_figure", wrap("experiments.run_figure")),
        (runner, "run_sweep", wrap("experiments.run_sweep")),
        (archive, "save_figure", wrap("experiments.save_figure")),
        (validation, "validate_figure", wrap(
            "experiments.validate_figure",
            lambda args, checks: {"failed": sum(not c.passed for c in checks)},
        )),
        (manifest, "write_manifest", wrap("obs.write_manifest")),
        # Resolved at call time and pickled by name, so forked pool
        # workers run this wrapper too.
        (task, "execute_task", wrap("exec.execute_task", flush_in_worker=True)),
        (system, "build_system", wrap("core.build_system")),
        (statistics, "confidence_interval", wrap("san.confidence_interval")),
    ):
        _patch_function(module, attr, make)

    for cls, workers in ((SerialExecutor, lambda ex: 1),
                         (PoolExecutor, lambda ex: ex.processes)):
        cls.drain = _traced_generator(
            recorder, "exec.drain", cls.drain,
            lambda args, workers=workers: {"workers": workers(args[0])},
        )
    SanSimulationBackend.evaluate = _traced(
        recorder, "backends.evaluate", SanSimulationBackend.evaluate,
        lambda args, result: {"layer": "san"},
    )
    ClusterBackend.evaluate = _traced(
        recorder, "backends.evaluate", ClusterBackend.evaluate,
        lambda args, result: {"layer": "cluster"},
    )
    ResultCache.get = _traced(recorder, "backends.cache_get", ResultCache.get)
    ResultCache.put = _traced(
        recorder, "backends.cache_put", ResultCache.put, _cache_put_attrs
    )
    Simulator.run = _traced(recorder, "san.run", Simulator.run, _kernel_attrs)
    ClusterSimulator.run = _traced(
        recorder, "cluster.run", ClusterSimulator.run,
        lambda args, result: {"events": result.events},
    )
    os.register_at_fork(after_in_child=recorder.reset)


def install_mark(mark_file: str) -> None:
    """Write the clock to ``mark_file`` when the figure's work starts."""
    import repro.experiments.cli  # noqa: F401
    from repro.backends.cluster import ClusterBackend
    from repro.experiments import runner

    marked = []

    def marking(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not marked:
                marked.append(time.monotonic())
                with open(mark_file, "w", encoding="utf-8") as handle:
                    handle.write(repr(marked[0]))
            return fn(*args, **kwargs)

        return wrapper

    _patch_function(runner, "run_sweep", marking)
    ClusterBackend.evaluate = marking(ClusterBackend.evaluate)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mark_file, trace_dir, cli_args = argv[0], argv[1], argv[3:]
    recorder: Optional[Recorder] = None
    if trace_dir != "-":
        recorder = Recorder(trace_dir)
        install_tracing(recorder)
    install_mark(mark_file)
    from repro.experiments.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
