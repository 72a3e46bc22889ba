"""Measure how fast the host lets a figure run, and keep it on the
quieter core.

On a shared host each core slows down by up to 2× for seconds at a
time when a neighbour loads it, and the cores do so independently.
The figure's CPU time slows with them, so neither wall nor CPU time
of one run says how fast the program is. While a figure runs,
:class:`SpeedMeter` times the same short piece of interpreter work
(the probe) on every core, every ``PERIOD_S`` seconds. It keeps the
probe times of the cores the figure ran on, and it pins a serial
figure to the core that ran the probe fastest. :func:`scaled` turns a
time measured alongside into seconds of a core that runs the probe in
``REFERENCE_PROBE_S``: the same work gives the same scaled time
however loaded the host was.

The probe on the figure's own core preempts it for about 1 % of the
time, and a move to another core costs a few cold caches; both are
the same on every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Dict, List, Optional

#: Seconds between two probes of every core.
PERIOD_S = 0.25
#: Another core must run the probe this much faster to move the figure
#: there, so that probe noise alone does not move it back and forth.
HYSTERESIS = 0.9
#: CPU seconds the probe takes on an unloaded core of the 2-vCPU Intel
#: Xeon host the bounds were set on. It fixes the unit of scaled times.
REFERENCE_PROBE_S = 3.0e-3


def probe_work() -> int:
    """About 3 ms of interpreter work on an unloaded core."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(30000):
        total += i * i % 7
        table[i & 63] = total
    return total + len(table)


def time_on(cpu: int) -> float:
    """CPU seconds :func:`probe_work` takes with the calling thread pinned to
    ``cpu``. CPU time, not wall time: on the figure's core the probe
    also waits for the figure's time slice, which says nothing about
    the core's speed. A host that slows the core slows both alike."""
    os.sched_setaffinity(0, {cpu})
    start = time.thread_time()
    probe_work()
    return time.thread_time() - start


def choose(current: Optional[int], times: Dict[int, float]) -> int:
    """The core to run on next, given each core's probe time."""
    best = min(times, key=times.__getitem__)
    if current is None or current not in times:
        return best
    return best if times[best] < HYSTERESIS * times[current] else current


def scaled(seconds: float, probes: List[float]) -> float:
    """``seconds`` of running at the speeds ``probes`` show, as seconds
    at the reference speed: ``seconds`` × mean(reference ÷ probe)."""
    if not probes:
        return seconds
    return seconds * statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class SpeedMeter:
    """Background thread that probes every core while the ``with``
    block runs.

    With ``pin`` it pins ``pid`` to the quietest core and ``probes``
    holds the probe times of the core the figure was on; without, the
    figure uses every core and ``probes`` holds all probe times.
    """

    def __init__(self, pid: int, pin: bool) -> None:
        self.pid = pid
        self.pin = pin
        self.cpus = sorted(os.sched_getaffinity(0))
        self.current: Optional[int] = None
        self.probes: List[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()

    def _loop(self) -> None:
        try:
            while not self._done.is_set():
                times = {cpu: time_on(cpu) for cpu in self.cpus}
                if not self.pin:
                    self.probes += times.values()
                else:
                    cpu = choose(self.current, times)
                    if cpu != self.current:
                        os.sched_setaffinity(self.pid, {cpu})
                        self.current = cpu
                    self.probes.append(times[cpu])
                self._done.wait(PERIOD_S)
        except OSError:
            pass  # the figure process has exited
