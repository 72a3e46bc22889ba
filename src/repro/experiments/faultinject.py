"""Deterministic fault injection for the sweep runner.

The paper studies what happens when failures strike *during*
checkpointing; this module lets the test suite (and the CI smoke job)
do the same to the harness itself. A :class:`FaultPlan` is attached to
:class:`~repro.experiments.resilience.ResilienceOptions` and injects,
deterministically by point index and attempt number:

* **crashes** — the worker raises :class:`InjectedCrash` before
  simulating, exercising the retry/backoff path;
* **hangs** — the worker sleeps past the supervisor's point timeout,
  exercising hang detection and pool replacement;
* **aborts** — the supervisor raises :class:`SweepAborted` after the
  k-th completed point has been stored in the result cache,
  simulating the sweep process being killed mid-run (the resume
  path's test vector).

:meth:`FaultPlan.sampled` draws crash and hang points at given
fractions from stable hashes; the ``repro chaos`` CLI subcommand runs
a figure under such a plan and asserts the archive still matches a
clean run.

Everything here is picklable: the plans ride into worker processes
inside the task arguments.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "SweepAborted",
]


class InjectedCrash(RuntimeError):
    """An artificial worker failure raised by a :class:`FaultPlan`."""


class SweepAborted(RuntimeError):
    """The supervisor was told to die mid-sweep (simulated kill)."""


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    Attributes
    ----------
    crashes:
        ``point index -> attempts`` on which the worker raises
        :class:`InjectedCrash`.
    hangs:
        ``point index -> attempts`` on which the worker sleeps for
        ``hang_seconds`` before proceeding.
    hang_seconds:
        How long an injected hang sleeps. Pick it well above the
        supervisor's ``point_timeout`` to model a genuine hang, or
        below it to model a slow-but-successful point.
    abort_after:
        Raise :class:`SweepAborted` in the supervisor once this many
        points have completed in the current run.
    """

    crashes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hangs: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    abort_after: Optional[int] = None

    # -- construction helpers (chainable) ------------------------------
    @classmethod
    def sampled(
        cls,
        n_points: int,
        crash: float = 0.0,
        hang: float = 0.0,
        hang_seconds: float = 3600.0,
        salt: str = "",
    ) -> "FaultPlan":
        """A plan afflicting a deterministic share of ``n_points``.

        Point ``i`` crashes when the hash of ``(salt, "crash", i)``
        falls below ``crash`` and hangs for ``hang_seconds`` when the
        hash of ``(salt, "hang", i)`` falls below ``hang``, both on
        attempt 0 only — so one retry recovers every afflicted point.
        The same arguments pick the same points in every run and
        process; vary ``salt`` to draw another pattern.
        """
        for name, fraction in (("crash", crash), ("hang", hang)):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"{name} fraction must be in [0, 1], got {fraction}"
                )
        plan = cls(hang_seconds=float(hang_seconds))
        for index in range(n_points):
            if _unit_interval(f"fault/{salt}/crash/{index}") < crash:
                plan.crash(index)
            if _unit_interval(f"fault/{salt}/hang/{index}") < hang:
                plan.hang(index)
        return plan

    def crash(self, index: int, attempts: Sequence[int] = (0,)) -> "FaultPlan":
        """Crash the given point on the given attempt numbers."""
        self.crashes[index] = tuple(attempts)
        return self

    def hang(
        self,
        index: int,
        attempts: Sequence[int] = (0,),
        seconds: Optional[float] = None,
    ) -> "FaultPlan":
        """Hang the given point on the given attempt numbers."""
        self.hangs[index] = tuple(attempts)
        if seconds is not None:
            self.hang_seconds = float(seconds)
        return self

    def abort_after_points(self, count: int) -> "FaultPlan":
        """Kill the sweep after ``count`` completed points."""
        self.abort_after = int(count)
        return self

    # -- hooks ----------------------------------------------------------
    def before_point(self, index: int, attempt: int) -> None:
        """Worker-side hook, called before a point is simulated."""
        if attempt in self.hangs.get(index, ()):
            time.sleep(self.hang_seconds)
        if attempt in self.crashes.get(index, ()):
            raise InjectedCrash(
                f"injected crash at point {index}, attempt {attempt}"
            )

    def after_success(self, completed_count: int) -> None:
        """Supervisor-side hook, called after a point completes."""
        if self.abort_after is not None and completed_count >= self.abort_after:
            raise SweepAborted(
                f"injected abort after {completed_count} completed point(s)"
            )


def _unit_interval(token: str) -> float:
    """A deterministic value in ``[0, 1)`` hashed from ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64
