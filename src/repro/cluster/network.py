"""Network primitives: latency messaging and bandwidth-shared links.

Two abstractions back the cluster simulator:

* :class:`Network` — delivers protocol messages with configurable
  latency; broadcasts model the hardware broadcast tree (one latency
  to every destination, as in BlueGene/L, delivered by one engine
  event) and unicasts add the software transmission overhead.
* :class:`SharedLink` — a processor-sharing bandwidth pipe: concurrent
  transfers share the capacity equally (64 compute nodes dumping
  256 MB each through their group's 350 MB/s link all complete at the
  aggregate time, matching the SAN model's deterministic dump
  latency). Equal transfers admitted together enter as one entry of
  multiplicity ``count``.

The link runs on *virtual time*: it tracks one scalar — the cumulative
per-transfer service ``S`` (bytes any always-active transfer would have
received) — advancing it by ``bandwidth / k * dt`` whenever the
composition changes. A transfer admitted at ``S0`` with ``n`` bytes
finishes exactly when ``S`` reaches ``S0 + n``, so start/cancel/finish
cost O(log k) (a heap keyed by finish-``S``, with cancelled entries
discarded lazily) instead of the former O(k) remaining-work rescan of
every in-flight transfer on every composition change.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from .engine import Engine, EventHandle

__all__ = ["Network", "SharedLink", "Transfer"]

#: Completion slack, expressed in *time*: a transfer whose residual
#: completion delay is below this fraction of the current clock is
#: treated as done. The progress arithmetic (rate * dt) can leave
#: floating-point remainders whose rescheduled delay underflows the
#: simulation clock (now + delay == now), so the slack sits a few
#: orders of magnitude above double-precision ulp while staying far
#: below any physically meaningful interval — it never rounds real
#: payload out of a small transfer (work conservation).
COMPLETION_EPSILON_REL = 1e-12


class Network:
    """Latency-only message fabric."""

    def __init__(
        self,
        engine: Engine,
        broadcast_latency: float,
        message_latency: float,
    ) -> None:
        if broadcast_latency < 0 or message_latency < 0:
            raise ValueError("latencies must be >= 0")
        self._engine = engine
        self.broadcast_latency = broadcast_latency
        self.message_latency = message_latency
        self.messages_sent = 0

    def send(self, receiver: Any, message: Any) -> None:
        """Unicast with the software transmission latency; the receiver
        gets ``receiver.receive(message)``."""
        self.messages_sent += 1
        self._engine.schedule(self.message_latency, receiver.receive, message)

    def broadcast(self, receivers: List[Any], message: Any) -> None:
        """Hardware-tree broadcast: one latency to all destinations,
        one engine event delivering to every receiver in order."""
        self.messages_sent += len(receivers)
        self._engine.schedule(self.broadcast_latency, _deliver, receivers, message)


def _deliver(receivers: List[Any], message: Any) -> None:
    for receiver in receivers:
        receiver.receive(message)


class Transfer:
    """One in-flight transfer on a :class:`SharedLink`.

    ``virtual_start``/``virtual_finish`` are the link's virtual-time
    coordinates: the transfer is done when the link's cumulative
    per-transfer service reaches ``virtual_finish``. ``count`` equal
    transfers of ``nbytes`` each share the entry (and its callback).
    """

    __slots__ = (
        "nbytes",
        "count",
        "on_complete",
        "cancelled",
        "done",
        "virtual_start",
        "virtual_finish",
        "_link",
        "_frozen_remaining",
    )

    def __init__(
        self, nbytes: float, on_complete: Callable[[], None], count: int = 1
    ) -> None:
        self.nbytes = float(nbytes)
        self.count = count
        self.on_complete = on_complete
        self.cancelled = False
        self.done = False
        self.virtual_start = 0.0
        self.virtual_finish = self.nbytes
        self._link: Optional["SharedLink"] = None
        self._frozen_remaining: Optional[float] = None

    @property
    def remaining(self) -> float:
        """Bytes still to deliver per copy (frozen at cancellation time
        for a cancelled transfer, 0 once complete)."""
        if self.done:
            return 0.0
        if self._frozen_remaining is not None:
            return self._frozen_remaining
        link = self._link
        if link is None:
            return self.nbytes
        link._advance()
        return max(0.0, self.virtual_finish - link._virtual)

    def cancel(self) -> None:
        """Abandon the transfer (its callback never runs).

        Prefer :meth:`SharedLink.cancel`, which also releases this
        transfer's bandwidth share immediately; this method alone marks
        the transfer dead and lets the link notice lazily.
        """
        if not self.cancelled and not self.done:
            self._frozen_remaining = self.remaining
            self.cancelled = True


class SharedLink:
    """A processor-sharing link of fixed total bandwidth.

    ``k`` concurrent transfers each progress at ``bandwidth / k``; the
    link recomputes the next completion whenever a transfer starts,
    finishes or is cancelled. Used for the compute→I/O dump channels
    and the I/O→file-system channels.
    """

    def __init__(self, engine: Engine, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self._engine = engine
        self.bandwidth = float(bandwidth)
        #: Cumulative per-transfer service, in bytes (virtual time).
        self._virtual = 0.0
        self._n_active = 0
        #: Finish-order heap of (virtual_finish, seq, transfer); entries
        #: for cancelled transfers are discarded lazily on pop.
        self._finish_heap: List[Tuple[float, int, Transfer]] = []
        self._sequence = 0
        self._last_update = engine.now
        self._completion_event: Optional[EventHandle] = None
        #: Bytes fully accounted for (completed + cancelled transfers).
        self._banked_bytes = 0.0

    # ------------------------------------------------------------------
    def transfer(
        self, nbytes: float, on_complete: Callable[[], None], count: int = 1
    ) -> Transfer:
        """Start ``count`` transfers of ``nbytes`` each as one entry
        (exactly ``count`` single admissions at this instant);
        ``on_complete`` runs once, when their last byte arrives."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._advance()
        item = Transfer(nbytes, on_complete, count)
        item._link = self
        item.virtual_start = self._virtual
        item.virtual_finish = self._virtual + item.nbytes
        self._n_active += count
        self._sequence += 1
        heapq.heappush(
            self._finish_heap, (item.virtual_finish, self._sequence, item)
        )
        self._reschedule()
        return item

    def cancel(self, item: Transfer) -> None:
        """Abort an in-flight transfer and release its bandwidth share
        immediately."""
        if item.cancelled or item.done:
            return
        self._advance()
        progressed = min(item.nbytes, max(0.0, self._virtual - item.virtual_start))
        item._frozen_remaining = item.nbytes - progressed
        item.cancelled = True
        self._banked_bytes += progressed * item.count
        self._n_active -= item.count
        self._reschedule()

    def cancel_all(self) -> None:
        """Abort every in-flight transfer (e.g. the I/O nodes failed)."""
        self._advance()
        for _, _, item in self._finish_heap:
            if item.cancelled or item.done:
                continue
            progressed = min(
                item.nbytes, max(0.0, self._virtual - item.virtual_start)
            )
            item._frozen_remaining = item.nbytes - progressed
            item.cancelled = True
            self._banked_bytes += progressed * item.count
        self._n_active = 0
        del self._finish_heap[:]
        self._reschedule()

    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers (each copy counts)."""
        return self._n_active

    @property
    def bytes_delivered(self) -> float:
        """Total bytes moved so far (completed, cancelled-partial, and
        live-partial progress)."""
        self._advance()
        live = sum(
            min(item.nbytes, max(0.0, self._virtual - item.virtual_start))
            * item.count
            for _, _, item in self._finish_heap
            if not item.cancelled and not item.done
        )
        return self._banked_bytes + live

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Advance virtual time to the present — O(1), no per-transfer
        work; every live transfer's progress is implied by ``_virtual``."""
        now = self._engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt > 0 and self._n_active:
            self._virtual += self.bandwidth * dt / self._n_active

    def _reschedule(self) -> None:
        """(Re)schedule the engine event for the next completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        heap = self._finish_heap
        while heap and (heap[0][2].cancelled or heap[0][2].done):
            heapq.heappop(heap)
        if not heap:
            return
        delay = (
            (heap[0][0] - self._virtual) * self._n_active / self.bandwidth
        )
        self._completion_event = self._engine.schedule(max(0.0, delay), self._complete)

    def _complete(self) -> None:
        """Finish every transfer whose bytes have drained."""
        self._completion_event = None
        self._advance()
        heap = self._finish_heap
        finished: List[Transfer] = []
        # Residual virtual-bytes whose rescheduled delay would vanish
        # under the current clock: delay = residual * k / bandwidth.
        byte_eps = (
            max(abs(self._engine.now), 1.0)
            * COMPLETION_EPSILON_REL
            * self.bandwidth
            / max(1, self._n_active)
        )
        threshold = self._virtual + byte_eps
        while heap:
            virtual_finish, _, item = heap[0]
            if item.cancelled or item.done:
                heapq.heappop(heap)
                continue
            if virtual_finish > threshold:
                break
            heapq.heappop(heap)
            finished.append(item)
        if not finished:
            # Guard against clock underflow: this event was scheduled
            # for the earliest finisher, so at least that transfer is
            # done up to floating-point noise. Finish it (and any peer
            # within the same noise band) despite the residual.
            forced_threshold: Optional[float] = None
            while heap:
                virtual_finish, _, item = heap[0]
                if item.cancelled or item.done:
                    heapq.heappop(heap)
                    continue
                if forced_threshold is None:
                    forced_threshold = virtual_finish + byte_eps
                elif virtual_finish > forced_threshold:
                    break
                heapq.heappop(heap)
                finished.append(item)
        for item in finished:
            item.done = True
            self._banked_bytes += item.nbytes * item.count
            self._n_active -= item.count
        self._reschedule()
        for item in finished:
            item.on_complete()
