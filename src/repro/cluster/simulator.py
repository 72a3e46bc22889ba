"""The message-level cluster simulator facade.

:class:`ClusterSimulator` wires per-node state machines
(:mod:`repro.cluster.nodes`), bandwidth-shared links, a parallel file
system and failure injection into a runnable system executing the
paper's actual protocol per node. It reports the same headline metric
as the SAN model (useful work fraction) plus the per-round
coordination-time samples used to validate the Section 5 order
statistic.

Scope: the cluster simulator covers the protocol and I/O paths,
including the BSP application's compute/I-O phase cycle (when
``compute_fraction < 1``): quiesce requests landing in an I/O phase
wait for the phase to finish (non-preemptible writes), completed I/O
phases queue background application-data writes on the file-system
links, and an I/O-node failure during such a write rolls the
application back. Any I/O-node failure during an active checkpoint
round aborts that round. Each protocol fan-out and fan-in is one
engine event, not one per node, so a round costs O(I/O groups) events
and BlueGene/L scale (tens of thousands of nodes) is practical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.parameters import ModelParameters
from ..obs import metrics as obs_metrics
from ..obs.trace import TraceSink, default_sink
from ..san.rng import StreamRegistry
from .engine import Engine
from .filesystem import ParallelFileSystem
from .network import Network, SharedLink
from .nodes import ComputeNode, ComputeNodeState, IONode, MasterNode
from .protocol import Message, MessageType

__all__ = ["ClusterSimulator", "ClusterResult"]


@dataclass
class ClusterResult:
    """Metrics of one cluster-simulator run."""

    duration: float
    useful_work: float
    coordination_times: List[float] = field(default_factory=list)
    rounds: int = 0
    aborts: int = 0
    commits: int = 0
    failures: int = 0
    io_failures: int = 0
    recoveries: int = 0
    app_data_losses: int = 0
    events: int = 0

    @property
    def useful_work_fraction(self) -> float:
        """Useful work per unit time."""
        return self.useful_work / self.duration if self.duration > 0 else 0.0

    @property
    def mean_coordination_time(self) -> float:
        """Average QUIESCE-broadcast → last-READY latency."""
        if not self.coordination_times:
            return 0.0
        return float(np.mean(self.coordination_times))


class ClusterSimulator:
    """Per-node simulation of the coordinated checkpoint protocol.

    Parameters
    ----------
    params:
        The system configuration (node counts are derived exactly as
        in the SAN model).
    seed:
        Root seed for the failure/quiesce random streams.
    sink:
        Observability sink receiving ``cluster.protocol`` lifecycle
        events (quiesce, proceed, abort, failure, recovery). Defaults
        to the process sink (:func:`repro.obs.trace.default_sink`) —
        a :class:`~repro.obs.trace.NullSink` unless a driver installed
        one. Lifecycle events are per-round/per-failure, never
        per-engine-event, so the hot path is untouched.
    """

    def __init__(
        self,
        params: ModelParameters,
        seed: int = 0,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self.params = params
        self.sink = sink if sink is not None else default_sink()
        self.engine = Engine()
        self.network = Network(
            self.engine,
            broadcast_latency=params.broadcast_overhead,
            message_latency=params.software_overhead,
        )
        streams = StreamRegistry(seed)
        self._quiesce_rng = streams.get("cluster/quiesce")
        self._failure_rng = streams.get("cluster/failures")
        self._recovery_rng = streams.get("cluster/recovery")

        n_io = params.n_io_nodes
        per_group = params.compute_nodes_per_io_node
        self.compute_nodes = [ComputeNode(i) for i in range(params.n_nodes)]
        self.io_nodes = [
            IONode(i, self.compute_nodes[i * per_group:(i + 1) * per_group], self)
            for i in range(n_io)
        ]
        self._dump_links = [
            SharedLink(self.engine, params.bandwidth_compute_to_io) for _ in range(n_io)
        ]
        self._fs_links = [
            SharedLink(self.engine, params.bandwidth_io_to_fs) for _ in range(n_io)
        ]
        self.master = MasterNode(self)
        self.filesystem = ParallelFileSystem()

        # Work accounting (global: the BSP application progresses as one
        # unit; accrual pauses from the QUIESCE broadcast to PROCEED).
        self._accruing = True
        self._last_accrual = 0.0
        self.useful_work = 0.0
        self._captured_work: Dict[int, float] = {}
        self._committed_work = 0.0
        self._recovering = False
        self._io_restarting = False
        self._round_active = False
        self._quiesce_event = None
        self._recovery_event = None

        self.failure_count = 0
        self.io_failure_count = 0
        self.recovery_count = 0
        self.app_data_losses = 0

        # BSP application phase cycle (compute_fraction < 1): the
        # compute phase only progresses while the application accrues
        # work; the I/O phase is non-preemptible and runs to the end.
        self._app_phase = "compute"
        self._app_phase_event = None
        self._app_io_event = None
        self._app_compute_remaining = params.app_compute_phase
        self._app_io_ends_at = 0.0
        self._app_writes_in_flight = 0

    # ------------------------------------------------------------------
    # The compute nodes' side of the protocol: one event per fan-in
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """A master broadcast reaches every compute node at once."""
        kind, epoch = message.type, message.epoch
        if kind is MessageType.QUIESCE:
            self._quiesce(epoch)
        elif kind is MessageType.CHECKPOINT:
            for io_node in self.io_nodes:
                io_node.dump(epoch)
        elif kind is MessageType.PROCEED:
            waiting = ComputeNodeState.WAITING_PROCEED
            for node in self.compute_nodes:
                if node.state is waiting and node.epoch == epoch:
                    node.state = ComputeNodeState.EXECUTING
        elif kind is MessageType.ABORT:
            self._cancel_protocol()
            for node in self.compute_nodes:
                if node.state is not ComputeNodeState.DOWN and node.epoch == epoch:
                    node.state = ComputeNodeState.EXECUTING

    def _quiesce(self, epoch: int) -> None:
        """Every executing node starts to quiesce; one event at the
        largest delay ends the fan-in. A delay is the node's exponential
        quiesce time (one vector draw, in node order) plus the wait for
        a non-preemptible application I/O phase (Section 3.3)."""
        nodes = [
            node for node in self.compute_nodes
            if node.state is ComputeNodeState.EXECUTING
        ]
        if not nodes:
            return
        for node in nodes:
            node.epoch = epoch
            node.state = ComputeNodeState.QUIESCING
        extra = 0.0
        if self._app_enabled and self._app_phase == "io":
            extra = max(0.0, self._app_io_ends_at - self.engine.now)
        delays = extra + self._quiesce_rng.exponential(
            self.params.mttq, size=len(nodes)
        )
        self._quiesce_event = self.engine.schedule(
            float(delays.max()), self._quiesced, nodes, epoch
        )

    def _quiesced(self, nodes: List[ComputeNode], epoch: int) -> None:
        """The last node quiesced: one 'ready' speaks for all of them.
        (Rollback and abort cancel this event, so every node is still
        quiescing in ``epoch``.)"""
        self._quiesce_event = None
        for node in nodes:
            node.state = ComputeNodeState.READY
        self.network.send(
            self.master, Message(MessageType.READY, -1, epoch, count=len(nodes))
        )

    def _cancel_protocol(self) -> None:
        """Drop the round's pending quiesce fan-in and group dumps."""
        if self._quiesce_event is not None:
            self._quiesce_event.cancel()
            self._quiesce_event = None
        for link in self._dump_links:
            link.cancel_all()

    def dump_link(self, group: int) -> SharedLink:
        """The compute→I/O shared link of one group."""
        return self._dump_links[group]

    def fs_link(self, io_id: int) -> SharedLink:
        """The I/O→file-system link of one I/O node."""
        return self._fs_links[io_id]

    @property
    def application_running(self) -> bool:
        """True while the compute nodes are up (protocol phases
        included; recovery and reboot excluded)."""
        return not self._recovering

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def _accrue(self) -> None:
        now = self.engine.now
        if self._accruing:
            self.useful_work += now - self._last_accrual
        self._last_accrual = now

    def _set_accruing(self, accruing: bool) -> None:
        self._accrue()
        self._accruing = accruing
        if not self._app_enabled:
            return
        if accruing:
            # The application resumes at a safe point in its compute
            # phase (matching the SAN model's app reset semantics).
            if self._app_phase != "io":
                self._start_app_compute_phase()
        else:
            self._cancel_app_compute_phase()

    # ------------------------------------------------------------------
    # BSP application phase cycle
    # ------------------------------------------------------------------
    @property
    def _app_enabled(self) -> bool:
        return self.params.compute_fraction < 1.0

    def _cancel_app_compute_phase(self) -> None:
        if self._app_phase_event is not None:
            self._app_phase_event.cancel()
            self._app_phase_event = None

    def _start_app_compute_phase(self) -> None:
        self._cancel_app_compute_phase()
        self._app_phase = "compute"
        self._app_phase_event = self.engine.schedule(
            self.params.app_compute_phase, self._app_compute_phase_end
        )

    def _app_compute_phase_end(self) -> None:
        self._app_phase_event = None
        self._app_phase = "io"
        self._app_io_ends_at = self.engine.now + self.params.app_io_phase
        # The I/O phase is non-preemptible: it runs to its end even if
        # a quiesce broadcast arrives meanwhile.
        self._app_io_event = self.engine.schedule(
            self.params.app_io_phase, self._app_io_phase_end
        )

    def _reset_app_phase(self) -> None:
        """A rollback discards the in-progress application phase."""
        self._cancel_app_compute_phase()
        if self._app_io_event is not None:
            self._app_io_event.cancel()
            self._app_io_event = None
        self._app_phase = "compute"
        self._app_writes_in_flight = 0

    def _app_io_phase_end(self) -> None:
        self._app_io_event = None
        self._app_phase = "compute"
        # Queue the background write of the phase's application data.
        nbytes = self.params.app_io_data_per_node
        for io_node in self.io_nodes:
            if io_node.down:
                continue
            self._app_writes_in_flight += 1
            self.fs_link(io_node.io_id).transfer(
                nbytes * len(io_node.nodes), self._app_write_complete
            )
        if self._accruing:
            self._start_app_compute_phase()

    def _app_write_complete(self) -> None:
        self._app_writes_in_flight = max(0, self._app_writes_in_flight - 1)

    @property
    def _buffered_work(self) -> Optional[float]:
        """Work level of a cluster-wide buffered checkpoint, if every
        I/O node holds the same complete epoch."""
        epochs = set()
        for node in self.io_nodes:
            if not node.holds_buffered_checkpoint:
                return None
            epochs.add(node.buffered_epoch)
        if len(epochs) != 1:
            return None
        return self._captured_work.get(epochs.pop())

    @property
    def _recovery_point(self) -> float:
        buffered = self._buffered_work
        if buffered is not None:
            return max(buffered, self._committed_work)
        return self._committed_work

    # ------------------------------------------------------------------
    # Checkpoint round lifecycle (called by the master)
    # ------------------------------------------------------------------
    def begin_checkpoint_round(self, epoch: int) -> None:
        """QUIESCE broadcast: application progress pauses; the captured
        work level of this round is the work accrued so far."""
        self._set_accruing(False)
        self._round_active = True
        self._captured_work[epoch] = self.useful_work
        self._prune_captures(keep=epoch)
        self.sink.emit(
            self.engine.now, "cluster.protocol", "quiesce",
            epoch=epoch, work=self.useful_work,
        )

    def complete_checkpoint_round(self, epoch: int) -> None:
        """All nodes dumped: resume execution and start the background
        write-back of every group's checkpoint."""
        self._round_active = False
        self._set_accruing(True)
        self.sink.emit(
            self.engine.now, "cluster.protocol", "proceed", epoch=epoch,
        )
        nbytes = self.params.checkpoint_size_per_node
        captured = self._captured_work.setdefault(epoch, self.useful_work)
        self.filesystem.begin_generation(
            epoch, captured, streams=len(self.io_nodes)
        )
        for io_node in self.io_nodes:
            io_node.start_writeback(epoch, nbytes * len(io_node.nodes))

    def abort_checkpoint_round(self, epoch: int) -> None:
        """The master timed out: abandon the round; the previous
        checkpoint stays valid."""
        self._round_active = False
        self._captured_work.pop(epoch, None)
        self._set_accruing(True)
        self.sink.emit(
            self.engine.now, "cluster.protocol", "abort", epoch=epoch,
        )

    def on_stream_complete(self, epoch: int) -> None:
        """One I/O node finished its write-back stream."""
        if self.filesystem.stream_complete(epoch):
            self._committed_work = max(
                self._committed_work, self.filesystem.committed_work_level
            )

    def _prune_captures(self, keep: int, window: int = 8) -> None:
        stale = [e for e in self._captured_work if e < keep - window]
        for e in stale:
            del self._captured_work[e]

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def _schedule_next_compute_failure(self) -> None:
        rate = self.params.compute_failure_rate
        delay = float(self._failure_rng.exponential(1.0 / rate))
        self.engine.schedule(delay, self._compute_failure)

    def _schedule_next_io_failure(self) -> None:
        rate = self.params.io_failure_rate
        delay = float(self._failure_rng.exponential(1.0 / rate))
        self.engine.schedule(delay, self._io_failure)

    def _compute_failure(self) -> None:
        self._schedule_next_compute_failure()
        self.failure_count += 1
        self.sink.emit(
            self.engine.now, "cluster.protocol", "compute_failure",
            during_recovery=self._recovering,
        )
        if self._recovering:
            # Failure during recovery: the attempt restarts.
            self._start_recovery()
            return
        # Roll the whole application back to the last checkpoint.
        self._roll_back()
        self._recovering = True
        self._start_recovery()

    def _roll_back(self) -> None:
        self._accrue()
        self.useful_work = min(self.useful_work, self._recovery_point)
        self._set_accruing(False)
        self._reset_app_phase()
        self.master.reset()
        self._round_active = False
        self._cancel_protocol()
        for node in self.compute_nodes:
            node.fail()

    def _start_recovery(self) -> None:
        # A failure during recovery restarts the attempt: drop the old
        # completion event before scheduling the new one.
        if self._recovery_event is not None:
            self._recovery_event.cancel()
        stage1 = 0.0
        if self._buffered_work is None:
            stage1 = self.params.checkpoint_fs_read_time
        stage2 = float(self._recovery_rng.exponential(self.params.mttr))
        self._recovery_event = self.engine.schedule(
            stage1 + stage2, self._recovery_complete
        )

    def _recovery_complete(self) -> None:
        if not self._recovering:
            return
        self._recovering = False
        self.recovery_count += 1
        self.sink.emit(
            self.engine.now, "cluster.protocol", "recovery",
            work=self.useful_work,
        )
        for node in self.compute_nodes:
            node.restore()
        self._set_accruing(True)
        self.master.schedule_next_checkpoint()

    def _io_failure(self) -> None:
        self._schedule_next_io_failure()
        if self._io_restarting:
            return
        self.io_failure_count += 1
        self.sink.emit(
            self.engine.now, "cluster.protocol", "io_failure",
            round_active=self._round_active,
        )
        self._io_restarting = True
        self.filesystem.abort_open_generation()
        app_writes_lost = self._app_writes_in_flight > 0
        for node in self.io_nodes:
            node.fail()
        for link in self._fs_links:
            link.cancel_all()
        self._app_writes_in_flight = 0
        if app_writes_lost and not self._recovering:
            # Application data lost mid-write: the results are gone and
            # the whole computation rolls back (Section 4).
            self.app_data_losses += 1
            self._roll_back()
            self._recovering = True
            self._start_recovery()
        if self._round_active:
            # Nodes mid-dump lost their target buffers: the master
            # aborts the round (compute nodes are otherwise unaffected).
            self._cancel_protocol()
            self._abort_round_due_to_io()
        restart = float(self._recovery_rng.exponential(self.params.mttr_io))
        self.engine.schedule(restart, self._io_restart_complete)

    def _abort_round_due_to_io(self) -> None:
        self.master.aborts += 1
        self.master.broadcast(MessageType.ABORT)
        self.master.reset()
        self.abort_checkpoint_round(self.master.epoch)
        if not self._recovering:
            self.master.schedule_next_checkpoint()

    def _io_restart_complete(self) -> None:
        self._io_restarting = False
        for node in self.io_nodes:
            node.restore()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, duration: float) -> ClusterResult:
        """Simulate for ``duration`` seconds and return the metrics."""
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.master.schedule_next_checkpoint()
        self._schedule_next_compute_failure()
        self._schedule_next_io_failure()
        if self._app_enabled:
            self._start_app_compute_phase()
        self.engine.run(until=duration)
        self._accrue()
        # Per-run (not per-event) metrics, mirroring the SAN executive.
        reg = obs_metrics.registry()
        reg.counter("cluster.runs").inc()
        reg.counter("cluster.events").inc(self.engine.event_count)
        reg.counter("cluster.rounds").inc(self.master.rounds)
        reg.counter("cluster.failures").inc(
            self.failure_count + self.io_failure_count
        )
        return ClusterResult(
            duration=duration,
            useful_work=self.useful_work,
            coordination_times=list(self.master.coordination_times),
            rounds=self.master.rounds,
            aborts=self.master.aborts,
            commits=self.filesystem.commits,
            failures=self.failure_count,
            io_failures=self.io_failure_count,
            recoveries=self.recovery_count,
            app_data_losses=self.app_data_losses,
            events=self.engine.event_count,
        )
