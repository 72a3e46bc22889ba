"""Node state machines of the cluster simulator.

Unlike the SAN model — which aggregates all compute nodes into one
unit — these classes run the paper's six-step protocol *per node*:
every compute node has its own state, its own exponential quiesce
time and its own share of its I/O group's dump link. Each fan-out
and fan-in costs one engine event, not one per node: a broadcast is
delivered to every node at once, the round's quiesce ends at the
maximum of the nodes' quiesce times, and each I/O group's dumps are
one transfer whose completion answers for the whole group. The
master collects the collective 'ready'/'done' counts and enforces
the timeout. This is the ground truth the aggregate model's
coordination law (max of n exponentials) is validated against.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional

from .protocol import Message, MessageType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import ClusterSimulator

__all__ = ["ComputeNodeState", "ComputeNode", "IONode", "MasterNode"]


class ComputeNodeState(enum.Enum):
    """Protocol state of one compute node."""

    EXECUTING = "executing"
    QUIESCING = "quiescing"
    READY = "ready"
    DUMPING = "dumping"
    WAITING_PROCEED = "waiting_proceed"
    DOWN = "down"


class ComputeNode:
    """One compute node's protocol state.

    The node holds no events of its own: the cluster moves every node
    through a round at once (:meth:`ClusterSimulator.receive
    <repro.cluster.simulator.ClusterSimulator.receive>`) and each I/O
    node runs its group's dump (:meth:`IONode.dump`).
    """

    __slots__ = ("node_id", "state", "epoch")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.state = ComputeNodeState.EXECUTING
        self.epoch = 0

    def fail(self) -> None:
        """The node crashed (the cluster handles the global rollback)."""
        self.state = ComputeNodeState.DOWN

    def restore(self) -> None:
        """Recovery finished: resume execution."""
        self.state = ComputeNodeState.EXECUTING


class IONode:
    """One I/O node: receives its group's checkpoint dumps, buffers
    them, and writes them back to the file system in the background."""

    def __init__(
        self, io_id: int, nodes: List[ComputeNode], cluster: "ClusterSimulator"
    ) -> None:
        self.io_id = io_id
        #: The compute nodes of this I/O node's group.
        self.nodes = nodes
        self.cluster = cluster
        self.buffered_epoch: Optional[int] = None
        self._pending_nodes = 0
        self._writeback_transfer = None
        self.down = False

    def dump(self, epoch: int) -> None:
        """'checkpoint' reached the group: its k nodes READY in
        ``epoch`` dump together, as one transfer of multiplicity k on
        the group's shared link."""
        nodes = [
            node for node in self.nodes
            if node.state is ComputeNodeState.READY and node.epoch == epoch
        ]
        if not nodes:
            return
        for node in nodes:
            node.state = ComputeNodeState.DUMPING
        self.cluster.dump_link(self.io_id).transfer(
            self.cluster.params.checkpoint_size_per_node,
            lambda: self._dump_complete(nodes, epoch),
            count=len(nodes),
        )

    def _dump_complete(self, nodes: List[ComputeNode], epoch: int) -> None:
        """The group's dumps drained: one 'done' speaks for all of them.
        (Rollback and abort cancel the transfer, so every node is still
        dumping in ``epoch``.)"""
        for node in nodes:
            node.state = ComputeNodeState.WAITING_PROCEED
        self.buffer_checkpoints(epoch, len(nodes))
        self.cluster.network.send(
            self.cluster.master,
            Message(MessageType.DONE, -1, epoch, count=len(nodes)),
        )

    def buffer_checkpoints(self, epoch: int, count: int) -> None:
        """``count`` compute nodes of this group finished their dump."""
        if self.down:
            return
        if self.buffered_epoch != epoch:
            self.buffered_epoch = epoch
            self._pending_nodes = 0
        self._pending_nodes += count

    def start_writeback(self, epoch: int, nbytes: float) -> None:
        """Write the buffered group checkpoint to the file system."""
        if self.down or self.buffered_epoch != epoch:
            return
        link = self.cluster.fs_link(self.io_id)
        self._writeback_transfer = link.transfer(
            nbytes, lambda: self._writeback_complete(epoch)
        )

    def _writeback_complete(self, epoch: int) -> None:
        self._writeback_transfer = None
        if self.down:
            return
        self.cluster.on_stream_complete(epoch)

    def fail(self) -> None:
        """The I/O node crashed: its buffer and stream are lost."""
        self.down = True
        self.buffered_epoch = None
        self._pending_nodes = 0
        if self._writeback_transfer is not None:
            self.cluster.fs_link(self.io_id).cancel(self._writeback_transfer)
            self._writeback_transfer = None

    def restore(self) -> None:
        """The I/O nodes restarted (empty buffers)."""
        self.down = False

    @property
    def holds_buffered_checkpoint(self) -> bool:
        """True when a complete group checkpoint sits in memory."""
        return (
            not self.down
            and self.buffered_epoch is not None
            and self._pending_nodes >= len(self.nodes)
        )


class MasterNode:
    """The checkpoint coordinator.

    Periodically initiates the protocol, collects 'ready' and 'done'
    responses, enforces the timeout, and measures the coordination
    time (QUIESCE broadcast → last READY) for the order-statistic
    validation.
    """

    def __init__(self, cluster: "ClusterSimulator") -> None:
        self.cluster = cluster
        self.epoch = 0
        self._ready = 0
        self._done = 0
        self._phase: Optional[MessageType] = None
        self._timer = None
        self._interval_event = None
        self._quiesce_broadcast_at = 0.0
        self.coordination_times = []
        self.aborts = 0
        self.rounds = 0

    # ------------------------------------------------------------------
    def schedule_next_checkpoint(self) -> None:
        """Arm the checkpoint-interval timer."""
        self.cancel_interval()
        self._interval_event = self.cluster.engine.schedule(
            self.cluster.params.checkpoint_interval, self.start_checkpoint
        )

    def cancel_interval(self) -> None:
        """Disarm the interval timer (failure/rollback)."""
        if self._interval_event is not None:
            self._interval_event.cancel()
            self._interval_event = None

    def start_checkpoint(self) -> None:
        """Step (1): broadcast 'quiesce' and arm the timeout."""
        self._interval_event = None
        if not self.cluster.application_running:
            return
        self.epoch += 1
        self.rounds += 1
        self._ready = 0
        self._done = 0
        self._phase = MessageType.QUIESCE
        self._quiesce_broadcast_at = self.cluster.engine.now
        self.cluster.begin_checkpoint_round(self.epoch)
        self.broadcast(MessageType.QUIESCE)
        timeout = self.cluster.params.timeout
        if timeout is not None:
            self._timer = self.cluster.engine.schedule(timeout, self._timed_out)

    def broadcast(self, kind: MessageType) -> None:
        """Send ``kind`` of the current round to every compute node."""
        self.cluster.network.broadcast([self.cluster], Message(kind, -1, self.epoch))

    def receive(self, message: Message) -> None:
        """Collect the collective 'ready' and 'done' counts."""
        if message.epoch != self.epoch:
            return
        if message.type is MessageType.READY and self._phase is MessageType.QUIESCE:
            self._ready += message.count
            if self._ready >= len(self.cluster.compute_nodes):
                self._all_ready()
        elif message.type is MessageType.DONE and self._phase is MessageType.CHECKPOINT:
            self._done += message.count
            if self._done >= len(self.cluster.compute_nodes):
                self._all_done()

    def _all_ready(self) -> None:
        """Step (3): every node is quiesced — broadcast 'checkpoint'."""
        self._disarm_timer()
        self.coordination_times.append(
            self.cluster.engine.now - self._quiesce_broadcast_at
        )
        self._phase = MessageType.CHECKPOINT
        self.broadcast(MessageType.CHECKPOINT)

    def _all_done(self) -> None:
        """Step (5): every node dumped — broadcast 'proceed'; the I/O
        nodes write back in the background."""
        self._phase = None
        self.broadcast(MessageType.PROCEED)
        self.cluster.complete_checkpoint_round(self.epoch)
        self.schedule_next_checkpoint()

    def _timed_out(self) -> None:
        """The timeout expired before coordination completed: abort."""
        self._timer = None
        if self._phase is not MessageType.QUIESCE:
            return
        self.aborts += 1
        self._phase = None
        self.broadcast(MessageType.ABORT)
        self.cluster.abort_checkpoint_round(self.epoch)
        self.schedule_next_checkpoint()

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def reset(self) -> None:
        """A failure reset the master to its initial state."""
        self._disarm_timer()
        self.cancel_interval()
        self._phase = None
        self._ready = 0
        self._done = 0
