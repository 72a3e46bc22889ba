"""Unit tests for the node state machines, driven through the
collective handlers: one broadcast reaches every compute node, each
I/O group dumps as one transfer."""

import pytest

from repro.cluster import ClusterSimulator, ComputeNodeState, Message, MessageType
from repro.core import HOUR, MB, YEAR, ModelParameters


def make_cluster(n_nodes=64, **overrides):
    defaults = dict(
        n_processors=n_nodes * 8,
        processors_per_node=8,
        mttf_node=100_000 * YEAR,
        mttq=10.0,
    )
    defaults.update(overrides)
    return ClusterSimulator(ModelParameters(**defaults), seed=1)


def drain(cluster, until=None):
    cluster.engine.run(until=until)


def broadcast(cluster, kind, epoch):
    """Deliver one master broadcast to every compute node at once."""
    cluster.receive(Message(kind, -1, epoch=epoch))


class TestComputeNodeStateMachine:
    def test_quiesce_then_ready(self):
        cluster = make_cluster()
        broadcast(cluster, MessageType.QUIESCE, 1)
        assert {n.state for n in cluster.compute_nodes} == {
            ComputeNodeState.QUIESCING
        }
        # One fan-in event for the whole round, at the largest delay.
        assert cluster.engine.pending == 1
        drain(cluster, until=1000.0)
        assert {n.state for n in cluster.compute_nodes} == {
            ComputeNodeState.READY
        }

    def test_quiesce_ignored_unless_executing(self):
        cluster = make_cluster()
        node = cluster.compute_nodes[0]
        node.state = ComputeNodeState.DUMPING
        broadcast(cluster, MessageType.QUIESCE, 1)
        assert node.state is ComputeNodeState.DUMPING
        assert cluster.compute_nodes[1].state is ComputeNodeState.QUIESCING
        drain(cluster, until=1000.0)
        assert node.state is ComputeNodeState.DUMPING

    def test_checkpoint_requires_ready_and_epoch(self):
        cluster = make_cluster()
        broadcast(cluster, MessageType.QUIESCE, 1)
        drain(cluster, until=1000.0)
        # Wrong epoch: dropped.
        broadcast(cluster, MessageType.CHECKPOINT, 2)
        assert cluster.compute_nodes[0].state is ComputeNodeState.READY
        broadcast(cluster, MessageType.CHECKPOINT, 1)
        assert {n.state for n in cluster.compute_nodes} == {
            ComputeNodeState.DUMPING
        }
        # The group's 64 dumps are one transfer of multiplicity 64.
        link = cluster.dump_link(0)
        assert link.active_transfers == 64
        assert len(link._finish_heap) == 1

    def test_abort_returns_to_execution(self):
        cluster = make_cluster()
        broadcast(cluster, MessageType.QUIESCE, 1)
        broadcast(cluster, MessageType.ABORT, 1)
        assert {n.state for n in cluster.compute_nodes} == {
            ComputeNodeState.EXECUTING
        }
        # The pending quiesce fan-in must be dead: nothing happens later.
        drain(cluster, until=1000.0)
        assert cluster.engine.event_count == 0
        assert {n.state for n in cluster.compute_nodes} == {
            ComputeNodeState.EXECUTING
        }

    def test_down_node_ignores_messages(self):
        cluster = make_cluster()
        node = cluster.compute_nodes[0]
        node.fail()
        broadcast(cluster, MessageType.QUIESCE, 1)
        assert node.state is ComputeNodeState.DOWN
        broadcast(cluster, MessageType.ABORT, 1)
        assert node.state is ComputeNodeState.DOWN
        node.restore()
        assert node.state is ComputeNodeState.EXECUTING

    def test_dump_completion_notifies_master_and_io(self):
        cluster = make_cluster(n_nodes=1)
        node = cluster.compute_nodes[0]
        cluster.master.epoch = 1
        cluster.master._phase = MessageType.CHECKPOINT
        cluster.begin_checkpoint_round(1)
        node.epoch = 1
        node.state = ComputeNodeState.READY
        broadcast(cluster, MessageType.CHECKPOINT, 1)
        # Partway through the dump (0.73 s for one 256 MB node) the
        # node waits; after PROCEED it executes again.
        drain(cluster, until=0.5)
        assert node.state is ComputeNodeState.DUMPING
        drain(cluster, until=100.0)
        assert node.state is ComputeNodeState.EXECUTING
        assert cluster.io_nodes[0].holds_buffered_checkpoint
        assert cluster.filesystem.commits == 1

    def test_group_dump_completes_at_aggregate_time(self):
        # Two groups (64 + 36 nodes): each group's completion answers
        # for all its nodes with one 'done' of that count.
        cluster = make_cluster(n_nodes=100)
        cluster.master.epoch = 1
        cluster.master._phase = MessageType.CHECKPOINT
        for node in cluster.compute_nodes:
            node.epoch = 1
            node.state = ComputeNodeState.READY
        broadcast(cluster, MessageType.CHECKPOINT, 1)
        size, bandwidth = 256 * MB, 350 * MB
        drain(cluster, until=36 * size / bandwidth + 0.01)
        assert cluster.master._done == 36
        assert {n.state for n in cluster.io_nodes[1].nodes} == {
            ComputeNodeState.WAITING_PROCEED
        }
        assert cluster.io_nodes[0].nodes[0].state is ComputeNodeState.DUMPING
        drain(cluster, until=64 * size / bandwidth + 0.01)
        assert cluster.master.epoch == 1 and cluster.master._phase is None
        assert all(io.holds_buffered_checkpoint for io in cluster.io_nodes)


class TestMasterStateMachine:
    def test_full_round_without_failures(self):
        cluster = make_cluster(n_nodes=8)
        cluster.master.schedule_next_checkpoint()
        drain(cluster, until=2 * HOUR)
        assert cluster.master.rounds >= 1
        assert cluster.master.aborts == 0
        assert len(cluster.master.coordination_times) == cluster.master.rounds

    def test_timeout_aborts_round(self):
        cluster = make_cluster(n_nodes=64, timeout=5.0)  # MTTQ 10 s >> 5 s
        cluster.master.schedule_next_checkpoint()
        drain(cluster, until=2 * HOUR)
        assert cluster.master.aborts == cluster.master.rounds
        # All nodes resumed execution after the aborts.
        assert all(
            node.state is ComputeNodeState.EXECUTING
            for node in cluster.compute_nodes
        )

    def test_stale_ready_ignored(self):
        cluster = make_cluster(n_nodes=2)
        cluster.master.epoch = 3
        cluster.master._phase = MessageType.QUIESCE
        cluster.master.receive(Message(MessageType.READY, 0, epoch=2))
        assert cluster.master._ready == 0

    def test_ready_counts_add_up(self):
        cluster = make_cluster(n_nodes=64)
        cluster.master.epoch = 1
        cluster.master._phase = MessageType.QUIESCE
        cluster.master.receive(Message(MessageType.READY, -1, epoch=1, count=63))
        assert cluster.master._phase is MessageType.QUIESCE
        cluster.master.receive(Message(MessageType.READY, -1, epoch=1, count=1))
        assert cluster.master._phase is MessageType.CHECKPOINT

    def test_reset_disarms_everything(self):
        cluster = make_cluster(n_nodes=8)
        cluster.master.schedule_next_checkpoint()
        cluster.master.reset()
        drain(cluster, until=2 * HOUR)
        # No interval timer survives a reset: no rounds ever start.
        assert cluster.master.rounds == 0


class TestIONodeStateMachine:
    def test_buffer_requires_all_group_nodes(self):
        cluster = make_cluster(n_nodes=64)  # one full group of 64
        io_node = cluster.io_nodes[0]
        io_node.buffer_checkpoints(epoch=1, count=63)
        assert not io_node.holds_buffered_checkpoint
        io_node.buffer_checkpoints(epoch=1, count=1)
        assert io_node.holds_buffered_checkpoint

    def test_new_epoch_resets_buffer_progress(self):
        cluster = make_cluster(n_nodes=64)
        io_node = cluster.io_nodes[0]
        io_node.buffer_checkpoints(epoch=1, count=64)
        io_node.buffer_checkpoints(epoch=2, count=1)
        assert not io_node.holds_buffered_checkpoint

    def test_failure_clears_buffer(self):
        cluster = make_cluster(n_nodes=64)
        io_node = cluster.io_nodes[0]
        io_node.buffer_checkpoints(epoch=1, count=64)
        io_node.fail()
        assert not io_node.holds_buffered_checkpoint
        io_node.restore()
        assert not io_node.holds_buffered_checkpoint  # memory stays empty

    def test_down_io_node_drops_buffers(self):
        cluster = make_cluster(n_nodes=64)
        io_node = cluster.io_nodes[0]
        io_node.fail()
        io_node.buffer_checkpoints(epoch=1, count=64)
        assert io_node.buffered_epoch is None
