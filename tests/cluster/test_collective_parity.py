"""Bit-identity of the cluster simulator against recorded digests.

Each case runs :class:`~repro.cluster.ClusterSimulator` with a memory
trace sink and hashes everything the run reports: every
:class:`~repro.cluster.ClusterResult` field except ``events`` (the
engine's event count is an implementation detail) plus the full
``cluster.protocol`` trace, times and fields included, via their
exact ``repr``. The digests in ``collective_parity.json`` were
recorded with the per-node implementation (one engine event per node
per protocol step), so a match proves the collective protocol events
reproduce it bit for bit. The matrix covers the paths where batching
could drift: failures mid-round, I/O failures mid-dump with
application-data loss, timeout aborts mid-quiesce, quiesce requests
waiting out an application I/O phase, ``compute_fraction=1``, node
counts that leave a partial I/O group, and the 8192-node default.

Print the digests of the current code with
``PYTHONPATH=src python tests/cluster/test_collective_parity.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import ClusterSimulator
from repro.core import HOUR, YEAR, ModelParameters
from repro.obs.trace import MemorySink
from repro.san.rng import StreamRegistry

FIXTURE = Path(__file__).with_name("collective_parity.json")


def _nodes(n_nodes, **overrides):
    base = dict(
        n_processors=n_nodes * 8,
        processors_per_node=8,
        mttf_node=100_000 * YEAR,
    )
    base.update(overrides)
    return base


#: name -> (parameter overrides, seed, hours)
CASES = {
    "n64": (_nodes(64), 1, 40.0),
    "n256": (_nodes(256), 2, 40.0),
    "n1024": (_nodes(1024), 3, 20.0),
    "compute-failures-mid-round": (
        _nodes(256, mttf_node=0.01 * YEAR), 4, 100.0,
    ),
    # Eight groups of eight with 8 GB dumps: I/O failures land
    # mid-quiesce and mid-dump, and some lose application data.
    "io-failures-mid-dump-app-loss": (
        _nodes(
            64,
            mttf_node=0.01 * YEAR,
            compute_nodes_per_io_node=8,
            checkpoint_size_per_node=8e9,
            compute_fraction=0.5,
            app_io_cycle_period=600.0,
            app_io_data_per_node=500e6,
        ),
        5, 400.0,
    ),
    "timeout-aborts": (_nodes(256, timeout=40.0), 7, 150.0),
    "quiesce-waits-app-io": (
        _nodes(
            128,
            mttf_node=0.05 * YEAR,
            compute_fraction=0.5,
            app_io_cycle_period=600.0,
            checkpoint_interval=1700.0,
        ),
        8, 60.0,
    ),
    "compute-fraction-1": (
        _nodes(256, mttf_node=0.05 * YEAR, compute_fraction=1.0), 9, 60.0,
    ),
    "n100-partial-group": (_nodes(100, mttf_node=0.02 * YEAR), 10, 60.0),
    "n130-partial-group": (_nodes(130, mttf_node=0.02 * YEAR), 11, 60.0),
    "default-8192": ({}, 3, 20.0),
}


def digest(name):
    """sha256 of one case's result fields (minus ``events``) and trace."""
    overrides, seed, hours = CASES[name]
    sink = MemorySink()
    result = ClusterSimulator(
        ModelParameters(**overrides), seed=seed, sink=sink
    ).run(duration=hours * HOUR)
    fields = dataclasses.asdict(result)
    del fields["events"]
    trace = [(e.time, e.kind, e.name, e.fields) for e in sink.events]
    payload = repr((sorted(fields.items()), trace))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_vector_quiesce_draw_equals_scalar_draws():
    # The quiesce fan-in draws a round's delays in one call; the
    # digests hold only if that equals one draw per node, bit for bit.
    vector = StreamRegistry(5).get("cluster/quiesce")
    scalar = StreamRegistry(5).get("cluster/quiesce")
    for size in (1, 64, 5000):
        drawn = vector.exponential(10.0, size=size).tolist()
        assert drawn == [float(scalar.exponential(10.0)) for _ in range(size)]


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_per_node_protocol(name):
    assert digest(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in CASES}, indent=2))
