"""Node / Cluster hardware-container tests."""

import pytest

from repro.simengine import Environment
from repro.hardware import (
    Cluster,
    GIGABIT,
    Network,
    Node,
    NodeSpec,
    RAIDConfig,
    RAIDLevel,
)
from repro.storage.base import GiB, MiB


def test_node_defaults():
    env = Environment()
    n = Node(env, "x")
    assert n.array is None


def test_node_with_storage():
    env = Environment()
    n = Node(env, "x", storage=RAIDConfig(level=RAIDLevel.JBOD, ndisks=1))
    assert n.array is not None
    assert n.array.capacity_bytes > 0


def test_compute_time_scales_with_flops():
    env = Environment()
    n = Node(env, "x", NodeSpec(core_gflops=2.0))
    assert n.compute_time(2e9) == pytest.approx(1.0)
    assert n.compute_time(4e9) == pytest.approx(2.0)


def test_memcpy_time():
    env = Environment()
    n = Node(env, "x", NodeSpec(memcpy_Bps=1000.0 * MiB))
    assert n.memcpy_time(500 * MiB) == pytest.approx(0.5)


def test_cluster_networks_shared_flag():
    env = Environment()
    c = Cluster(env)
    net = Network(env, ["a", "b"], GIGABIT)
    c.set_networks(net)
    assert c.shared_network
    c2 = Cluster(env)
    c2.set_networks(net, Network(env, ["a", "b"], GIGABIT))
    assert not c2.shared_network


def test_cluster_compute_nodes_skip_io_prefix():
    env = Environment()
    c = Cluster(env)
    c.add_node(Node(env, "n0"))
    c.add_node(Node(env, "ionode"))
    names = [n.name for n in c.compute_nodes()]
    assert names == ["n0"]
