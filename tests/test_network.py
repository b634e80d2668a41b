"""Network model tests: serialisation, latency, contention, duplex."""

import pytest

from repro.simengine import Environment
from repro.hardware.network import GIGABIT, LinkSpec, Network
from repro.storage.base import MiB


def make_net(env, names=("a", "b", "srv")):
    return Network(env, list(names), GIGABIT)


def test_effective_bandwidth_below_line_rate():
    assert GIGABIT.bandwidth_Bps < GIGABIT.raw_bandwidth_Bps


@pytest.mark.parametrize("latency", [-1e-6, float("nan")])
def test_bad_link_latency_rejected(latency):
    with pytest.raises(ValueError, match="latency"):
        LinkSpec(latency_s=latency)


def test_single_transfer_near_wire_speed():
    env = Environment()
    net = make_net(env)
    env.run(net.transfer("a", "srv", 100 * MiB))
    rate = 100 * MiB / env.now
    assert rate == pytest.approx(GIGABIT.bandwidth_Bps, rel=0.05)


def test_small_message_dominated_by_latency():
    env = Environment()
    net = make_net(env)
    env.run(net.transfer("a", "b", 64))
    assert env.now >= GIGABIT.latency_s


def test_many_to_one_shares_receiver_downlink():
    env = Environment()
    net = make_net(env)
    e1 = net.transfer("a", "srv", 50 * MiB)
    e2 = net.transfer("b", "srv", 50 * MiB)
    env.run(env.all_of([e1, e2]))
    agg = 100 * MiB / env.now
    assert agg == pytest.approx(GIGABIT.bandwidth_Bps, rel=0.10)


def test_disjoint_pairs_run_in_parallel():
    env = Environment()
    net = Network(env, ["a", "b", "c", "d"], GIGABIT)
    e1 = net.transfer("a", "b", 50 * MiB)
    e2 = net.transfer("c", "d", 50 * MiB)
    env.run(env.all_of([e1, e2]))
    agg = 100 * MiB / env.now
    assert agg == pytest.approx(2 * GIGABIT.bandwidth_Bps, rel=0.10)


def test_full_duplex_opposite_directions():
    env = Environment()
    net = make_net(env)
    e1 = net.transfer("a", "b", 50 * MiB)
    e2 = net.transfer("b", "a", 50 * MiB)
    env.run(env.all_of([e1, e2]))
    agg = 100 * MiB / env.now
    assert agg == pytest.approx(2 * GIGABIT.bandwidth_Bps, rel=0.10)


def test_local_transfer_never_touches_fabric():
    env = Environment()
    net = make_net(env)
    env.run(net.transfer("a", "a", 100 * MiB))
    assert net.uplinks["a"].bytes_carried == 0
    assert env.now < 100 * MiB / GIGABIT.bandwidth_Bps


def test_bulk_message_count_charges_per_message_cpu():
    env1 = Environment()
    net1 = make_net(env1)
    env1.run(net1.transfer("a", "b", 1024, count=1000))
    env2 = Environment()
    net2 = make_net(env2)
    env2.run(net2.transfer("a", "b", 1024 * 1000, count=1))
    assert env1.now > env2.now  # per-message overhead


def test_unknown_endpoint_rejected():
    env = Environment()
    net = make_net(env)
    with pytest.raises(KeyError):
        net.transfer("a", "nope", 1)


def test_duplicate_endpoint_rejected():
    with pytest.raises(ValueError):
        Network(Environment(), ["x", "x"])


def test_invalid_transfer_geometry():
    env = Environment()
    net = make_net(env)
    with pytest.raises(ValueError, match="nbytes"):
        net.transfer("a", "b", -100000)
    with pytest.raises(ValueError, match="count"):
        net.transfer("a", "b", 10, count=0)
    env.run()
    for link in (net.uplinks["a"], net.downlinks["b"]):
        assert (link.busy_s, link.bytes_carried, link.messages) == (0.0, 0, 0)


def test_estimate_point_to_point_close_to_simulated():
    env = Environment()
    net = make_net(env)
    spec = net.spec
    est = spec.latency_s + spec.per_message_cpu_s + 10 * MiB / spec.bandwidth_Bps
    env.run(net.transfer("a", "b", 10 * MiB))
    assert est == pytest.approx(env.now, rel=0.15)


def test_link_utilization_tracked():
    env = Environment()
    net = make_net(env)
    env.run(net.transfer("a", "b", 10 * MiB))
    assert 0.5 < net.uplinks["a"].busy_s / env.now <= 1.0
