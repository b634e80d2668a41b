"""Simulated-MPI tests: world construction, p2p, rendezvous."""

import pytest

from repro.iolib.aggregation import one_per_node
from repro.mpi.sim import Rendezvous
from repro.simengine import Environment
from conftest import small_config
from repro.clusters.builder import build_system


def make_world(nprocs=4, n_compute=2, placement="block"):
    system = build_system(Environment(), small_config(n_compute=n_compute))
    return system, system.world(nprocs, placement=placement)


class TestWorld:
    def test_rank_count(self):
        _, w = make_world(4)
        assert w.nprocs == 4
        assert [r.rank for r in w.ranks] == [0, 1, 2, 3]

    def test_block_placement(self):
        _, w = make_world(4, n_compute=2)
        names = [r.node.name for r in w.ranks]
        assert names == ["n0", "n0", "n1", "n1"]

    def test_round_robin_placement(self):
        _, w = make_world(4, n_compute=2, placement="round_robin")
        names = [r.node.name for r in w.ranks]
        assert names == ["n0", "n1", "n0", "n1"]

    def test_bad_placement_rejected(self):
        system = build_system(Environment(), small_config())
        with pytest.raises(ValueError):
            system.world(2, placement="diagonal")

    def test_nprocs_validation(self):
        system = build_system(Environment(), small_config())
        with pytest.raises(ValueError):
            system.world(0)

    def test_aggregator_ranks_one_per_node(self):
        _, w = make_world(4, n_compute=2)
        assert one_per_node([r.node.name for r in w.ranks]) == [0, 2]


class TestPointToPoint:
    def test_send_recv_payload(self):
        system, w = make_world(2)
        out = {}

        def prog(mpi):
            if mpi.rank == 0:
                yield mpi.send(1, 1024, tag=7, payload={"x": 1})
            else:
                data = yield mpi.recv(0, tag=7)
                out["data"] = data

        system.env.run(w.run_program(prog))
        assert out["data"] == {"x": 1}

    def test_send_takes_network_time(self):
        system, w = make_world(2)

        def prog(mpi):
            if mpi.rank == 0:
                yield mpi.send(1, 10 * 1024 * 1024)
            else:
                yield mpi.recv(0)

        system.env.run(w.run_program(prog))
        assert system.env.now > 0.05  # 10 MB over GbE

    def test_same_node_send_is_fast(self):
        system, w = make_world(2, n_compute=1)

        def prog(mpi):
            if mpi.rank == 0:
                yield mpi.send(1, 10 * 1024 * 1024)
            else:
                yield mpi.recv(0)

        system.env.run(w.run_program(prog))
        assert system.env.now < 0.05  # memcpy, not wire

    def test_tag_matching(self):
        system, w = make_world(2)
        out = []

        def prog(mpi):
            if mpi.rank == 0:
                yield mpi.send(1, 8, tag=2, payload="two")
                yield mpi.send(1, 8, tag=1, payload="one")
            else:
                one = yield mpi.recv(0, tag=1)
                two = yield mpi.recv(0, tag=2)
                out.extend([one, two])

        system.env.run(w.run_program(prog))
        assert out == ["one", "two"]

    def test_bad_destination_rejected(self):
        system, w = make_world(2)

        def prog(mpi):
            if mpi.rank == 0:
                mpi.send(5, 8)
            yield mpi.barrier()

        with pytest.raises(ValueError):
            system.env.run(w.run_program(prog))

    def test_isend_overlaps_compute(self):
        system, w = make_world(2)
        marks = {}

        def prog(mpi):
            if mpi.rank == 0:
                req = mpi.isend(1, 50 * 1024 * 1024)
                yield mpi.compute(seconds=0.2)
                marks["compute_done"] = mpi.now
                yield req
                marks["send_done"] = mpi.now
            else:
                yield mpi.recv(0)

        system.env.run(w.run_program(prog))
        # 50MB takes ~0.45s; compute finished first, overlapped
        assert marks["compute_done"] == pytest.approx(0.2, abs=0.01)
        assert marks["send_done"] > marks["compute_done"]

    @pytest.mark.parametrize("src", [5, 2, -1])
    def test_bad_source_rejected_at_call(self, src):
        _, w = make_world(2)
        with pytest.raises(ValueError, match="src"):
            w.ranks[0].recv(src)

    def test_negative_size_rejected_at_call(self):
        _, w = make_world(2)
        with pytest.raises(ValueError, match="nbytes"):
            w.ranks[0].send(1, -10000)
        with pytest.raises(ValueError, match="dst"):
            w.ranks[0].isend(2, 8)

    def test_point_to_point_starts_no_process(self, monkeypatch):
        import repro.simengine.core as core

        system, w = make_world(2)
        started = []
        init = core.Process.__init__

        def counting(self, env, generator, name=""):
            started.append(name)
            init(self, env, generator, name)

        monkeypatch.setattr(core.Process, "__init__", counting)

        def prog(mpi):
            for i in range(3):
                if mpi.rank == 0:
                    yield mpi.send(1, 64, payload=i)
                else:
                    yield mpi.recv(0)

        system.env.run(w.run_program(prog))
        assert started == ["mpi.r0", "mpi.r1"]

    def test_transfer_failure_reaches_sender(self, monkeypatch):
        system, w = make_world(2)
        env = system.env
        net = system.cluster.comm_network

        def broken(src, dst, nbytes, count=1, order_key=None):
            return env.event().fail(ConnectionError("link down"))

        monkeypatch.setattr(net, "transfer", broken)
        caught = []

        def prog(mpi):
            if mpi.rank == 0:
                try:
                    yield mpi.isend(1, 1024)
                except ConnectionError as exc:
                    caught.append((str(exc), mpi.now))

        env.run(w.run_program(prog))
        assert caught == [("link down", 0.0)]


class TestRendezvous:
    def test_last_arriver_flagged(self):
        env = Environment()
        rv = Rendezvous(env, 3)
        p0, last0 = rv.arrive("x", 0, "a")
        p1, last1 = rv.arrive("x", 1, "b")
        p2, last2 = rv.arrive("x", 2, "c")
        assert (last0, last1, last2) == (False, False, True)
        assert p0 is p1 is p2
        assert p2.all_arrived.value == {0: "a", 1: "b", 2: "c"}

    def test_sequence_numbers_separate_call_sites(self):
        env = Environment()
        rv = Rendezvous(env, 2)
        pa, _ = rv.arrive("x", 0)
        pb, _ = rv.arrive("x", 0)  # rank 0's second call site
        assert pa is not pb
        pa2, last = rv.arrive("x", 1)
        assert pa2 is pa and last

    def test_kinds_are_independent(self):
        env = Environment()
        rv = Rendezvous(env, 2)
        pa, _ = rv.arrive("barrier", 0)
        pb, _ = rv.arrive("bcast", 0)
        assert pa is not pb


class TestCompute:
    def test_compute_seconds(self):
        system, w = make_world(1)

        def prog(mpi):
            yield mpi.compute(seconds=1.5)

        system.env.run(w.run_program(prog))
        assert system.env.now == pytest.approx(1.5)

    def test_compute_flops_uses_node_rate(self):
        system, w = make_world(1)
        node = w.ranks[0].node

        def prog(mpi):
            yield mpi.compute(flops=node.spec.core_gflops * 1e9)

        system.env.run(w.run_program(prog))
        assert system.env.now == pytest.approx(1.0)


def test_run_program_collects_return_values():
    system, w = make_world(3)

    def prog(mpi):
        yield mpi.compute(seconds=0.01)
        return mpi.rank * 10

    values = system.env.run(w.run_program(prog))
    assert values == [0, 10, 20]
