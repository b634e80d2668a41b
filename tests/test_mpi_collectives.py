"""Collective-operation tests: synchronisation semantics and cost shapes."""

from repro.simengine import Environment
from repro.clusters.builder import build_system
from conftest import small_config


def make_world(nprocs=4, n_compute=4):
    system = build_system(Environment(), small_config(n_compute=n_compute))
    return system, system.world(nprocs)


def test_barrier_synchronises_ranks():
    system, w = make_world(4)
    after = {}

    def prog(mpi):
        yield mpi.compute(seconds=0.1 * (mpi.rank + 1))  # staggered arrivals
        yield mpi.barrier()
        after[mpi.rank] = mpi.now

    system.env.run(w.run_program(prog))
    times = list(after.values())
    assert max(times) - min(times) < 1e-6
    assert min(times) >= 0.4  # slowest rank gates everyone


def test_bcast_delivers_root_payload():
    system, w = make_world(4)
    got = {}

    def prog(mpi):
        payload = {"cfg": 42} if mpi.rank == 2 else None
        data = yield mpi.bcast(2, 4096, payload)
        got[mpi.rank] = data

    system.env.run(w.run_program(prog))
    assert all(v == {"cfg": 42} for v in got.values())


def test_bcast_cost_grows_with_size():
    def run_one(nbytes):
        system, w = make_world(4)

        def prog(mpi):
            yield mpi.bcast(0, nbytes, b"" if mpi.rank == 0 else None)

        system.env.run(w.run_program(prog))
        return system.env.now

    assert run_one(10 * 1024 * 1024) > run_one(1024)


def test_allreduce_slower_than_barrier():
    def run_coll(which):
        system, w = make_world(4)

        def prog(mpi):
            if which == "barrier":
                yield mpi.barrier()
            else:
                yield mpi.allreduce(1024 * 1024)

        system.env.run(w.run_program(prog))
        return system.env.now

    assert run_coll("allreduce") > run_coll("barrier")


def test_gather_serialises_at_root_link():
    system, w = make_world(4)

    def prog(mpi):
        yield mpi.gather(0, 10 * 1024 * 1024)

    system.env.run(w.run_program(prog))
    net = system.cluster.comm_network
    # three senders' bytes all crossed the root's downlink
    root = w.node_of(0).name
    assert net.downlinks[root].bytes_carried >= 3 * 10 * 1024 * 1024


def test_allgather_moves_p_minus_1_blocks_per_rank():
    system, w = make_world(4)

    def prog(mpi):
        yield mpi.allgather(1024 * 1024)

    system.env.run(w.run_program(prog))
    net = system.cluster.comm_network
    total = sum(l.bytes_carried for l in net.uplinks.values())
    assert total >= 4 * 3 * 1024 * 1024 * 0.9


def test_alltoall_completes_and_scales():
    def run_one(p):
        system, w = make_world(p, n_compute=4)

        def prog(mpi):
            yield mpi.alltoall(256 * 1024)

        system.env.run(w.run_program(prog))
        return system.env.now

    assert run_one(8) > run_one(2)


def test_reduce_charges_arithmetic():
    system, w = make_world(2)

    def prog(mpi):
        yield mpi.reduce(0, 8 * 1024 * 1024)

    system.env.run(w.run_program(prog))
    assert system.env.now > 0


def test_collectives_in_same_order_do_not_deadlock():
    system, w = make_world(4)

    def prog(mpi):
        for _ in range(5):
            yield mpi.barrier()
            yield mpi.bcast(0, 64, None if mpi.rank else b"x")
            yield mpi.allreduce(64)
        return "done"

    values = system.env.run(w.run_program(prog))
    assert values == ["done"] * 4
