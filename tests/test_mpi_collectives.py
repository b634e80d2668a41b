"""Collective-operation tests: barrier and rendezvous synchronisation."""

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


def test_collectives_in_same_order_do_not_deadlock():
    """Barriers and collective MPI-IO calls rendezvous by call-site
    sequence number, per kind: every rank completes every call."""
    system, w = make_world(4)
    block = 64 * 1024

    def prog(mpi):
        f = yield mpi.file_open("/nfs/order.dat", "w")
        for step in range(5):
            yield mpi.barrier()
            base = step * mpi.size * block
            yield f.write_at_all(base + mpi.rank * block, block)
            yield mpi.barrier()
            yield f.read_at_all(base + mpi.rank * block, block)
        yield f.close()
        return "done"

    values = system.env.run(w.run_program(prog))
    assert values == ["done"] * 4
    stats = w.iostats
    assert (stats.writes, stats.reads, stats.collective_ops) == (20, 20, 40)
