"""MPI-IO tests: opens, independent vs collective, two-phase, hints."""

import pytest

from repro.simengine import Environment
from repro.storage.base import KiB, MiB
from repro.clusters.builder import build_system
from repro.tracing import IOTracer
from conftest import small_config


def make_world(nprocs=4, n_compute=2, io_hints=None, tracer=None):
    system = build_system(Environment(), small_config(n_compute=n_compute))
    return system, system.world(nprocs, io_hints=io_hints, tracer=tracer)


class TestOpen:
    def test_collective_open_shares_inode_on_nfs(self):
        system, w = make_world(4)
        inodes = {}

        def prog(mpi):
            f = yield mpi.file_open("/nfs/shared.dat", "w")
            inodes[mpi.rank] = f.inode
            yield f.close()

        system.env.run(w.run_program(prog))
        assert len({id(i) for i in inodes.values()}) == 1

    def test_collective_open_local_creates_per_node_files(self):
        system, w = make_world(4, n_compute=2)
        inodes = {}

        def prog(mpi):
            f = yield mpi.file_open("/local/out.dat", "w")
            inodes[mpi.rank] = f.inode
            yield f.close()

        system.env.run(w.run_program(prog))
        # ranks on the same node share; across nodes they differ
        assert inodes[0] is inodes[1]
        assert inodes[0] is not inodes[2]

    def test_open_self_unique_files(self):
        system, w = make_world(2)

        def prog(mpi):
            f = yield mpi.file_open_self(f"/nfs/u{mpi.rank}.dat", "w")
            yield f.write_at(0, 64 * KiB)
            yield f.close_self()

        system.env.run(w.run_program(prog))
        assert system.export.exists("/nfs/u0.dat")
        assert system.export.exists("/nfs/u1.dat")

    def test_read_mode_keeps_existing_data(self):
        system, w = make_world(2)
        sizes = {}

        def writer(mpi):
            f = yield mpi.file_open("/nfs/data.dat", "w")
            yield f.write_at(0, 1 * MiB)
            yield f.close()

        def reader(mpi):
            f = yield mpi.file_open("/nfs/data.dat", "r")
            sizes[mpi.rank] = f.size
            yield f.close()

        system.env.run(w.run_program(writer))
        w2 = system.world(2)
        system.env.run(w2.run_program(reader))
        assert sizes[0] == 1 * MiB


class TestIndependent:
    def test_write_then_read_roundtrip(self):
        system, w = make_world(2)
        got = {}

        def prog(mpi):
            f = yield mpi.file_open("/nfs/i.dat", "w")
            n = yield f.write_at(mpi.rank * MiB, 1 * MiB)
            got[("w", mpi.rank)] = n
            yield mpi.barrier()
            n = yield f.read_at(mpi.rank * MiB, 1 * MiB)
            got[("r", mpi.rank)] = n
            yield f.close()

        system.env.run(w.run_program(prog))
        assert got[("w", 0)] == MiB and got[("r", 1)] == MiB

    def test_sparse_independent_slower_than_dense(self):
        def run_one(sparse):
            system, w = make_world(2)

            def prog(mpi):
                f = yield mpi.file_open("/nfs/i.dat", "w")
                if sparse:
                    yield f.write_at(0, 2 * KiB, count=512, stride=8 * KiB)
                else:
                    yield f.write_at(0, 1 * MiB)
                yield f.close()

            system.env.run(w.run_program(prog))
            return system.env.now

        assert run_one(sparse=True) > 3 * run_one(sparse=False)


class TestCollective:
    def test_write_at_all_produces_large_server_ops(self):
        tracer = IOTracer()
        system, w = make_world(4, tracer=tracer)

        def prog(mpi):
            f = yield mpi.file_open("/nfs/c.dat", "w")
            yield f.write_at_all(mpi.rank * MiB, 1 * MiB)
            yield f.close()

        system.env.run(w.run_program(prog))
        assert system.export.stat("/nfs/c.dat").size == 4 * MiB
        evs = [e for e in tracer.events if e.op == "write"]
        assert all(e.collective for e in evs)
        assert len(evs) == 4

    def test_collective_faster_than_independent_for_small_strided(self):
        def run_one(collective):
            system, w = make_world(4)

            def prog(mpi):
                f = yield mpi.file_open("/nfs/c.dat", "w")
                if collective:
                    yield f.write_at_all(mpi.rank * 256 * KiB, 2 * KiB, count=128, stride=2 * KiB)
                else:
                    yield f.write_at(mpi.rank * 256 * KiB, 2 * KiB, count=128, stride=4 * KiB)
                yield f.close()

            system.env.run(w.run_program(prog))
            return system.env.now

        assert run_one(True) < run_one(False)

    def test_collective_disabled_hint_falls_back_to_independent(self):
        tracer = IOTracer()
        system, w = make_world(2, io_hints={"collective": False}, tracer=tracer)

        def prog(mpi):
            f = yield mpi.file_open("/nfs/c.dat", "w")
            yield f.write_at_all(mpi.rank * MiB, 1 * MiB)
            yield f.close()

        system.env.run(w.run_program(prog))
        assert all(not e.collective for e in tracer.events if e.op == "write")

    def test_cb_nodes_hint_limits_aggregators(self):
        system, w = make_world(4, n_compute=2, io_hints={"cb_nodes": 1})

        def prog(mpi):
            f = yield mpi.file_open("/nfs/c.dat", "w")
            yield f.write_at_all(mpi.rank * MiB, 1 * MiB)
            yield f.close()

        system.env.run(w.run_program(prog))
        assert system.export.stat("/nfs/c.dat").size == 4 * MiB

    def test_read_at_all(self):
        system, w = make_world(4)

        def prog(mpi):
            f = yield mpi.file_open("/nfs/c.dat", "w")
            yield f.write_at_all(mpi.rank * MiB, 1 * MiB)
            yield mpi.barrier()
            n = yield f.read_at_all(mpi.rank * MiB, 1 * MiB)
            yield f.close()
            return n

        values = system.env.run(w.run_program(prog))
        assert values == [MiB] * 4


class TestHints:
    """Bad hints fail at ``system.world(...)`` with one ``ValueError``
    naming the field, before any rank runs."""

    @pytest.mark.parametrize(
        "hints, field",
        [
            ({"cb_node": 1}, "cb_node"),
            ({"cb_nodes": 0}, "cb_nodes"),
            ({"cb_nodes": -2}, "cb_nodes"),
            ({"ds_buffer_bytes": 0}, "ds_buffer_bytes"),
            ({"ds_buffer_bytes": -4096}, "ds_buffer_bytes"),
            ({"cb_nodes": "2"}, "cb_nodes"),
            ({"cb_nodes": True}, "cb_nodes"),
            ({"cb_nodes": 2.0}, "cb_nodes"),
            ({"ds_buffer_bytes": 1.5}, "ds_buffer_bytes"),
            ({"ds_buffer_bytes": None}, "ds_buffer_bytes"),
            ({"collective": "no"}, "collective"),
            ({"collective": 1}, "collective"),
            ({"ds_read": "yes"}, "ds_read"),
            ({"ds_read": None}, "ds_read"),
        ],
    )
    def test_bad_hint_rejected_at_world(self, hints, field):
        system = build_system(Environment(), small_config())
        with pytest.raises(ValueError, match=field):
            system.world(4, io_hints=hints)

    def test_hints_parsed_once_per_world(self):
        system, w = make_world(2, io_hints={"cb_nodes": 1, "ds_read": True})
        files = []

        def prog(mpi):
            f = yield mpi.file_open("/nfs/h.dat", "w")
            g = yield mpi.file_open_self(f"/nfs/h{mpi.rank}.dat", "w")
            files.extend([f, g])
            yield g.close()
            yield f.close()

        system.env.run(w.run_program(prog))
        assert w.hints.cb_nodes == 1 and w.hints.ds_read
        assert all(f.hints is w.hints for f in files)


class TestDataSieving:
    def test_ds_read_hint_reduces_time_for_dense_enough_pattern(self):
        def run_one(ds):
            hints = {"ds_read": ds}
            system, w = make_world(2, io_hints=hints)

            def prog(mpi):
                f = yield mpi.file_open("/nfs/s.dat", "w")
                yield f.write_at(0, 4 * MiB)
                yield mpi.barrier()
                yield f.read_at(0, 2 * KiB, count=256, stride=8 * KiB)
                yield f.close()

            system.env.run(w.run_program(prog))
            return system.env.now

        assert run_one(True) < run_one(False)


class TestTracing:
    def test_events_carry_geometry(self):
        tracer = IOTracer()
        system, w = make_world(2, tracer=tracer)

        def prog(mpi):
            f = yield mpi.file_open("/nfs/t.dat", "w")
            yield f.write_at(0, 64 * KiB, count=4, stride=128 * KiB)
            yield f.close()

        system.env.run(w.run_program(prog))
        ev = tracer.events[0]
        assert ev.nbytes == 64 * KiB
        assert ev.count == 4
        assert ev.stride == 128 * KiB
        assert ev.duration > 0
        assert ev.path == "/nfs/t.dat"


class TestCommSelfCollectives:
    def test_collective_on_self_file_degenerates_to_independent(self):
        """Collectives on a COMM_SELF file are collective over exactly
        one rank — they must complete without rendezvousing on the
        world (per-rank paths never gather all ranks, so a world
        rendezvous would deadlock the calendar)."""
        system, w = make_world(4)

        def prog(mpi):
            f = yield mpi.file_open_self(f"/nfs/self{mpi.rank}.dat", "w")
            yield f.write_at_all(0, 256 * KiB)
            yield f.read_at_all(0, 128 * KiB)
            yield f.close()  # plain close on a self file must not hang either

        system.env.run(w.run_program(prog))
        for r in range(4):
            assert system.export.exists(f"/nfs/self{r}.dat")

    def test_self_file_matches_explicit_independent_io(self):
        """The degenerate collective takes exactly the independent
        path: simulated times are identical."""

        def run(use_collective):
            system, w = make_world(2)

            def prog(mpi):
                f = yield mpi.file_open_self(f"/nfs/x{mpi.rank}.dat", "w")
                if use_collective:
                    yield f.write_at_all(0, 512 * KiB)
                else:
                    yield f.write_at(0, 512 * KiB)
                yield f.close_self()

            system.env.run(w.run_program(prog))
            return system.env.now

        assert run(True) == run(False)
