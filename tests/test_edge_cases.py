"""Edge cases and failure paths across the stack."""

from repro.simengine import Environment
from repro.hardware import Node, NodeSpec, Network, GIGABIT, RAIDArray, RAIDConfig, RAIDLevel
from repro.storage import LocalFS, NFSMount, NFSServer, NFSSpec
from repro.storage.base import IORequest, KiB, MiB
from repro.storage.cache import CacheSpec
from repro.clusters.builder import build_system
from repro.tracing import IOEvent, render_timeline
from conftest import SMALL_DISK, SMALL_NODE, small_config


class TestNFSVariants:
    def build(self, spec):
        env = Environment()
        net = Network(env, ["c0", "srv"], GIGABIT)
        srv_node = Node(env, "srv", SMALL_NODE)
        arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
        export = LocalFS(env, srv_node, arr)
        server = NFSServer(env, srv_node, export, net, spec)
        mount = NFSMount(env, Node(env, "c0", SMALL_NODE), server,
                         cache_spec=CacheSpec(capacity_bytes=8 * MiB))
        return env, server, mount

    def test_non_durable_commit_faster(self):
        def run(durable):
            env, srv, mount = self.build(NFSSpec(commit_durable=durable))
            inode = env.run(mount.create("/f"))
            env.run(mount.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
            t0 = env.now
            env.run(mount.fsync(inode))
            return env.now - t0

        assert run(False) < run(True)

    def test_larger_wsize_fewer_rpcs(self):
        def rpcs(wsize):
            env, srv, mount = self.build(NFSSpec(wsize=wsize))
            inode = env.run(mount.create("/f"))
            env.run(mount.submit(inode, IORequest("write", 0, 4 * MiB)))
            env.run(mount.fsync(inode))
            return mount.stats.rpcs

        assert rpcs(1 * MiB) < rpcs(64 * KiB)

    def test_zero_byte_write(self):
        env, srv, mount = self.build(NFSSpec())
        inode = env.run(mount.create("/f"))
        got = env.run(mount.submit(inode, IORequest("write", 0, 0)))
        assert got == 0
        assert inode.size == 0


class TestLocalFSOverflow:
    def test_huge_sparse_stream_uses_arithmetic_path(self):
        """A sparse stream touching far more segments than the cache
        holds must not blow up the event count (OVERFLOW_FACTOR)."""
        env = Environment()
        node = Node(env, "n", NodeSpec(ram_bytes=16 * MiB))
        arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
        fs = LocalFS(env, node, arr, cache_spec=CacheSpec(capacity_bytes=4 * MiB))
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=64)))
        # stride >= segment, count far above 4x cache segments (16)
        env.run(fs.submit(inode, IORequest("write", 0, 2 * KiB, count=500, stride=2 * MiB)))
        assert env.now > 0  # completed without pathological expansion

    def test_read_beyond_eof_clamped(self):
        env = Environment()
        node = Node(env, "n", SMALL_NODE)
        arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
        fs = LocalFS(env, node, arr)
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB)))
        # read far past EOF: charged, but no crash and no infinite fill
        env.run(fs.submit(inode, IORequest("read", 0, 1 * MiB, count=16)))
        assert inode.size == 1 * MiB


class TestMPIEdge:
    def test_recv_blocks_until_matching_send(self):
        system = build_system(Environment(), small_config(n_compute=2))
        world = system.world(2)
        order = []

        def prog(mpi):
            if mpi.rank == 1:
                got = yield mpi.recv(0, tag=9)
                order.append(("recv", got, mpi.now))
            else:
                yield mpi.compute(seconds=1.0)
                yield mpi.send(1, 64, tag=9, payload="late")
                order.append(("sent", mpi.now))

        system.env.run(world.run_program(prog))
        recv = [o for o in order if o[0] == "recv"][0]
        assert recv[1] == "late"
        assert recv[2] >= 1.0

    def test_messages_fifo_within_tag(self):
        system = build_system(Environment(), small_config(n_compute=2))
        world = system.world(2)
        got = []

        def prog(mpi):
            if mpi.rank == 0:
                for k in range(3):
                    yield mpi.send(1, 64, tag=1, payload=k)
            else:
                for _ in range(3):
                    got.append((yield mpi.recv(0, tag=1)))

        system.env.run(world.run_program(prog))
        assert got == [0, 1, 2]

    def test_single_rank_world(self):
        system = build_system(Environment(), small_config(n_compute=1))
        world = system.world(1)

        def prog(mpi):
            yield mpi.barrier()
            f = yield mpi.file_open("/nfs/solo.dat", "w")
            yield f.write_at_all(0, 1 * MiB)
            yield mpi.barrier()
            yield f.close()
            return "ok"

        assert system.env.run(world.run_program(prog)) == ["ok"]


class TestTimelineEdge:
    def test_zero_duration_events(self):
        events = [IOEvent(0, "write", 0, 10, 1, None, 1.0, 1.0, "/f")]
        art = render_timeline(events, width=10)
        assert "W" in art

    def test_single_event(self):
        events = [IOEvent(0, "read", 0, 10, 1, None, 0.0, 5.0, "/f")]
        art = render_timeline(events, width=5)
        rank_line = [l for l in art.splitlines() if l.startswith("rank")][0]
        assert rank_line.count("R") == 5


class TestMethodologySubsets:
    def test_evaluate_subset_of_configs(self):
        from repro.core import Methodology
        from repro.workloads.apps import BTIOApplication
        from repro.workloads.btio import BTIOConfig

        m = Methodology(
            {d: small_config(d) for d in ("jbod", "raid5")},
            block_sizes=(64 * KiB,),
            char_file_bytes=8 * MiB,
            ior_nprocs=2,
            ior_file_bytes=4 * MiB,
        )
        m.characterize(names=["jbod"])
        assert set(m.tables) == {"jbod"}
        app = BTIOApplication(BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt"))
        reports = m.evaluate(app, names=["jbod"])
        assert set(reports) == {"jbod"}
