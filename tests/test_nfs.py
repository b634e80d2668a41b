"""NFS client/server tests: RPC namespace, caching, direct mode, contention."""

import gc

import pytest

from repro.simengine import Environment, FlatOp
from repro.simengine.resources import Request
from repro.hardware import Node, NodeSpec, Network, GIGABIT, RAIDArray, RAIDConfig, RAIDLevel
from repro.storage.base import IORequest, KiB, MiB
from repro.storage.cache import CacheSpec
from repro.storage.localfs import LocalFS
from repro.storage.nfs import NFSMount, NFSServer, NFSSpec

from conftest import SMALL_DISK, SMALL_NODE


def build(nclients=2, client_cache=16 * MiB, server_ram=64 * MiB, spec=None):
    env = Environment()
    names = [f"c{i}" for i in range(nclients)] + ["srv"]
    net = Network(env, names, GIGABIT)
    srv_node = Node(env, "srv", NodeSpec(ram_bytes=server_ram))
    arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
    export = LocalFS(env, srv_node, arr)
    server = NFSServer(env, srv_node, export, net, spec)
    clients = [
        NFSMount(env, Node(env, f"c{i}", SMALL_NODE), server,
                 cache_spec=CacheSpec(capacity_bytes=client_cache))
        for i in range(nclients)
    ]
    return env, server, clients


class TestNamespace:
    def test_create_open_stat(self):
        env, srv, (c0, c1) = build()
        inode = env.run(c0.create("/f"))
        assert c1.exists("/f")
        assert c1.stat("/f") is inode
        inode2 = env.run(c1.open("/f"))
        assert inode2 is inode

    def test_open_create_flag(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.open("/new", create=True))
        assert c0.exists("/new")

    def test_unlink_visible_to_all_clients(self):
        env, srv, (c0, c1) = build()
        env.run(c0.create("/f"))
        env.run(c1.unlink("/f"))
        assert not c0.exists("/f")

    def test_metadata_rpc_costs_latency(self):
        env, srv, (c0, _) = build()
        env.run(c0.create("/f"))
        assert env.now >= 2 * GIGABIT.latency_s


class TestCachedPath:
    def test_dense_write_absorbed_then_committed(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
        assert c0.cache.dirty_bytes > 0
        env.run(c0.fsync(inode))
        assert c0.cache.dirty_bytes == 0
        assert srv.export.stats.bytes_written >= 4 * MiB

    def test_close_flushes_and_commits(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit(inode, IORequest("write", 0, 1 * MiB, count=2)))
        env.run(c0.close(inode))
        assert c0.cache.dirty_bytes == 0
        assert c0.stats.commits >= 1

    def test_client_cache_serves_reread_without_wire(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
        env.run(c0.fsync(inode))
        rpcs0 = c0.stats.rpcs
        env.run(c0.submit(inode, IORequest("read", 0, 1 * MiB, count=4)))
        assert c0.stats.rpcs == rpcs0  # all hits

    def test_other_client_must_fetch(self):
        env, srv, (c0, c1) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
        env.run(c0.fsync(inode))
        rpcs0 = c1.stats.rpcs
        env.run(c1.submit(inode, IORequest("read", 0, 1 * MiB, count=4)))
        assert c1.stats.rpcs > rpcs0

    def test_large_transfer_near_wire_speed(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        t0 = env.now
        env.run(c0.submit(inode, IORequest("write", 0, 1 * MiB, count=128)))
        env.run(c0.fsync(inode))
        rate = 128 * MiB / (env.now - t0)
        assert rate > 0.7 * GIGABIT.bandwidth_Bps
        assert rate <= 1.2 * GIGABIT.bandwidth_Bps


class TestDirectPath:
    def test_dense_direct_write_reaches_server(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit_direct(inode, IORequest("write", 0, 4 * MiB)))
        assert inode.size == 4 * MiB
        assert c0.cache.dirty_bytes == 0  # bypasses client cache

    def test_sparse_direct_pays_rtt_per_op(self):
        env, srv, (c0, _) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit_direct(inode, IORequest("write", 0, 1 * MiB, count=8)))
        t0 = env.now
        count = 500
        env.run(c0.submit_direct(inode, IORequest("write", 0, 1600, count=count, stride=6480)))
        dt = env.now - t0
        assert dt >= count * 2 * GIGABIT.latency_s  # serial round trips

    def test_sparse_direct_writes_serialize_across_clients(self):
        spec = NFSSpec(server_small_op_s=1e-3)
        env, srv, (c0, c1) = build(spec=spec)
        inode = env.run(c0.create("/f"))
        env.run(c0.submit_direct(inode, IORequest("write", 0, 1 * MiB, count=4)))
        t0 = env.now
        e0 = c0.submit_direct(inode, IORequest("write", 0, 2 * KiB, count=100, stride=64 * KiB))
        e1 = c1.submit_direct(inode, IORequest("write", 4 * KiB, 2 * KiB, count=100, stride=64 * KiB))
        env.run(env.all_of([e0, e1]))
        assert env.now - t0 >= 200 * 1e-3  # inode mutex serialises both streams

    def test_direct_dense_read(self):
        env, srv, (c0, c1) = build()
        inode = env.run(c0.create("/f"))
        env.run(c0.submit_direct(inode, IORequest("write", 0, 4 * MiB)))
        got = env.run(c1.submit_direct(inode, IORequest("read", 0, 4 * MiB)))
        assert got == 4 * MiB


class TestContention:
    def test_two_writers_share_server(self):
        env, srv, (c0, c1) = build()
        i0 = env.run(c0.create("/a"))
        i1 = env.run(c1.create("/b"))
        t0 = env.now
        e0 = c0.submit(i0, IORequest("write", 0, 1 * MiB, count=64))
        e1 = c1.submit(i1, IORequest("write", 0, 1 * MiB, count=64))
        env.run(env.all_of([e0, e1]))
        env.run(env.all_of([c0.fsync(i0), c1.fsync(i1)]))
        agg = 128 * MiB / (env.now - t0)
        assert agg <= 1.25 * GIGABIT.bandwidth_Bps  # one server downlink

    def test_server_thread_pool_bounds_concurrency(self):
        spec = NFSSpec(server_threads=1)
        env, srv, clients = build(nclients=2, spec=spec)
        assert srv.threads.capacity == 1
        threads = srv.threads
        seen = {"held": 0, "queued": 0}

        def watch():
            while True:
                seen["held"] = max(seen["held"], threads.count)
                seen["queued"] = max(seen["queued"], len(threads.queue))
                yield env.timeout(1e-4)

        # two clients' RPCs contend for the one thread; a served RPC's
        # thread grant (a direct entry) leaves no cyclic garbage
        flags = gc.get_debug()
        gc.collect()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            inodes = [env.run(c.create(f"/f{i}")) for i, c in enumerate(clients)]
            env.process(watch())
            writes = [c.submit(i, IORequest("write", 0, 2 * MiB)) for c, i in zip(clients, inodes)]
            env.run(env.all_of(writes))
            env.run(env.all_of([c.fsync(i) for c, i in zip(clients, inodes)]))
            assert threads.count == 0 and not threads.queue
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, (Request, FlatOp))]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert seen["held"] == 1 and seen["queued"] >= 1
        assert leaked == []
