"""Local filesystem tests: namespace, data path, write-back, allocation."""

import gc

import pytest

from repro.simengine import Environment, FlatOp, Resource
from repro.simengine.bench import _BenchHold
from repro.simengine.resources import FastHold, Request
from repro.hardware import Node, NodeSpec, RAIDArray, RAIDConfig, RAIDLevel
from repro.storage.base import IORequest, KiB, MiB
from repro.storage.cache import CacheSpec
from repro.storage.localfs import Inode, LocalFS

from conftest import SMALL_DISK


def make_fs(ram=64 * MiB, level=RAIDLevel.JBOD, ndisks=1):
    env = Environment()
    node = Node(env, "n", NodeSpec(ram_bytes=ram))
    arr = RAIDArray(env, RAIDConfig(level=level, ndisks=ndisks, disk=SMALL_DISK))
    fs = LocalFS(env, node, arr, cache_spec=CacheSpec(capacity_bytes=ram // 2))
    return env, fs


class TestNamespace:
    def test_create_and_stat(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        assert isinstance(inode, Inode)
        assert fs.stat("/f") is inode
        assert fs.exists("/f")

    def test_create_truncates(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB)))
        assert inode.size == 1 * MiB
        inode2 = env.run(fs.create("/f"))
        assert inode2 is inode
        assert inode.size == 0

    def test_open_missing_raises(self):
        env, fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.open("/missing")

    def test_open_create_flag(self):
        env, fs = make_fs()
        inode = env.run(fs.open("/new", create=True))
        assert fs.exists("/new")
        assert isinstance(inode, Inode)

    def test_unlink(self):
        env, fs = make_fs()
        env.run(fs.create("/f"))
        env.run(fs.unlink("/f"))
        assert not fs.exists("/f")
        with pytest.raises(FileNotFoundError):
            fs.unlink("/f")

    def test_unlink_drops_cache(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB)))
        assert fs.cache.file_resident_segments(inode.fileid) > 0
        env.run(fs.unlink("/f"))
        assert fs.cache.file_resident_segments(inode.fileid) == 0

    def test_metadata_ops_take_time(self):
        env, fs = make_fs()
        env.run(fs.create("/f"))
        assert env.now > 0


class TestDataPath:
    def test_write_extends_size(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 2 * MiB, 1 * MiB)))
        assert inode.size == 3 * MiB

    def test_write_returns_bytes(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        assert env.run(fs.submit(inode, IORequest("write", 0, 256 * KiB, count=4))) == 1 * MiB

    def test_cached_reread_fast(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=8)))
        t0 = env.now
        env.run(fs.submit(inode, IORequest("read", 0, 1 * MiB, count=8)))
        cached = env.now - t0
        media = 8 * MiB / fs.array.config.disk.outer_rate_Bps
        assert cached < media / 2  # served from cache

    def test_cold_read_hits_device(self):
        env, fs = make_fs(ram=32 * MiB)
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=64)))
        env.run(fs.sync())
        reads0 = fs.array.stats.bytes_read
        env.run(fs.submit(inode, IORequest("read", 0, 1 * MiB, count=64)))
        assert fs.array.stats.bytes_read > reads0

    def test_write_back_defers_device_write(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        written0 = fs.array.stats.bytes_written
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB)))
        deferred = fs.array.stats.bytes_written - written0
        env.run(fs.fsync(inode))
        flushed = fs.array.stats.bytes_written - written0
        assert deferred < flushed

    def test_fsync_only_flushes_target_file(self):
        env, fs = make_fs()
        a = env.run(fs.create("/a"))
        b = env.run(fs.create("/b"))
        env.run(fs.submit(a, IORequest("write", 0, 1 * MiB)))
        env.run(fs.submit(b, IORequest("write", 0, 1 * MiB)))
        env.run(fs.fsync(a))
        assert not fs.cache.dirty_segments(fileid=a.fileid)
        assert fs.cache.dirty_segments(fileid=b.fileid)

    def test_sync_flushes_everything(self):
        env, fs = make_fs()
        a = env.run(fs.create("/a"))
        env.run(fs.submit(a, IORequest("write", 0, 4 * MiB)))
        env.run(fs.sync())
        assert fs.cache.dirty_bytes == 0
        assert fs.array.dirty_bytes == 0

    def test_sparse_writes_much_slower_than_dense_when_uncacheable(self):
        env, fs = make_fs(ram=16 * MiB)
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=128)))
        env.run(fs.sync())
        t0 = env.now
        env.run(fs.submit(inode, IORequest("write", 0, 2 * KiB, count=2000, stride=10 * MiB)))
        env.run(fs.sync())
        sparse_dt = env.now - t0
        t0 = env.now
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
        env.run(fs.sync())
        dense_dt = env.now - t0
        sparse_rate = 2 * KiB * 2000 / sparse_dt
        dense_rate = 4 * MiB / dense_dt
        assert sparse_rate < dense_rate / 10

    def test_fully_resident_file_serves_any_pattern_from_memory(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=4)))
        reads0 = fs.array.stats.bytes_read
        env.run(fs.submit(inode, IORequest("read", 0, 2 * KiB, count=100, stride=40 * KiB)))
        assert fs.array.stats.bytes_read == reads0  # no device reads

    def test_throttling_bounds_dirty_bytes(self):
        env, fs = make_fs(ram=16 * MiB)
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=64)))
        assert fs.cache.dirty_bytes <= fs.cache.spec.capacity_bytes

    def test_stats(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 64 * KiB, count=4)))
        env.run(fs.submit(inode, IORequest("read", 0, 64 * KiB, count=2)))
        assert fs.stats.writes == 4
        assert fs.stats.reads == 2
        assert fs.stats.bytes_written == 256 * KiB
        assert fs.stats.bytes_read == 128 * KiB


class TestAllocation:
    def test_extents_cover_written_range(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 10 * MiB)))
        assert inode.allocated_bytes() >= 10 * MiB
        assert isinstance(inode.device_offset(5 * MiB), int)

    def test_device_offset_beyond_allocation_raises(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        with pytest.raises(KeyError):
            inode.device_offset(1)

    def test_files_get_disjoint_extents(self):
        env, fs = make_fs()
        a = env.run(fs.create("/a"))
        b = env.run(fs.create("/b"))
        env.run(fs.submit(a, IORequest("write", 0, 1 * MiB)))
        env.run(fs.submit(b, IORequest("write", 0, 1 * MiB)))
        assert a.device_offset(0) != b.device_offset(0)

    def test_serialized_write_lock(self):
        """Concurrent serialized writers to one inode make no more than
        1/per_op_s aggregate progress."""
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        per_op = 1e-3
        evs = [
            fs.submit_serialized_write(inode, IORequest("write", 0, 2 * KiB, count=50), per_op)
            for _ in range(4)
        ]
        env.run(env.all_of(evs))
        assert env.now >= 4 * 50 * per_op  # fully serialised

    def test_serialized_write_rejects_reads(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        with pytest.raises(ValueError):
            fs.submit_serialized_write(inode, IORequest("read", 0, 2 * KiB), 1e-3)


class TestEOFReads:
    def test_read_of_empty_file_is_short_and_free(self):
        """A read at offset 0 of a never-written file is a POSIX
        zero-byte short read: no extents exist, and the device must
        not be consulted (regression: this used to raise KeyError
        from Inode.device_offset)."""
        env, fs = make_fs()
        inode = env.run(fs.create("/empty"))
        t0 = env.now
        env.run(fs.submit(inode, IORequest("read", 0, 1 * MiB)))
        assert fs.array.stats.bytes_read == 0
        # only CPU/metadata time elapsed, no media transfer
        assert env.now - t0 < 1e-3

    def test_read_past_eof_is_short_and_free(self):
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 64 * KiB)))
        env.run(fs.sync())
        before = fs.array.stats.bytes_read
        env.run(fs.submit(inode, IORequest("read", 10 * MiB, 1 * MiB)))
        assert fs.array.stats.bytes_read == before

    def test_read_within_file_still_reads_device(self):
        env, fs = make_fs(ram=8 * MiB)
        inode = env.run(fs.create("/g"))
        env.run(fs.submit(inode, IORequest("write", 0, 4 * MiB)))
        env.run(fs.sync())
        fs.cache.drop_file(inode.fileid)
        env.run(fs.submit(inode, IORequest("read", 0, 1 * MiB)))
        assert fs.array.stats.bytes_read > 0


def test_finished_operations_leave_no_cyclic_garbage():
    """Completed requests, flat ops and holds are freed by refcount: with
    every collection saving what it finds, none of them reaches
    gc.garbage.  A grant waiter kept on its request would close the
    cycle request -> bound method -> holder -> request."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        env, fs = make_fs()
        inode = env.run(fs.create("/f"))
        env.run(fs.submit(inode, IORequest("write", 0, 4 * MiB)))
        env.run(fs.submit(inode, IORequest("read", 0, 4 * MiB)))
        env.run(fs.fsync(inode))
        # two writers on the inode lock: one granted at the request, one
        # at the release
        env.run(
            env.all_of(
                fs.submit_serialized_write(inode, IORequest("write", i * KiB, KiB), 1e-4)
                for i in range(2)
            )
        )
        res = Resource(env, capacity=1)

        class Hold(FlatOp):
            def _start(self, _v):
                self.req = res.request(self._granted)

            def _granted(self, _v):
                self._sleep(0.01, self._done)

            def _done(self, _v):
                res.release(self.req)
                self._finish()

        # three flat holders: two queue, each holding its waiter until
        # its grant
        for _ in range(3):
            Hold(env)
        env.run()
        assert res.count == 0 and not res.queue
        # a contended two-holder FastHold rotation: every quantum
        # boundary re-requests and queues
        for _ in range(2):
            _BenchHold(env, [res], 0.053, 0.02)
        env.run()
        assert res.count == 0 and not res.queue
        gc.collect()
        leaked = [
            type(o).__name__ for o in gc.garbage if isinstance(o, (Request, FlatOp, FastHold))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []
