"""The page-cache client protocol, driven through both of its owners.

:class:`~repro.storage.localfs.LocalFS` and the NFS client
(:class:`~repro.storage.nfs.NFSMount`) share one fill, scan,
dirty-insert and write-back policy (``repro.storage.cache``) and differ
only in their transport.  Each test runs against both owners and reads
what reached the backend — the RAID array under the local filesystem,
the server export under the NFS client — as ``(offset, bytes)`` runs in
issue order.  The local filesystem lays its first file out from device
offset 0, so the device offsets of that file are its file offsets.
"""

import pytest

from repro.hardware import GIGABIT, Network, Node, NodeSpec, RAIDArray, RAIDConfig, RAIDLevel
from repro.simengine import Environment
from repro.storage.base import IORequest, MiB
from repro.storage.cache import CacheSpec
from repro.storage.localfs import LocalFS
from repro.storage.nfs import NFSMount, NFSServer

from conftest import SMALL_DISK, SMALL_NODE


def local_owner(cache_spec):
    env = Environment()
    arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
    fs = LocalFS(env, Node(env, "n", SMALL_NODE), arr, cache_spec=cache_spec)
    log = []
    real = arr.submit

    def submit(op, offset, nbytes, count=1, *args, **kw):
        ev = real(op, offset, nbytes, count, *args, **kw)
        log.append((op, offset, nbytes * count, ev))
        return ev

    arr.submit = submit
    return env, fs, log


def nfs_owner(cache_spec):
    env = Environment()
    net = Network(env, ["c0", "srv"], GIGABIT)
    srv_node = Node(env, "srv", NodeSpec(ram_bytes=256 * MiB))
    arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))
    export = LocalFS(env, srv_node, arr)
    mount = NFSMount(env, Node(env, "c0", SMALL_NODE), NFSServer(env, srv_node, export, net),
                     cache_spec=cache_spec)
    log = []
    real = export.submit

    def submit(inode, req):
        # one window of READ/WRITE RPCs
        ev = real(inode, req)
        log.append((req.op, req.offset, req.nbytes * req.count, ev))
        return ev

    export.submit = submit
    return env, mount, log


OWNERS = {"localfs": local_owner, "nfs": nfs_owner}


def runs(log, op):
    """Backend ``op`` traffic as contiguous ``(offset, bytes)`` runs in
    MiB, in issue order; every recorded event must have completed."""
    out = []
    for entry in log:
        if entry[0] != op:
            continue
        assert entry[-1].processed
        off, nbytes = entry[1], entry[2]
        if out and out[-1][0] + out[-1][1] == off:
            out[-1][1] += nbytes
        else:
            out.append([off, nbytes])
    return [(off / MiB, nbytes / MiB) for off, nbytes in out]


def clean_file(env, owner, path, nbytes):
    """A file of ``nbytes`` written through ``owner``, flushed clean and
    then dropped from its cache."""
    inode = env.run(owner.create(path))
    env.run(owner.submit(inode, IORequest("write", 0, nbytes)))
    env.run(owner.fsync(inode))
    owner.cache.drop_file(inode.fileid)
    return inode


@pytest.mark.parametrize(
    "name, read_segs, expect",
    [
        # misses 0-1, 4-5, 7 and 9 around resident 2, 3, 6 and 8;
        # LocalFS reads one segment of readahead past the last run
        ("localfs", 10, [(0, 2), (4, 2), (7, 1), (9, 2)]),
        ("nfs", 10, [(0, 2), (4, 2), (7, 1), (9, 1)]),
        # the last run ends at EOF: readahead is clipped
        ("localfs", 12, [(0, 2), (4, 2), (7, 1), (9, 3)]),
        ("nfs", 12, [(0, 2), (4, 2), (7, 1), (9, 3)]),
    ],
)
def test_dense_read_fetches_exactly_the_miss_runs(name, read_segs, expect):
    env, owner, log = OWNERS[name](CacheSpec(capacity_bytes=32 * MiB))
    inode = clean_file(env, owner, "/f", 12 * MiB)
    for seg in (2, 3, 6, 8):
        owner.cache.insert(inode.fileid, seg, 0)
    del log[:]
    env.run(owner.submit(inode, IORequest("read", 0, read_segs * MiB)))
    assert runs(log, "read") == expect
    assert runs(log, "write") == []
    resident = [s for s in range(12) if owner.cache.is_resident(inode.fileid, s)]
    fetched = [s for off, n in expect for s in range(int(off), int(off + n))]
    assert resident == sorted({2, 3, 6, 8, *fetched})


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_dirty_victims_are_written_back_before_the_write_completes(name):
    # no throttling and no background flushing: only eviction writes back
    spec = CacheSpec(capacity_bytes=8 * MiB, dirty_ratio=1.0, background_ratio=1.0)
    env, owner, log = OWNERS[name](spec)
    a = env.run(owner.create("/a"))
    b = env.run(owner.create("/b"))
    env.run(owner.submit(a, IORequest("write", 0, 8 * MiB)))
    assert owner.cache.dirty_bytes == 8 * MiB
    del log[:]
    env.run(owner.submit(b, IORequest("write", 0, 2 * MiB)))
    # the two oldest dirty segments of /a were evicted and written
    assert runs(log, "write") == [(0, 2)]
    assert not owner.cache.is_resident(a.fileid, 0)
    assert not owner.cache.is_resident(a.fileid, 1)
    assert owner.cache.dirty_bytes == 8 * MiB


@pytest.mark.parametrize(
    "name, written_back",
    [
        # the writer waits for the flusher, which drains every dirty
        # segment (21 of them) in one batch
        ("localfs", [(0, 21)]),
        # the writer pushes the oldest quarter of the cache (10 segments)
        ("nfs", [(0, 10)]),
    ],
)
def test_crossing_the_dirty_limit_takes_the_owners_throttle(name, written_back):
    spec = CacheSpec(capacity_bytes=40 * MiB, dirty_ratio=0.5, background_ratio=0.25)
    env, owner, log = OWNERS[name](spec)
    inode = env.run(owner.create("/f"))
    del log[:]
    env.run(owner.submit(inode, IORequest("write", 0, 24 * MiB)))
    assert runs(log, "write") == written_back
    assert owner.cache.dirty_bytes == (24 - written_back[0][1]) * MiB
