"""Kernel determinism suite: golden calendar digests.

The simulator has one kernel mode.  Its reference is data, not a second
implementation: ``tests/golden/kernel_digests.json`` records, for each
cell below, the simulated values (table digests, iozone/IOR rows, BT-IO
times, completion clocks) and a sha256 over every calendar push
``(when.hex(), priority)`` of every environment the cell builds.  A
change that moves any calendar entry — its time, its priority or its
order — fails here, even when the tables happen to agree.

Cells: the Aohyper quick characterization tables (iolib/localfs/nfs)
for jbod, raid1 and raid5; all eight iozone workloads and IOR on each
device; BT-IO class S; three MPI-IO programs (COMM_SELF files,
``cb_nodes=1`` collective buffering, data-sieved sparse reads) with
barriers between their steps; three page-cache paths (NFS-client
writes under the client throttle, a local read whose fill evicts dirty
segments, a phase-replay absorb that evicts one); a RAID 5 and a RAID 10 rebuild beside
foreground reads and writes; and eight synthetic rotation scenarios —
holders time-slicing one resource (plain rotation, a mid-window
arrival, a pivot behind an uncontended prefix, idle suffix resources)
and holders on two uplinks feeding one shared pivot, with and without a
foreign arrival on either level.

The kernel once had four alternative modes (``no_fasthold``,
``no_coalesce``, ``no_fsfast`` and ``analytic``), each a second
implementation promising bit-identical results.  The golden file keeps,
under ``former_modes``, a digest of the values each of them produced
for the characterization, iozone, IOR and BT-IO cells, recorded at the
last tree that had them; the one kernel must still reproduce every one.

The vectorized disk scatter is checked against the scalar per-op loop
it replaces, which stays as its reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import aohyper_config, characterize_system
from repro.clusters.builder import build_system
from repro.hardware import GIGABIT, Network, Node, NodeSpec
from repro.hardware.disk import Disk, DiskSpec, READ, WRITE
from repro.hardware.raid import RAIDArray, RAIDConfig, RAIDLevel
from repro.simengine import Environment
from repro.simengine.bench import _BenchHold
from repro.simengine.core import Timeout
from repro.simengine.resources import Resource
from repro.storage.base import IORequest, KiB, MiB
from repro.storage.cache import CacheSpec
from repro.storage.localfs import LocalFS, LocalFSSpec
from repro.storage.nfs import NFSMount, NFSServer
from repro.workloads import run_ior, run_iozone
from repro.workloads.btio import BTIOConfig, run_btio
from conftest import SMALL_DISK, SMALL_NODE, small_config

DEVICES = ("jbod", "raid1", "raid5")
ALT_MODES = ("no_fasthold", "no_coalesce", "no_fsfast", "analytic")


# ----------------------------------------------------------------------
# synthetic rotation scenarios on one resource
# ----------------------------------------------------------------------
def _build_plain_rotation(env, times):
    """Four holders time-slicing one resource."""
    res = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [res], 6 * 0.020 + 0.007, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_late_arrival(env, times):
    """A fifth holder arrives in the middle of a rotation."""
    res = Resource(env, capacity=1)
    for i in range(3):
        h = _BenchHold(env, [res], 0.127, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))

    def late(ev):
        h = _BenchHold(env, [res], 0.053, 0.020)
        h.result.callbacks.append(lambda ev: times.append(("late", env.now)))

    Timeout(env, 0.171).callbacks.append(late)


def _build_prefix_pivot(env, times):
    """Contended resource at member index 1: a held, uncontended prefix
    (capacity 8, never queues) precedes the pivot.  Totals are staggered
    so holders leave the rotation one by one."""
    pre = Resource(env, capacity=8)
    piv = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [pre, piv], 0.107 + 0.060 * i, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_idle_suffix(env, times):
    """Pivot at index 0 with a private suffix resource per member —
    queued members sit with the suffix released."""
    piv = Resource(env, capacity=1)
    for i in range(4):
        suf = Resource(env, capacity=1)
        h = _BenchHold(env, [piv, suf], 0.087, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


_RING_SCENARIOS = {
    "plain_rotation": _build_plain_rotation,
    "late_arrival": _build_late_arrival,
    "prefix_pivot": _build_prefix_pivot,
    "idle_suffix": _build_idle_suffix,
}


# ----------------------------------------------------------------------
# synthetic two-level rotation scenarios: two uplinks feeding one pivot
# ----------------------------------------------------------------------
def _build_coupled(env, times, foreign_at=None, foreign_level=None):
    """Four holders on two capacity-1 uplinks all holding one shared
    pivot: the two-level rotation of client uplinks feeding one server
    downlink.  Starts are staggered so the rotation forms mid-way; an
    optional foreign holder arrives mid-rotation on either level."""
    pivot = Resource(env, capacity=1)
    up_a = Resource(env, capacity=1)
    up_c = Resource(env, capacity=1)

    def start(name, res_list, total, at):
        def go(ev):
            h = _BenchHold(env, res_list, total, 0.020)
            h.result.callbacks.append(lambda e, n=name: times.append((n, env.now)))

        if at == 0.0:
            go(None)
        else:
            Timeout(env, at).callbacks.append(go)

    start("A", [up_a, pivot], 0.500, 0.0)
    start("C", [up_c, pivot], 0.450, 0.001)
    start("B", [up_a, pivot], 0.300, 0.002)
    start("D", [up_c, pivot], 0.350, 0.003)
    if foreign_at is not None:
        level = {"pivot": pivot, "uplink_a": up_a, "uplink_c": up_c}[foreign_level]

        def foreign(ev):
            h = _BenchHold(env, [level], 0.040, 0.020)
            h.result.callbacks.append(lambda e: times.append(("foreign", env.now)))

        Timeout(env, foreign_at).callbacks.append(foreign)


_COUPLED_SCENARIOS = {
    "coupled_plain": {},
    "coupled_foreign_pivot": dict(foreign_at=0.137, foreign_level="pivot"),
    "coupled_foreign_uplink_a": dict(foreign_at=0.211, foreign_level="uplink_a"),
    "coupled_foreign_uplink_c": dict(foreign_at=0.093, foreign_level="uplink_c"),
}


# ----------------------------------------------------------------------
# vectorized disk scatter: scalar loop vs numpy, bit-identical
# ----------------------------------------------------------------------
def _assert_disk_twins(d1, d2, t1, t2, case):
    assert t1 == t2, case
    assert d1._head_pos == d2._head_pos, case
    assert (d1._ra_start, d1._ra_end) == (d2._ra_start, d2._ra_end), case
    assert d1.stats.seeks == d2.stats.seeks, case
    assert d1.stats.readahead_hits == d2.stats.readahead_hits, case


def test_scatter_vectorization_bit_identical():
    rng = random.Random(7)
    spec = DiskSpec()
    vec_cases = 0
    overlap_cases = 0
    for trial in range(600):
        env = Environment()
        d1 = Disk(env, DiskSpec())
        d2 = Disk(env, DiskSpec())
        # random prior state: cold, sequential head, a read that leaves
        # a readahead window behind, or a write after such a read
        pre = rng.choice(["none", "seq", "read", "write"])
        near = rng.randrange(0, 10**9)
        if pre == "seq":
            d1._head_pos = near
            d2._head_pos = near
        elif pre in ("read", "write"):
            nb0 = rng.choice([4096, 65536, 1 << 20])
            d1.service_time(READ, near, nb0)
            d2.service_time(READ, near, nb0)
            if pre == "write":
                # lands inside, across or past the readahead window
                woff = near + rng.randrange(0, nb0 + 3 * (1 << 20))
                d1.service_time(WRITE, woff, nb0)
                d2.service_time(WRITE, woff, nb0)
        op = rng.choice([READ, WRITE])
        nbytes = rng.choice([0, 512, 4096, 32768, 65536, 262144, 1 << 20])
        count = rng.randrange(9, 200)
        if nbytes >= 2 and rng.random() < 0.5:
            # overlapping strides (0 < stride < nbytes): page-rounded
            # records closer together than a page, as BT-IO simple's
            # 2,560 B records read through 4 KiB pages
            overlaps = [nbytes - 1, nbytes // 2] + ([2560] if nbytes == 4096 else [])
            stride = rng.choice(overlaps)
        else:
            stride = nbytes + rng.choice(
                [1, 512, 4096, 100_000, 2 * (1 << 20), 127 * max(nbytes, 65536)]
            )
        # start in the prior state's readahead window half of the time
        if rng.random() < 0.5:
            offset = near + rng.randrange(0, 2 * (1 << 20))
        else:
            offset = rng.randrange(0, 10**9)
        if offset + stride * (count - 1) + nbytes > spec.capacity_bytes:
            continue
        vec_cases += 1
        overlap_cases += stride < nbytes
        t_scalar = d1._scatter_time(op, offset, nbytes, count, stride)
        t_vector = d2._scatter_time_vec(op, offset, nbytes, count, stride)
        _assert_disk_twins(d1, d2, t_scalar, t_vector, (trial, op, offset, nbytes, count, stride))
    assert vec_cases > 500, "random parameters barely hit the vector path"
    assert overlap_cases > 200, "random parameters barely drew overlapping strides"


@pytest.mark.parametrize("count", [204, 208, 512, 1024])
def test_scatter_vectorization_bit_identical_at_btio_sizes(count):
    """The scatter sizes BT-IO simple issues (204 to 1,024 ops per
    call): the vector path's sum matches the per-op loop bit for bit,
    for reads and writes, holed and overlapping strides, from a cold
    head and from inside a readahead window."""
    rng = random.Random(count)
    strides = [
        (2560, 2560 + 4096),  # holed
        (65536, 65536 + 100_000),  # holed, past the short-skip reach
        (4096, 2560),  # overlapping: page-rounded 2,560 B records
        (65536, 32768),  # overlapping
    ]
    for op in (READ, WRITE):
        for nbytes, stride in strides:
            for warm in (False, True):
                env = Environment()
                d1 = Disk(env, DiskSpec())
                d2 = Disk(env, DiskSpec())
                offset = rng.randrange(0, 10**9)
                if warm:
                    # a prior read leaves the head and a readahead
                    # window where the scatter starts
                    d1.service_time(READ, offset, 4096)
                    d2.service_time(READ, offset, 4096)
                    offset += rng.randrange(0, 1 << 20)
                case = (op, nbytes, stride, warm, count)
                t_scalar = d1._scatter_time(op, offset, nbytes, count, stride)
                t_vector = d2._scatter_time_vec(op, offset, nbytes, count, stride)
                _assert_disk_twins(d1, d2, t_scalar, t_vector, case)


def test_overlapping_stride_takes_vector_path(monkeypatch):
    """BT-IO simple's page-rounded records: 4 KiB reads every 2,560 B
    are served by the vector path, bit-identical to the per-op loop."""
    env = Environment()
    scalar = Disk(env, DiskSpec())
    vector = Disk(env, DiskSpec())
    offset = 123 * 4096
    t_scalar = scalar._scatter_time(READ, offset, 4096, 1024, 2560)

    def refuse(*args):
        raise AssertionError("overlapping stride fell back to the scalar loop")

    monkeypatch.setattr(vector, "_scatter_time", refuse)
    t_vector = vector.service_time(READ, offset, 4096, 1024, 2560)
    _assert_disk_twins(scalar, vector, t_scalar, t_vector, "4096 B every 2560 B")
    assert vector.stats.readahead_hits > 0 and vector.stats.seeks > 0


# ----------------------------------------------------------------------
# golden cells: recorded values plus a digest of every calendar push
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).with_name("golden") / "kernel_digests.json"


@contextlib.contextmanager
def calendar_digest():
    """Digest every calendar push of every environment built inside.

    Yields a dict that, on exit, holds ``pushes`` (the entry count) and
    ``sha256`` over each push's ``(when.hex(), priority)`` in push order.
    Two runs with equal digests inserted the same calendar keys in the
    same order, so they popped and dispatched identically.
    """
    h = hashlib.sha256()
    pushes = 0

    def attach(env):
        down = env._push

        def push(when, priority, event):
            nonlocal pushes
            pushes += 1
            h.update(f"{float(when).hex()} {priority}\n".encode())
            down(when, priority, event)

        env._push = push

    out: dict = {}
    Environment._init_hooks.append(attach)
    try:
        yield out
    finally:
        Environment._init_hooks.remove(attach)
    out.update(pushes=pushes, sha256=h.hexdigest())


def _characterization_run(device: str) -> tuple:
    """The quick characterization tables of ``device`` and the digest of
    the calendar that built them."""
    with calendar_digest() as cal:
        tables = characterize_system(
            aohyper_config(device),
            block_sizes=(256 * KiB, 1 * MiB),
            file_bytes=8 * MiB,
            ior_nprocs=4,
            ior_file_bytes=64 * MiB,
        )
    return tables, cal


@functools.lru_cache(maxsize=None)
def _golden_characterization(device: str) -> dict:
    tables, cal = _characterization_run(device)
    return {
        "tables": {
            level: hashlib.sha256(tables[level].to_csv().encode()).hexdigest()
            for level in sorted(tables)
        },
        "calendar": cal,
    }


@functools.lru_cache(maxsize=None)
def _golden_iozone(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device))
        res = run_iozone(
            system, "n0", "/local/z", file_bytes=16 * MiB,
            block_sizes=(256 * KiB,), include_strided=True, include_random=True,
        )
    return {"rows": [[r.test, r.rate_Bps] for r in res.rows], "calendar": cal}


@functools.lru_cache(maxsize=None)
def _golden_ior(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device, n_compute=2))
        res = run_ior(system, 4, block_sizes=(1 * MiB,), file_bytes=8 * MiB)
    return {
        "rows": [[r.op, r.aggregate_rate_Bps, r.elapsed_s] for r in res.rows],
        "calendar": cal,
    }


@functools.lru_cache(maxsize=None)
def _golden_btio(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device, n_compute=2))
        res = run_btio(
            system, BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt")
        )
    return {
        "times": [res.execution_time, res.io_time, res.write_time, res.read_time],
        "calendar": cal,
    }


def _mpi_comm_self(mpi, done):
    """MADbench-style unique file per process: COMM_SELF open, writes,
    reads, independent close."""
    f = yield mpi.file_open_self(f"/nfs/self.{mpi.rank}", "w")
    done("open", mpi)
    for i in range(3):
        yield f.write_at(i * MiB, 1 * MiB)
    done("write", mpi)
    yield mpi.barrier()
    for i in range(3):
        yield f.read_at(i * MiB, 1 * MiB)
    done("read", mpi)
    yield f.close()
    done("close", mpi)
    yield mpi.barrier()
    done("barrier", mpi)


def _mpi_one_aggregator(mpi, done):
    """Two-phase collective buffering through a single aggregator; the
    repeated appends go steady and are absorbed by the phase replay."""
    f = yield mpi.file_open("/nfs/cb", "w")
    done("open", mpi)
    block = 256 * KiB
    for step in range(6):
        base = step * mpi.size * block
        yield f.write_at_all(base + mpi.rank * block, block)
    done("write_all", mpi)
    yield mpi.barrier()
    for step in range(3):
        base = step * mpi.size * block
        yield f.read_at_all(base + mpi.rank * block, block)
    done("read_all", mpi)
    yield f.close()
    done("close", mpi)
    yield mpi.barrier()
    done("barrier", mpi)


def _mpi_sieved_read(mpi, done):
    """Sparse independent reads served by data sieving (``ds_read``)."""
    f = yield mpi.file_open("/nfs/ds", "w")
    yield f.write_at_all(mpi.rank * 2 * MiB, 2 * MiB)
    done("write_all", mpi)
    yield mpi.barrier()
    for _ in range(2):
        yield f.read_at(mpi.rank * 2 * MiB, 4 * KiB, count=64, stride=16 * KiB)
    done("sieved_read", mpi)
    yield mpi.barrier()
    yield f.close()
    done("close", mpi)


#: name -> (rank program, MPI-IO hints)
_MPI_CELLS = {
    "comm_self": (_mpi_comm_self, {}),
    "cb_nodes_1": (_mpi_one_aggregator, {"cb_nodes": 1}),
    "ds_read": (_mpi_sieved_read, {"ds_read": True}),
}


@functools.lru_cache(maxsize=None)
def _golden_mpi(name: str) -> dict:
    program, hints = _MPI_CELLS[name]
    times: list = []

    def done(tag, mpi):
        times.append([tag, mpi.rank, mpi.now])

    with calendar_digest() as cal:
        system = build_system(Environment(), small_config("jbod", n_compute=2))
        world = system.world(4, io_hints=hints)
        system.env.run(world.run_program(lambda mpi: program(mpi, done)))
    return {"completions": times, "calendar": cal}


def _jbod(env):
    return RAIDArray(env, RAIDConfig(level=RAIDLevel.JBOD, ndisks=1, disk=SMALL_DISK))


def _cache_nfs_throttle(env, done):
    """Dense NFS-client writes with partial head and tail segments into
    a 16 MiB client cache: past the dirty limit the writer pushes the
    oldest quarter of the cache to the server before going on."""
    net = Network(env, ["c0", "srv"], GIGABIT)
    srv = Node(env, "srv", NodeSpec(ram_bytes=256 * MiB))
    server = NFSServer(env, srv, LocalFS(env, srv, _jbod(env)), net)
    mount = NFSMount(
        env, Node(env, "c0", SMALL_NODE), server, cache_spec=CacheSpec(capacity_bytes=16 * MiB)
    )
    f = env.run(mount.create("/w"))
    piece = 9 * MiB // 4
    for i in range(12):
        env.run(mount.submit(f, IORequest("write", MiB // 2 + i * piece, piece)))
        done("write", mount)
    env.run(mount.submit(f, IORequest("read", MiB // 2, 3 * piece)))
    done("read", mount)
    env.run(mount.fsync(f))
    done("fsync", mount)
    return mount.cache


#: a local cache that neither throttles nor flushes in the background:
#: only eviction writes dirty data back
_NO_FLUSH = dict(capacity_bytes=8 * MiB, dirty_ratio=1.0, background_ratio=1.0)


def _cache_fill_dirty_victims(env, done):
    """A LocalFS read of a clean file into a cache full of another
    file's partly dirty segments: each filled run evicts dirty victims,
    written back before the fill goes on."""
    fs = LocalFS(env, Node(env, "n", SMALL_NODE), _jbod(env), cache_spec=CacheSpec(**_NO_FLUSH))
    b = env.run(fs.create("/b"))
    env.run(fs.submit(b, IORequest("write", 0, 6 * MiB)))
    env.run(fs.fsync(b))
    done("fsync", fs)
    a = env.run(fs.create("/a"))
    env.run(fs.submit(a, IORequest("write", MiB // 4, 15 * MiB // 2)))
    done("write", fs)
    env.run(fs.submit(b, IORequest("read", 0, 6 * MiB)))
    done("read", fs)
    return fs.cache


def _cache_absorb_dirty_victim(env, done):
    """A phase-replay absorb over a range of which half is resident in a
    full, all-dirty cache: the hits refresh, the misses land clean and
    evict the dirty LRU head, whose write-back the replay accounts
    analytically."""
    fs = LocalFS(env, Node(env, "n", SMALL_NODE), _jbod(env), cache_spec=CacheSpec(**_NO_FLUSH))
    a = env.run(fs.create("/a"))
    env.run(fs.submit(a, IORequest("write", 0, 4 * MiB)))
    b = env.run(fs.create("/b"))
    env.run(fs.submit(b, IORequest("write", MiB // 2, 7 * MiB // 2)))
    done("write", fs)
    fs.absorb(a, IORequest("write", 2 * MiB, 4 * MiB))
    env.run(fs.fsync(a))
    done("fsync", fs)
    env.run(fs.submit(b, IORequest("read", 0, 4 * MiB)))
    done("read", fs)
    return fs.cache


def _cache_fragmented_readahead(env, done):
    """A LocalFS dense read over a range of which every other segment
    is resident: each hit ends a run of misses, which is filled before
    the scan goes on, and the last run's readahead is clipped at the
    file's end.  The fills evict another file's dirty segments."""
    fs = LocalFS(
        env, Node(env, "n", SMALL_NODE), _jbod(env),
        spec=LocalFSSpec(readahead_bytes=4 * MiB),
        cache_spec=CacheSpec(**{**_NO_FLUSH, "capacity_bytes": 12 * MiB}),
    )
    a = env.run(fs.create("/a"))
    env.run(fs.submit(a, IORequest("write", 0, 7 * MiB)))
    env.run(fs.fsync(a))
    for seg in (1, 3):
        env.run(fs.submit(a, IORequest("read", seg * MiB, MiB)))
    b = env.run(fs.create("/b"))
    env.run(fs.submit(b, IORequest("write", 0, 8 * MiB)))
    done("write", fs)
    env.run(fs.submit(a, IORequest("read", MiB // 2, 4 * MiB)))
    done("read", fs)
    return fs.cache


def _cache_fsync_one_of_three(env, done):
    """An fsync of one file while three files hold interleaved dirty
    segments: only that file's segments are written back; a later
    write evicts the others' dirty segments and the last fsync writes
    back what is left."""
    fs = LocalFS(
        env, Node(env, "n", SMALL_NODE), _jbod(env),
        cache_spec=CacheSpec(**{**_NO_FLUSH, "capacity_bytes": 12 * MiB}),
    )
    a, b, c = (env.run(fs.create(p)) for p in ("/a", "/b", "/c"))
    for f, off, nbytes in (
        (a, 0, 2 * MiB), (b, 0, 5 * MiB // 2), (c, 0, MiB),
        (a, 2 * MiB, 2 * MiB), (b, MiB // 2, MiB), (c, 3 * MiB, 2 * MiB),
    ):
        env.run(fs.submit(f, IORequest("write", off, nbytes)))
    done("write", fs)
    env.run(fs.fsync(b))
    done("fsync", fs)
    d = env.run(fs.create("/d"))
    env.run(fs.submit(d, IORequest("write", 0, 6 * MiB)))
    done("write", fs)
    env.run(fs.fsync(a))
    done("fsync", fs)
    return fs.cache


_CACHE_CELLS = {
    "fragmented_readahead": _cache_fragmented_readahead,
    "fsync_one_of_three": _cache_fsync_one_of_three,
    "nfs_throttle": _cache_nfs_throttle,
    "fill_dirty_victims": _cache_fill_dirty_victims,
    "absorb_dirty_victim": _cache_absorb_dirty_victim,
}


@functools.lru_cache(maxsize=None)
def _golden_cache(name: str) -> dict:
    times: list = []

    def done(tag, owner):
        times.append([tag, owner.cache.dirty_bytes, owner.env.now])

    with calendar_digest() as cal:
        cache = _CACHE_CELLS[name](Environment(), done)
    return {
        "completions": times,
        "stats": dataclasses.asdict(cache.stats),
        "calendar": cal,
    }


def _golden_scenario(build) -> dict:
    times: list = []
    with calendar_digest() as cal:
        env = Environment()
        build(env, times)
        env.run()
    return {"completions": [list(t) for t in times], "calendar": cal}


#: name -> (level, members, failed member)
_DEGRADED_CELLS = {
    "raid5_rebuild": (RAIDLevel.RAID5, 5, 1),
    "raid10_rebuild": (RAIDLevel.RAID10, 4, 0),
}

#: foreground traffic of a degraded cell: (tag, start, op, offset,
#: nbytes, count, stride, cached)
_DEGRADED_FOREGROUND = (
    ("seq_read", 0.0, READ, 0, 1 * MiB, 8, None, True),
    ("cached_write", 0.0, WRITE, 64 * MiB, 1 * MiB, 12, None, True),
    ("strided_read", 0.013, READ, 8 * MiB, 4 * KiB, 64, 96 * KiB, True),
    ("direct_write", 0.021, WRITE, 200 * MiB, 512 * KiB, 6, None, False),
    ("strided_write", 0.040, WRITE, 32 * MiB, 8 * KiB, 40, 1 * MiB, False),
    ("late_read", 0.150, READ, 300 * MiB, 2 * MiB, 3, None, True),
)


@functools.lru_cache(maxsize=None)
def _golden_degraded(name: str) -> dict:
    """A rate-capped rebuild of one failed member while foreground reads
    and writes (cached ones through the controller write-back cache)
    queue on the same member heads."""
    level, ndisks, failed = _DEGRADED_CELLS[name]
    times: list = []
    with calendar_digest() as cal:
        env = Environment()
        arr = RAIDArray(
            env, RAIDConfig(level=level, ndisks=ndisks, disk=SMALL_DISK, cache_bytes=8 * MiB)
        )
        arr.fail_disk(failed)
        rebuild = arr.start_rebuild(failed, rebuild_bytes=24 * MiB, rate_Bps=96 * MiB)
        rebuild.callbacks.append(lambda ev: times.append(["rebuild", ev.value, env.now]))

        def foreground(tag, at, op, offset, nbytes, count, stride, cached):
            if at:
                yield env.timeout(at)
            yield arr.submit(op, offset, nbytes, count, stride, cached=cached)
            times.append([tag, env.now])

        for args in _DEGRADED_FOREGROUND:
            env.process(foreground(*args))
        env.run()
    return {
        "completions": times,
        "rebuild_stats": dataclasses.asdict(arr.rebuild_stats),
        "calendar": cal,
    }


_GOLDEN_SCENARIOS = {
    **_RING_SCENARIOS,
    **{
        name: functools.partial(_build_coupled, **kwargs)
        for name, kwargs in _COUPLED_SCENARIOS.items()
    },
}


def _golden_cells() -> dict:
    """Every golden cell, computed now in the shipped kernel mode."""
    return {
        "characterization": {d: _golden_characterization(d) for d in DEVICES},
        "iozone": {d: _golden_iozone(d) for d in DEVICES},
        "ior": {d: _golden_ior(d) for d in DEVICES},
        "btio": {"jbod": _golden_btio("jbod")},
        "scenarios": {n: _golden_scenario(b) for n, b in sorted(_GOLDEN_SCENARIOS.items())},
        "degraded": {n: _golden_degraded(n) for n in _DEGRADED_CELLS},
        "mpi": {n: _golden_mpi(n) for n in _MPI_CELLS},
        "cache": {n: _golden_cache(n) for n in _CACHE_CELLS},
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("device", DEVICES)
def test_characterization_matches_golden(device):
    assert _golden_characterization(device) == _golden()["characterization"][device]


@pytest.mark.parametrize("device", DEVICES)
def test_iozone_eight_workloads_match_golden(device):
    got = _golden_iozone(device)
    assert len({test for test, _ in got["rows"]}) == 8
    assert got == _golden()["iozone"][device]


@pytest.mark.parametrize("device", DEVICES)
def test_ior_matches_golden(device):
    assert _golden_ior(device) == _golden()["ior"][device]


def test_btio_matches_golden():
    assert _golden_btio("jbod") == _golden()["btio"]["jbod"]


@pytest.mark.parametrize("name", sorted(_GOLDEN_SCENARIOS))
def test_scenario_matches_golden(name):
    got = _golden_scenario(_GOLDEN_SCENARIOS[name])
    assert got["completions"], "scenario completed no holders"
    assert got == _golden()["scenarios"][name]


@pytest.mark.parametrize("name", list(_DEGRADED_CELLS))
def test_degraded_rebuild_matches_golden(name):
    got = _golden_degraded(name)
    assert ["rebuild", "rebuilt"] in [c[:2] for c in got["completions"]]
    assert len(got["completions"]) == len(_DEGRADED_FOREGROUND) + 1
    assert got["rebuild_stats"]["completed"] == 1
    assert got == _golden()["degraded"][name]


@pytest.mark.parametrize("name", list(_MPI_CELLS))
def test_mpi_matches_golden(name):
    got = _golden_mpi(name)
    assert {c[1] for c in got["completions"]} == {0, 1, 2, 3}
    assert got == _golden()["mpi"][name]


@pytest.mark.parametrize("name", list(_CACHE_CELLS))
def test_cache_matches_golden(name):
    got = _golden_cache(name)
    assert got["stats"]["evictions"] > 0
    assert got == _golden()["cache"][name]


# ----------------------------------------------------------------------
# former kernel modes: the one kernel reproduces what each produced
# ----------------------------------------------------------------------
def _values_sha256(cell: dict) -> str:
    """Digest of a cell's simulated values: everything but the calendar."""
    values = {k: v for k, v in cell.items() if k != "calendar"}
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _former_mode(mode: str, cell: str) -> str:
    return _golden()["former_modes"][mode][cell]


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_characterization_tables_bit_identical(device, mode):
    got = _golden_characterization(device)
    assert _values_sha256(got) == _former_mode(mode, f"characterization/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_iozone_eight_workloads_bit_identical(device, mode):
    got = _golden_iozone(device)
    assert len({test for test, _ in got["rows"]}) == 8
    assert _values_sha256(got) == _former_mode(mode, f"iozone/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_ior_bit_identical(device, mode):
    assert _values_sha256(_golden_ior(device)) == _former_mode(mode, f"ior/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
def test_btio_bit_identical(mode):
    assert _values_sha256(_golden_btio("jbod")) == _former_mode(mode, "btio/jbod")


def _dump_golden(cells: dict) -> str:
    """The golden file's layout: one line per cell, so a changed cell
    shows up as a one-line diff."""
    kinds = []
    for kind, group in cells.items():
        rows = ",\n".join(f"  {json.dumps(n)}: {json.dumps(c)}" for n, c in group.items())
        kinds.append(f" {json.dumps(kind)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(kinds) + "\n}\n"


if __name__ == "__main__":
    # regenerate the golden file: PYTHONPATH=src python tests/test_kernel_determinism.py
    # former_modes records implementations that no longer exist, so it is
    # carried over as written rather than recomputed
    cells = _golden_cells()
    cells["former_modes"] = _golden()["former_modes"]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(_dump_golden(cells))
