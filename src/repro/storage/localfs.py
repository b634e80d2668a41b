"""Local (ext4-like) filesystem on top of a block array.

This is the "devices / local filesystem" level of the paper's I/O
path.  It combines:

* an extent-based allocator (files are laid out in large contiguous
  extents, as ext4's delayed allocation achieves in practice);
* the node's :class:`~repro.storage.cache.PageCache`, driven by the
  shared client steps of :mod:`repro.storage.cache`, with background
  flushing, dirty throttling and filesystem readahead;
* per-operation syscall and memcpy CPU costs;
* journalled metadata operations: create, unlink and fsync each pay
  CPU, then write back the file's dirty segments (fsync only), then a
  journal write, then apply their effect.

Writes are absorbed by the page cache and reach the device through
write-back.  Because the cache tracks *dirty bytes per segment*, the
flush cost of a sparsely-dirtied region degenerates to random
page-sized device writes while dense regions flush as large
sequential writes — so a small-strided workload throttles at the
array's random-write rate and a streaming one at its sequential rate,
with no per-workload special cases.  Reads miss to the device in
coalesced runs extended by a readahead window; files that are fully
resident are served from memory regardless of access pattern (the
effect behind the paper's >100% "used percentage" entries).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..simengine import Environment, Event, FlatOp, Resource
from ..hardware.node import Node
from ..hardware.raid import RAIDArray
from .base import IORequest, KiB, MiB, random_stride
from .cache import CacheSpec, DirtyInsert, PageCache, ReadScan, WriteBack

__all__ = ["LocalFSSpec", "Inode", "LocalFS"]


@dataclass(frozen=True)
class LocalFSSpec:
    """Cost parameters of the filesystem implementation."""

    syscall_s: float = 1.4e-6  # per read()/write() entry
    open_s: float = 45e-6
    create_s: float = 220e-6  # includes journal record
    close_s: float = 15e-6
    unlink_s: float = 260e-6
    min_io_bytes: int = 4 * KiB  # page-granular device I/O
    readahead_bytes: int = 1 * MiB  # sequential readahead window
    extent_bytes: int = 8 * MiB  # allocation granularity
    journal_write_bytes: int = 8 * KiB
    #: fraction of node RAM available to the page cache
    cache_fraction: float = 0.85
    #: a flush run at least this dense writes the whole run sequentially
    dense_flush_threshold: float = 0.5


@dataclass
class Inode:
    """Namespace entry; data extents map file offsets to device offsets."""

    fileid: int
    path: str
    size: int = 0
    # extents: (file_offset, device_offset, length) — appended in file
    # order, so file offsets are contiguous from 0 and sorted
    extents: list[tuple[int, int, int]] = field(default_factory=list)

    def allocated_bytes(self) -> int:
        if not self.extents:
            return 0
        fo, _do, ln = self.extents[-1]
        return fo + ln

    def device_offset(self, file_offset: int) -> int:
        """Device byte address backing ``file_offset``."""
        i = bisect.bisect_right(self.extents, file_offset, key=lambda e: e[0]) - 1
        if i >= 0:
            fo, do, ln = self.extents[i]
            if fo <= file_offset < fo + ln:
                return do + (file_offset - fo)
        raise KeyError(f"offset {file_offset} beyond allocation of {self.path!r}")


@dataclass
class FSStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    opens: int = 0
    creates: int = 0
    flush_runs: int = 0


class LocalFS:
    """A mounted local filesystem instance on one node."""

    FLUSH_BATCH_SEGS = 64
    #: sparse requests touching more segments than this many cache
    #: capacities are charged arithmetically instead of per-segment
    OVERFLOW_FACTOR = 4

    def __init__(
        self,
        env: Environment,
        node: Node,
        array: RAIDArray,
        spec: LocalFSSpec | None = None,
        cache_spec: CacheSpec | None = None,
        name: str = "localfs",
    ):
        self.env = env
        self.node = node
        self.array = array
        self.spec = spec or LocalFSSpec()
        if cache_spec is None:
            cache_spec = CacheSpec(
                capacity_bytes=int(node.spec.ram_bytes * self.spec.cache_fraction)
            )
        self.cache = PageCache(cache_spec, name=f"{name}.cache")
        self.name = name
        self.stats = FSStats()
        self._inodes: dict[str, Inode] = {}
        self._by_id: dict[int, Inode] = {}
        self._next_fileid = 1
        self._alloc_cursor = 0
        self._flusher_running = False
        self._flush_waiters: list[Event] = []
        self._inode_locks: dict[int, object] = {}

    # ------------------------------------------------------------------
    # namespace operations (each returns an Event)
    # ------------------------------------------------------------------
    def create(self, path: str) -> Event:
        """Create (or truncate) a file; value is the :class:`Inode`."""
        return _LocalJournaled(self, self.spec.create_s, lambda: self._created(path)).result

    def open(self, path: str, create: bool = False) -> Event:
        """Open an existing file; value is the :class:`Inode`."""
        if path not in self._inodes:
            if create:
                return self.create(path)
            raise FileNotFoundError(path)
        return _LocalOpen(self, self._inodes[path]).result

    def close(self, inode: Inode) -> Event:
        return self.env.timeout(self.spec.close_s, value=inode)

    def unlink(self, path: str) -> Event:
        inode = self._inodes.get(path)
        if inode is None:
            raise FileNotFoundError(path)
        return _LocalJournaled(
            self, self.spec.unlink_s, lambda: self._unlinked(path, inode)
        ).result

    def _created(self, path: str) -> Inode:
        """Journaled effect of :meth:`create`: a new inode, or the
        existing one truncated."""
        inode = self._inodes.get(path)
        if inode is None:
            inode = Inode(self._next_fileid, path)
            self._next_fileid += 1
            self._inodes[path] = inode
            self._by_id[inode.fileid] = inode
        else:
            inode.size = 0
            self.cache.drop_file(inode.fileid)
        self.stats.creates += 1
        return inode

    def _unlinked(self, path: str, inode: Inode) -> None:
        """Journaled effect of :meth:`unlink`: drop the inode and its
        cached segments."""
        self.cache.drop_file(inode.fileid)
        del self._inodes[path]
        del self._by_id[inode.fileid]

    def stat(self, path: str) -> Inode:
        if path not in self._inodes:
            raise FileNotFoundError(path)
        return self._inodes[path]

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def paths(self) -> list[str]:
        return list(self._inodes)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, inode: Inode, req: IORequest) -> Event:
        """Serve a data request; the event fires when it is *accepted*
        (writes: resident in cache under write-back; reads: data
        available in the caller's buffer)."""
        return _LocalIO(self, inode, req).result

    def submit_direct(self, inode: Inode, req: IORequest) -> Event:
        """MPI-IO access path; on a local filesystem it is the normal
        page-cached path (syscalls are already synchronous)."""
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, req.total_bytes)
        return self.submit(inode, req)

    def submit_serialized_write(self, inode: Inode, req: IORequest, per_op_s: float) -> Event:
        """Small synchronous writes under the per-inode mutex.

        NFS servers serialise writes to one file on the inode mutex;
        each operation additionally pays ``per_op_s`` of VFS/ext4
        service time.  This is the server-side path of ROMIO-style
        synchronous small strided writes (NAS BT-IO *simple*): the
        data still lands in the page cache (and flushes normally), but
        concurrent writers to a shared file make no aggregate progress
        beyond ``1 / per_op_s`` operations per second.
        """
        if req.op != "write":
            raise ValueError("submit_serialized_write is write-only")
        return _LocalSerializedWrite(self, inode, req, per_op_s).result

    def _ilock(self, inode: Inode) -> Resource:
        lock = self._inode_locks.get(inode.fileid)
        if lock is None:
            lock = self._inode_locks[inode.fileid] = Resource(
                self.env, 1, name=f"{self.name}.ilock{inode.fileid}"
            )
        return lock

    def absorb(self, inode: Inode, req: IORequest) -> int:
        """Apply a request's *state* side effects without simulating it.

        Used by the phase-replay fastpath: once a phase's per-occurrence
        timing is verified steady, remaining occurrences are charged
        analytically — but file growth, allocation and cache residency
        must still happen so that later (simulated) phases see the same
        filesystem state full replay would have left.  Advances no
        simulated time.  Absorbed writes land *clean*: a steady write
        phase's measured duration already includes its amortised flush
        cost, so the flusher is modelled as having kept up.
        """
        total = req.total_bytes
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, total)
        if req.op == "write":
            end = req.offset + req.span
            self._ensure_allocation(inode, end)
            inode.size = max(inode.size, end)
            self.stats.writes += req.count
            self.stats.bytes_written += total
        else:
            self.stats.reads += req.count
            self.stats.bytes_read += total
        if req.is_dense:
            span = req.span
            if req.op == "read":
                span = min(span, max(inode.size - req.offset, 0))
            # misses land clean; dirty victims were already flushed
            # analytically as part of the steady-state timing
            cache = self.cache
            fileid = inode.fileid
            segs = cache.segments_of(req.offset, span)
            s, end = segs.start, segs.stop
            while s < end:
                hit, n = cache.span(fileid, s, end)
                if hit:
                    cache.touch_run(fileid, range(s, s + n))
                else:
                    n = cache.insert_run(fileid, s, n, 0, None)[0]
                    cache.stats.misses += n
                s += n
        return total

    def state_token(self, inode: Inode, req: IORequest) -> tuple:
        """Coarse fingerprint of the cache state governing a request's
        service time, used as part of the replay phase key.

        A phase occurrence's duration depends not only on its geometry
        but on the regime the cache is in when it starts: whether the
        target range is resident (none / partial / full), and whether
        the cache is under background-flush or writer-throttle
        pressure.  Folding this into the key splits a drifting phase
        (cache still filling, flusher ramping up) into per-regime
        phases that each verify independently — a regime change after
        verification changes the key and forces re-simulation instead
        of extrapolating a stale steady value.
        """
        segs = self.cache.segments_of(req.offset, req.span)
        n = len(segs)
        if n == 0:
            res = 0
        else:
            # probing first/middle/last segments classifies the regime
            # in O(1); the token is a heuristic key component, so the
            # approximation only needs to be deterministic
            probes = sorted({segs[0], segs[n // 2], segs[-1]})
            hits = sum(1 for s in probes if self.cache.is_resident(inode.fileid, s))
            res = 0 if hits == 0 else (2 if hits == len(probes) else 1)
        return (res, self.cache.need_background_flush, self.cache.need_throttle)

    def fsync(self, inode: Inode) -> Event:
        """Flush the file's dirty segments to the device."""
        return _LocalJournaled(self, self.spec.syscall_s, lambda: None, inode.fileid).result

    def sync(self) -> Event:
        """Flush everything dirty and drain the array's cache."""
        return _LocalSync(self).result

    # -- write -------------------------------------------------------------
    def _dirty_plan(self, req: IORequest) -> tuple[list[tuple[int, int, int]], int]:
        """``(first, nsegs, dirty_bytes)`` runs a request dirties, plus an
        arithmetic overflow remainder in bytes for huge sparse streams."""
        cache = self.cache
        if req.is_dense:
            return cache.dense_runs(req.offset, req.span), 0
        sb = cache.spec.segment_bytes
        cap = self.OVERFLOW_FACTOR * cache.spec.nsegments
        stride = req.op_stride(self.spec.min_io_bytes)
        if stride < sb:
            # Dirtiness spreads uniformly over the span: one run of at
            # most ``cap`` segments, the rest charged arithmetically
            segs = cache.segments_of(req.offset, req.span)
            per = max(req.total_bytes // max(len(segs), 1), 1)
            n = min(len(segs), cap)
            return [(segs[0], n, per)] if n else [], (len(segs) - n) * per
        # One (partial) segment per operation.
        n = min(req.count, cap)
        runs = [((req.offset + k * stride) // sb, 1, req.nbytes) for k in range(n)]
        return runs, (req.count - n) * req.nbytes

    # -- write-back machinery ------------------------------------------------
    def _journal_offset(self) -> int:
        # fixed journal region at the tail of the device
        return max(self.array.capacity_bytes - 128 * MiB, 0)

    def _ensure_allocation(self, inode: Inode, upto: int) -> None:
        have = inode.allocated_bytes()
        if upto <= have:
            return
        need = upto - have
        ext = self.spec.extent_bytes
        length = ((need + ext - 1) // ext) * ext
        usable = max(self.array.capacity_bytes - 256 * MiB, length)
        start = self._alloc_cursor % usable
        self._alloc_cursor = start + length
        inode.extents.append((have, start, length))

    def _kick_flusher(self) -> None:
        if not self._flusher_running:
            self._flusher_running = True
            _LocalFlusher(self)

    # -- page-cache transport (see repro.storage.cache.CacheClient) ---------
    def _read_run(self, op, inode, off, nbytes, k) -> None:
        self._ensure_allocation(inode, off + nbytes)
        op._await(self.array.submit("read", inode.device_offset(off), nbytes), k)

    def _write_run(self, op, inode, off, nbytes, dirty, k) -> None:
        """A densely dirty run flushes as one sequential write, a sparse
        one as scattered page-sized writes."""
        self._ensure_allocation(inode, off + nbytes)
        dev = inode.device_offset(off)
        if dirty / nbytes >= self.spec.dense_flush_threshold:
            ev = self.array.submit("write", dev, nbytes, cached=False)
        else:
            nb = self.spec.min_io_bytes
            nops = max(dirty // nb, 1)
            ev = self.array.submit("write", dev, nb, nops, max(nbytes // nops, nb), cached=False)
        stats = self.stats

        def written(v):
            stats.flush_runs += 1
            k(v)

        op._await(ev, written)

    def _throttle(self, op, k) -> None:
        _FlatThrottle(self, op, k)


# ----------------------------------------------------------------------
# service paths: flat state machines on the kernel calendar
# ----------------------------------------------------------------------
class _FlatThrottle:
    """Block the writer until the flusher drains below the dirty limit."""

    __slots__ = ("fs", "op", "k")

    def __init__(self, fs, op, k):
        self.fs = fs
        self.op = op
        self.k = k
        self._check()

    def _check(self, _v=None):
        fs = self.fs
        if fs.cache.need_throttle:
            fs._kick_flusher()
            ev = Event(fs.env)
            fs._flush_waiters.append(ev)
            self.op._await(ev, self._check)
        else:
            self.k()


class _LocalIO(FlatOp):
    """A read or write: syscall and copy CPU, then

    * a write dirties the page cache (:class:`~repro.storage.cache.DirtyInsert`,
      throttled on the flusher) and sends any overflow of a stream far
      larger than the cache straight to the device at the pattern's
      natural rate;
    * a read is served from a fully resident file, scans a dense range
      (:class:`~repro.storage.cache.ReadScan`, extended by the readahead
      window at the tail), or issues page-granular device reads per
      operation (sparse cold reads).
    """

    __slots__ = ("fs", "inode", "req", "total", "_overflow")

    def __init__(self, fs, inode, req):
        self.fs = fs
        self.inode = inode
        self.req = req
        super().__init__(fs.env)

    def _start(self, _v):
        fs = self.fs
        req = self.req
        total = self.total = req.total_bytes
        self._sleep(
            req.count * fs.spec.syscall_s + fs.node.memcpy_time(total),
            self._write if req.op == "write" else self._read,
        )

    def _write(self, _v):
        fs = self.fs
        req = self.req
        end = req.offset + req.span
        fs._ensure_allocation(self.inode, end)
        fs.stats.writes += req.count
        fs.stats.bytes_written += self.total
        plan, self._overflow = fs._dirty_plan(req)
        DirtyInsert(fs, self, self.inode.fileid, plan, self._after_plan)

    def _after_plan(self):
        fs = self.fs
        if self._overflow:
            req = self.req
            nb = max(req.nbytes, fs.spec.min_io_bytes)
            dev = self.inode.device_offset(0)
            self._await(
                fs.array.submit(
                    "write", dev, nb, max(self._overflow // nb, 1), random_stride(nb), cached=False
                ),
                self._after_overflow,
            )
            return
        self._after_overflow(None)

    def _after_overflow(self, _v):
        fs = self.fs
        if fs.cache.need_background_flush:
            fs._kick_flusher()
        inode = self.inode
        req = self.req
        inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)

    def _read(self, _v):
        fs = self.fs
        req = self.req
        inode = self.inode
        spec = fs.spec
        fs.stats.reads += req.count
        fs.stats.bytes_read += self.total

        if req.offset >= inode.size:
            # read at/past EOF: POSIX short/zero read, no device work
            self._finish(self.total)
            return
        span = min(req.span, max(inode.size - req.offset, 0))
        if fs.cache.file_fully_resident(inode.fileid, max(inode.size, 1)):
            fs.cache.touch_run(inode.fileid, fs.cache.segments_of(req.offset, span))
            self._finish(self.total)
            return
        if req.is_dense:
            ReadScan(
                fs, self, inode, fs.cache.segments_of(req.offset, span),
                spec.readahead_bytes // fs.cache.spec.segment_bytes, self._done,
            )
            return
        nb = max(req.nbytes, spec.min_io_bytes)
        dev = inode.device_offset(min(req.offset, max(inode.size - 1, 0)))
        fs.cache.stats.misses += req.count
        self._await(
            fs.array.submit("read", dev, nb, req.count, req.op_stride(spec.min_io_bytes)),
            self._done,
        )

    def _done(self, _v=None):
        self._finish(self.total)


class _LocalFlusher(FlatOp):
    """The background flusher: write back dirty batches while the cache
    is above its background threshold, waking throttled writers after
    each batch."""

    __slots__ = ("fs",)

    def __init__(self, fs):
        self.fs = fs
        super().__init__(fs.env)

    def _start(self, _v):
        self._loop()

    def _loop(self, _v=None):
        fs = self.fs
        while fs.cache.need_background_flush:
            batch = fs.cache.dirty_segments(limit=fs.FLUSH_BATCH_SEGS)
            if not batch:
                break
            WriteBack(fs, self, batch, self._batch_done)
            return
        fs._flusher_running = False
        waiters, fs._flush_waiters = fs._flush_waiters, []
        for w in waiters:
            w.succeed()
        self._finish(None)

    def _batch_done(self, _v=None):
        fs = self.fs
        waiters, fs._flush_waiters = fs._flush_waiters, []
        for w in waiters:
            w.succeed()
        self._loop()


class _LocalJournaled(FlatOp):
    """A journaled metadata operation (create, unlink, fsync): ``cpu_s``
    of CPU, write-back of the dirty segments of file ``flush_fileid``
    (fsync; no file flushes nothing), a journal write, then ``effect()``
    is the result."""

    __slots__ = ("fs", "cpu_s", "effect", "flush_fileid")

    def __init__(self, fs, cpu_s, effect, flush_fileid=None):
        self.fs = fs
        self.cpu_s = cpu_s
        self.effect = effect
        self.flush_fileid = flush_fileid
        super().__init__(fs.env)

    def _start(self, _v):
        self._sleep(self.cpu_s, self._after_cpu)

    def _after_cpu(self, _v):
        fs = self.fs
        fileid = self.flush_fileid
        entries = [] if fileid is None else fs.cache.dirty_segments(limit=None, fileid=fileid)
        WriteBack(fs, self, entries, self._flushed)

    def _flushed(self, _v=None):
        fs = self.fs
        self._await(
            fs.array.submit("write", fs._journal_offset(), fs.spec.journal_write_bytes),
            self._journaled,
        )

    def _journaled(self, _v):
        self._finish(self.effect())


class _LocalOpen(FlatOp):
    """open: CPU, then the existing inode."""

    __slots__ = ("fs", "inode")

    def __init__(self, fs, inode):
        self.fs = fs
        self.inode = inode
        super().__init__(fs.env)

    def _start(self, _v):
        self._sleep(self.fs.spec.open_s, self._opened)

    def _opened(self, _v):
        self.fs.stats.opens += 1
        self._finish(self.inode)


class _LocalSerializedWrite(FlatOp):
    """:meth:`LocalFS.submit_serialized_write`: per-op service time and
    the write itself, under the per-inode mutex."""

    __slots__ = ("fs", "inode", "req", "per_op_s", "_lock", "_grant")

    def __init__(self, fs, inode, req, per_op_s):
        self.fs = fs
        self.inode = inode
        self.req = req
        self.per_op_s = per_op_s
        self._lock = None
        self._grant = None
        super().__init__(fs.env)

    def _start(self, _v):
        lock = self._lock = self.fs._ilock(self.inode)
        self._grant = lock.request(self._locked)

    def _locked(self, _v):
        self._sleep(self.req.count * self.per_op_s, self._after_cpu)

    def _after_cpu(self, _v):
        self._await(self.fs.submit(self.inode, self.req), self._written)

    def _written(self, _v):
        self._release()
        self._finish(self.req.total_bytes)

    def _release(self):
        grant = self._grant
        if grant is not None and grant in self._lock.users:
            self._lock.release(grant)

    def _cleanup(self):
        self._release()


class _LocalSync(FlatOp):
    """sync: flush everything dirty, then drain the array's cache."""

    __slots__ = ("fs",)

    def __init__(self, fs):
        self.fs = fs
        super().__init__(fs.env)

    def _start(self, _v):
        fs = self.fs
        WriteBack(fs, self, fs.cache.dirty_segments(limit=None), self._flushed)

    def _flushed(self, _v=None):
        self._await(self.fs.array.flush(), self._drained)

    def _drained(self, _v):
        self._finish(None)
