"""OS page-cache model and the one client protocol that drives it.

Tracks residency and dirtiness of file data at *segment* granularity
(default 1 MiB) with LRU replacement.  Each resident segment carries a
count of **dirty bytes**, so the flush cost of a sparsely-dirtied
segment (a few 4 KiB pages scattered in it) differs from a fully
dirty one — sparse write streams therefore throttle at the device's
random-write rate while dense streams throttle at its sequential
rate, with no workload-specific special cases.

:class:`PageCache` itself is pure bookkeeping — it advances no
simulated time.  Every insertion goes through one walk,
:meth:`PageCache.insert_run`: a run of segments gains the same dirty
bytes each, resident ones are refreshed and new ones evict the LRU
head; the walk stops over a dirty limit (the writer throttle) or after
a segment that evicted dirty victims, so the caller can write those
back at the right simulated time.  A write is planned as
``(first, nsegs, dirty_bytes)`` runs: a dense one is at most a partial
head, the full middle and a partial tail (:meth:`PageCache.dense_runs`).

The cache *policy* lives in four client steps below it, written once
for every owner:

* :class:`FillRuns` — coalesce the misses, read each run, insert it
  clean, writing dirty victims back before going on;
* :class:`ReadScan` — a dense read: touch the hits, fill each run of
  misses, the last one extended by the owner's readahead;
* :class:`DirtyInsert` — a write: insert its runs, throttling over the
  dirty limit and writing dirty victims back;
* :class:`WriteBack` — write dirty runs back and mark them clean.

An owner (:class:`CacheClient`) supplies only its transport: how a run
is read or written and how a writer is throttled.  The local
filesystem moves runs to its RAID array and throttles on its flusher;
the NFS client sends READ/WRITE RPC streams and throttles by pushing
its oldest dirty segments.

"State and placement of buffer/cache" is one of the paper's
configurable factors: the same class serves as the local filesystem's
page cache, the NFS client cache and the NFS server cache, sized by
each node's RAM.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol

from .base import MiB

__all__ = [
    "CacheSpec",
    "PageCache",
    "CacheStats",
    "CacheClient",
    "FillRuns",
    "ReadScan",
    "DirtyInsert",
    "WriteBack",
]


@dataclass(frozen=True)
class CacheSpec:
    """Sizing and dirty limits of a (write-back) page cache."""

    capacity_bytes: int
    segment_bytes: int = 1 * MiB
    #: writers are throttled while dirty bytes exceed this fraction
    dirty_ratio: float = 0.40
    #: background write-back starts above this fraction
    background_ratio: float = 0.10

    def __post_init__(self):
        if self.capacity_bytes <= 0 or self.segment_bytes <= 0:
            raise ValueError("capacity and segment size must be positive")
        if not 0.0 < self.background_ratio <= self.dirty_ratio <= 1.0:
            raise ValueError("need 0 < background_ratio <= dirty_ratio <= 1")

    @property
    def nsegments(self) -> int:
        return max(1, self.capacity_bytes // self.segment_bytes)

    @property
    def dirty_limit_bytes(self) -> int:
        return int(self.capacity_bytes * self.dirty_ratio)

    @property
    def background_limit_bytes(self) -> int:
        return int(self.capacity_bytes * self.background_ratio)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU segment cache over (file-id, segment-number) keys.

    Recency lives in :class:`collections.OrderedDict` order rather than
    plain dict order: evicting the LRU entry of a plain dict with
    ``next(iter(d))`` walks the tombstones that earlier front deletions
    left behind, while ``popitem(last=False)`` on an OrderedDict is O(1)
    however long the eviction stream runs.
    """

    def __init__(self, spec: CacheSpec, name: str = "pagecache"):
        self.spec = spec
        self.name = name
        # key -> dirty byte count (0 == clean); order == recency (last = MRU)
        self._segs: OrderedDict[tuple[int, int], int] = OrderedDict()
        # dirty keys only, with the same byte counts and in the same
        # relative order they hold in _segs, so the flusher's
        # oldest-first walk never scans clean entries
        self._dirty: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._dirty_total = 0
        self._file_resident: dict[int, int] = {}  # fileid -> resident seg count
        self._sb = spec.segment_bytes
        self._nsegments = spec.nsegments
        self.stats = CacheStats()

    # -- geometry helpers -------------------------------------------------
    def segments_of(self, offset: int, nbytes: int) -> range:
        """Segment numbers covering the byte range."""
        sb = self.spec.segment_bytes
        if nbytes <= 0:
            return range(0)
        return range(offset // sb, (offset + nbytes - 1) // sb + 1)

    def dense_runs(self, offset: int, nbytes: int) -> list[tuple[int, int, int]]:
        """``(first, nsegs, dirty_bytes)`` runs of a dense byte range: a
        partial head segment, the full middle and a partial tail."""
        sb = self._sb
        if nbytes <= 0:
            return []
        end = offset + nbytes
        first = offset // sb
        last = (end - 1) // sb
        if first == last:
            return [(first, 1, nbytes)]
        runs = []
        head = (first + 1) * sb - offset
        if head < sb:
            runs.append((first, 1, head))
            first += 1
        tail = end - last * sb
        if tail < sb:
            last -= 1
        if last >= first:
            runs.append((first, last - first + 1, sb))
        if tail < sb:
            runs.append((last + 1, 1, tail))
        return runs

    # -- state queries -----------------------------------------------------
    @property
    def dirty_bytes(self) -> int:
        return self._dirty_total

    @property
    def need_throttle(self) -> bool:
        return self._dirty_total > self.spec.dirty_limit_bytes

    @property
    def need_background_flush(self) -> bool:
        return self._dirty_total > self.spec.background_limit_bytes

    def is_resident(self, fileid: int, seg: int) -> bool:
        return (fileid, seg) in self._segs

    def file_resident_segments(self, fileid: int) -> int:
        return self._file_resident.get(fileid, 0)

    def file_fully_resident(self, fileid: int, file_bytes: int) -> bool:
        """True when every segment of the file is cached."""
        sb = self.spec.segment_bytes
        nsegs = (file_bytes + sb - 1) // sb
        return nsegs > 0 and self.file_resident_segments(fileid) >= nsegs

    # -- mutation -----------------------------------------------------------
    def touch(self, fileid: int, seg: int) -> bool:
        """Record an access; returns True on hit (and refreshes LRU)."""
        key = (fileid, seg)
        segs = self._segs
        val = segs.get(key)
        if val is not None:
            segs.move_to_end(key)
            if val:
                self._dirty.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert_run(
        self, fileid: int, first: int, nsegs: int, dirty: int, limit: int | None
    ) -> tuple[int, list[tuple[int, int, int]]]:
        """Make segments ``first .. first + nsegs - 1`` resident, each
        gaining ``dirty`` newly dirty bytes (capped at the segment size).

        A resident segment is refreshed to MRU; a new one evicts the LRU
        head while the cache is full.  With a ``limit``, the walk stops
        before any segment that finds more than ``limit`` bytes dirty
        (the writer throttle).  It stops after any segment whose
        insertion evicted dirty victims.  Returns ``(inserted,
        victims)``: how many leading segments were inserted and the
        evicted dirty victims as ``(fileid, seg, dirty_bytes)``, which
        the caller must write back (and charge the time for).  Clean
        victims vanish silently.
        """
        sb = self._sb
        if dirty > sb:
            dirty = sb
        if limit is None:
            limit = sys.maxsize
        segs = self._segs
        get = segs.get
        move = segs.move_to_end
        evict = segs.popitem
        dirty_segs = self._dirty
        dmove = dirty_segs.move_to_end
        nmax = self._nsegments
        file_resident = self._file_resident
        stats = self.stats
        total = self._dirty_total
        victims: list[tuple[int, int, int]] = []
        # counted once after the walk; the walk may evict this file's
        # own segments, so the entry must exist before it
        file_resident.setdefault(fileid, 0)
        done = added = 0
        for s in range(first, first + nsegs):
            if total > limit:
                break
            key = (fileid, s)
            done += 1
            old = get(key)
            if old is not None:
                move(key)
                if dirty:
                    new = old + dirty
                    if new > sb:
                        new = sb
                    segs[key] = new
                    total += new - old
                    dirty_segs[key] = new
                    dmove(key)
                elif old:
                    dmove(key)
                continue
            while len(segs) >= nmax:
                vkey, vdirty = evict(last=False)
                file_resident[vkey[0]] -= 1
                stats.evictions += 1
                if vdirty:
                    total -= vdirty
                    stats.dirty_evictions += 1
                    del dirty_segs[vkey]
                    victims.append((vkey[0], vkey[1], vdirty))
            segs[key] = dirty
            if dirty:
                dirty_segs[key] = dirty
                total += dirty
            added += 1
            if victims:
                break
        self._dirty_total = total
        file_resident[fileid] += added
        return done, victims

    def touch_run(self, fileid: int, seg_range: Iterable[int]) -> None:
        """Record a run of accesses; equivalent to :meth:`touch` per
        segment (LRU refresh, statistics) without a method call each."""
        get = self._segs.get
        move = self._segs.move_to_end
        dmove = self._dirty.move_to_end
        stats = self.stats
        for s in seg_range:
            key = (fileid, s)
            old = get(key)
            if old is None:
                stats.misses += 1
                continue
            move(key)
            if old:
                dmove(key)
            stats.hits += 1

    def mark_clean_run(self, fileid: int, first: int, nsegs: int) -> None:
        """Mark segments ``first .. first + nsegs - 1`` of a file clean.
        Cleaning never reorders recency, and non-resident segments are
        skipped."""
        segs = self._segs
        pop = self._dirty.pop
        freed = 0
        for s in range(first, first + nsegs):
            key = (fileid, s)
            amount = pop(key, 0)
            if amount:
                segs[key] = 0
                freed += amount
        self._dirty_total -= freed

    def dirty_segments(
        self, limit: int | None = None, fileid: int | None = None
    ) -> list[tuple[int, int, int]]:
        """Oldest-first dirty entries ``(fileid, seg, dirty_bytes)``."""
        out = []
        for (f, s), dirty in self._dirty.items():
            if fileid is None or f == fileid:
                out.append((f, s, dirty))
                if limit is not None and len(out) >= limit:
                    break
        return out

    def drop_file(self, fileid: int) -> int:
        """Invalidate every segment of a file (unlink); returns count dropped."""
        keys = [k for k in self._segs if k[0] == fileid]
        for k in keys:
            self._dirty_total -= self._segs.pop(k)
            self._dirty.pop(k, None)
        if fileid in self._file_resident:
            self._file_resident[fileid] = 0
        return len(keys)

    @staticmethod
    def coalesce(
        entries: Iterable[tuple[int, int, int]]
    ) -> Iterator[tuple[int, int, int, int]]:
        """Group ``(fileid, seg, dirty)`` into runs.

        Yields ``(fileid, first_seg, nsegs, dirty_bytes_in_run)``;
        adjacent segments of the same file merge so write-back can issue
        large contiguous device writes when the run is densely dirty.
        """
        run_file = run_start = run_len = run_dirty = None
        for fileid, seg, dirty in sorted(entries):
            if run_file == fileid and seg == run_start + run_len:
                run_len += 1
                run_dirty += dirty
            else:
                if run_file is not None:
                    yield (run_file, run_start, run_len, run_dirty)
                run_file, run_start, run_len, run_dirty = fileid, seg, 1, dirty
        if run_file is not None:
            yield (run_file, run_start, run_len, run_dirty)


# ----------------------------------------------------------------------
# the client protocol: one policy for every owner of a cache
# ----------------------------------------------------------------------
class CacheClient(Protocol):
    """An owner of a :class:`PageCache`: the cache plus its transport.

    ``_read_run``/``_write_run`` move the ``nbytes`` at file offset
    ``off`` (``dirty`` of them dirty) to or from the backing store,
    ``_throttle`` holds back a writer over the dirty limit, and
    ``_by_id`` maps file ids to the inodes that still exist.
    ``op`` is the calling :class:`~repro.simengine.FlatOp`: a transport
    waits through ``op._await`` and then calls ``k``.
    """

    cache: PageCache
    _by_id: Mapping[int, Any]

    def _read_run(self, op: Any, inode: Any, off: int, nbytes: int,
                  k: Callable[..., None]) -> None: ...

    def _write_run(self, op: Any, inode: Any, off: int, nbytes: int, dirty: int,
                   k: Callable[..., None]) -> None: ...

    def _throttle(self, op: Any, k: Callable[..., None]) -> None: ...


# The steps below have no calendar footprint of their own: they borrow
# the calling op's ``_await`` (through the owner's transport) and call
# ``k()`` when done.
class WriteBack:
    """Write dirty ``(fileid, seg, dirty_bytes)`` entries back as
    coalesced runs and mark each run clean once written; runs of files
    that no longer exist are dropped clean."""

    __slots__ = ("c", "op", "runs", "i", "k")

    def __init__(self, c: CacheClient, op, entries, k):
        self.c = c
        self.op = op
        self.runs = list(PageCache.coalesce(entries))
        self.i = 0
        self.k = k
        self._next()

    def _next(self):
        c = self.c
        runs = self.runs
        while self.i < len(runs):
            fileid, first, nsegs, dirty = runs[self.i]
            inode = c._by_id.get(fileid)
            if inode is None:
                c.cache.mark_clean_run(fileid, first, nsegs)
                self.i += 1
                continue
            sb = c.cache._sb
            c._write_run(self.op, inode, first * sb, nsegs * sb, dirty, self._written)
            return
        self.k()

    def _written(self, _v=None):
        fileid, first, nsegs, _d = self.runs[self.i]
        self.c.cache.mark_clean_run(fileid, first, nsegs)
        self.i += 1
        self._next()


class FillRuns:
    """Read missing segments as coalesced runs (each clipped at EOF to
    at least one segment) and make each run resident clean with one
    :meth:`PageCache.insert_run` walk; when a segment's insertion
    evicts dirty victims, they are written back before the walk goes
    on."""

    __slots__ = ("c", "op", "inode", "runs", "i", "s", "k")

    def __init__(self, c: CacheClient, op, inode, segs, k):
        self.c = c
        self.op = op
        self.inode = inode
        self.runs = list(PageCache.coalesce((inode.fileid, s, 0) for s in segs))
        self.i = 0
        self.s = 0
        self.k = k
        self._next()

    def _next(self):
        if self.i >= len(self.runs):
            self.k()
            return
        _fileid, first, nsegs, _d = self.runs[self.i]
        sb = self.c.cache._sb
        off = first * sb
        self.s = first
        self.c._read_run(
            self.op, self.inode, off, min(nsegs * sb, max(self.inode.size - off, sb)),
            self._insert_loop,
        )

    def _insert_loop(self, _v=None):
        fileid, first, nsegs, _d = self.runs[self.i]
        end = first + nsegs
        done, victims = self.c.cache.insert_run(fileid, self.s, end - self.s, 0, None)
        self.s += done
        if victims:
            WriteBack(self.c, self.op, victims, self._insert_loop)
            return
        self.i += 1
        self._next()


class ReadScan:
    """A dense read over the segment range ``segs``: touch each resident
    segment and fill each run of misses when the scan reaches the next
    hit; the last run is extended by ``readahead`` segments, clipped at
    the file's end."""

    __slots__ = ("c", "op", "inode", "segs", "readahead", "k", "i", "miss")

    def __init__(self, c: CacheClient, op, inode, segs, readahead, k):
        self.c = c
        self.op = op
        self.inode = inode
        self.segs = segs
        self.readahead = readahead
        self.k = k
        self.i = 0
        self.miss: list[int] = []
        self._scan()

    def _scan(self):
        c = self.c
        touch = c.cache.touch
        fileid = self.inode.fileid
        segs = self.segs
        while self.i < len(segs):
            seg = segs[self.i]
            self.i += 1
            if touch(fileid, seg):
                if self.miss:
                    miss, self.miss = self.miss, []
                    FillRuns(c, self.op, self.inode, miss, self._scan)
                    return
            else:
                self.miss.append(seg)
        miss = self.miss
        if miss:
            last = miss[-1]
            file_last = max((self.inode.size - 1) // c.cache._sb, 0)
            miss.extend(range(last + 1, min(last + self.readahead, file_last) + 1))
            self.miss = []
            FillRuns(c, self.op, self.inode, miss, self.k)
            return
        self.k()


class DirtyInsert:
    """Insert a write's plan of ``(first, nsegs, dirty_bytes)`` runs with
    :meth:`PageCache.insert_run` walks under the dirty limit.  Where a
    walk stops over the limit, the owner's throttle holds the writer and
    the stopped segment is then inserted without a second check; where
    it stops on dirty victims, they are written back before going on."""

    __slots__ = ("c", "op", "fileid", "runs", "i", "j", "k")

    def __init__(self, c: CacheClient, op, fileid, runs, k):
        self.c = c
        self.op = op
        self.fileid = fileid
        self.runs = runs
        self.i = 0  # current run
        self.j = 0  # segments of it inserted so far
        self.k = k
        self._step()

    def _step(self, _v=None):
        c = self.c
        cache = c.cache
        limit = cache.spec.dirty_limit_bytes
        runs = self.runs
        while self.i < len(runs):
            first, nsegs, dirty = runs[self.i]
            left = nsegs - self.j
            if not left:
                self.i += 1
                self.j = 0
                continue
            done, victims = cache.insert_run(self.fileid, first + self.j, left, dirty, limit)
            self.j += done
            if victims:
                WriteBack(c, self.op, victims, self._step)
                return
            if done < left:
                c._throttle(self.op, self._throttled)
                return
        self.k()

    def _throttled(self, _v=None):
        first, _nsegs, dirty = self.runs[self.i]
        _done, victims = self.c.cache.insert_run(self.fileid, first + self.j, 1, dirty, None)
        self.j += 1
        if victims:
            WriteBack(self.c, self.op, victims, self._step)
            return
        self._step()
