"""OS page-cache model and the one client protocol that drives it.

Tracks residency and dirtiness of file data at *segment* granularity
(default 1 MiB) with LRU replacement.  Each resident segment carries a
count of **dirty bytes**, so the flush cost of a sparsely-dirtied
segment (a few 4 KiB pages scattered in it) differs from a fully
dirty one — sparse write streams therefore throttle at the device's
random-write rate while dense streams throttle at its sequential
rate, with no workload-specific special cases.

:class:`PageCache` itself is pure bookkeeping — it advances no
simulated time.  Its state is kept as **runs**: consecutive segments
of one file that sit together in LRU order with one dirty count each
form one LRU node, so a bulk stream costs O(runs), not O(segments),
while every operation keeps its per-segment meaning.  Every insertion
goes through one walk, :meth:`PageCache.insert_run`: a run of
segments gains the same dirty bytes each, resident ones are refreshed
and new ones evict the LRU head; the walk stops over a dirty limit
(the writer throttle) or after a segment that evicted dirty victims,
so the caller can write those back at the right simulated time.  A
write is planned as ``(first, nsegs, dirty_bytes)`` runs: a dense one
is at most a partial head, the full middle and a partial tail
(:meth:`PageCache.dense_runs`).

The cache *policy* lives in four client steps below it, written once
for every owner:

* :class:`FillRuns` — read a run of misses and insert it clean,
  writing dirty victims back before going on;
* :class:`ReadScan` — a dense read: touch the hits, fill each run of
  misses, the last one extended by the owner's readahead;
* :class:`DirtyInsert` — a write: insert its runs, throttling over the
  dirty limit and writing dirty victims back;
* :class:`WriteBack` — write dirty runs back, coalesced, and mark them
  clean.

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
from bisect import bisect_left, bisect_right
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


class _Run:
    """One LRU node: segments ``first .. first + n - 1`` of a file, next
    to each other in LRU order (``first`` the oldest), each holding
    ``dirty`` dirty bytes.  ``prev``/``next`` link the LRU order;
    ``dprev``/``dnext`` link the dirty runs in the same relative order."""

    __slots__ = ("fileid", "first", "n", "dirty", "prev", "next", "dprev", "dnext")

    def __init__(self, fileid: Any, first: int, n: int, dirty: int):
        self.fileid = fileid
        self.first = first
        self.n = n
        self.dirty = dirty
        self.prev = self.next = self.dprev = self.dnext = self


class _FileRuns:
    """A file's resident runs sorted by their first segment, with the
    starts kept apart for :mod:`bisect`, and its resident segment count."""

    __slots__ = ("starts", "runs", "resident")

    def __init__(self):
        self.starts: list[int] = []
        self.runs: list[_Run] = []
        self.resident = 0


class PageCache:
    """LRU segment cache over (file-id, segment-number) keys, kept as runs.

    A run is a range of consecutive segments of one file that sits
    together in LRU order with one dirty count per segment; it is one
    node of a doubly linked LRU list, and the dirty runs are linked a
    second time in the same relative order so the flusher's
    oldest-first walk never visits clean ones.  Each file keeps its
    runs sorted by first segment, so finding the run that holds a
    segment is a bisection.  Every operation is defined segment by
    segment (``tests/test_cache.py`` keeps that per-segment model as the
    oracle) but walks whole runs: an access to part of a run splits it
    in place, a streaming append extends the MRU run and eviction trims
    the head run, so a bulk stream costs O(runs), not O(segments).
    """

    def __init__(self, spec: CacheSpec, name: str = "pagecache"):
        self.spec = spec
        self.name = name
        # sentinel of both circular lists: next/prev is the LRU order
        # (head.next = LRU, head.prev = MRU), dnext/dprev the dirty runs
        self._head = _Run(None, 0, 0, 0)
        self._files: dict[int, _FileRuns] = {}
        self._len = 0  # resident segments
        self._dirty_total = 0
        self._sb = spec.segment_bytes
        self._nsegments = spec.nsegments
        # the spec's limits, computed once: the write path reads them per call
        self._dirty_limit = spec.dirty_limit_bytes
        self._background_limit = spec.background_limit_bytes
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
        return self._dirty_total > self._dirty_limit

    @property
    def need_background_flush(self) -> bool:
        return self._dirty_total > self._background_limit

    def is_resident(self, fileid: int, seg: int) -> bool:
        return self.span(fileid, seg, seg + 1)[0]

    def span(self, fileid: int, seg: int, end: int) -> tuple[bool, int]:
        """Whether segment ``seg`` is resident, and how many segments
        from it (before ``end``) share that state within one run or one
        gap between runs."""
        fr = self._files.get(fileid)
        if fr is None:
            return False, end - seg
        starts = fr.starts
        i = bisect_right(starts, seg) - 1
        if i >= 0:
            run = fr.runs[i]
            rend = run.first + run.n
            if seg < rend:
                return True, (rend if rend < end else end) - seg
        stop = starts[i + 1] if i + 1 < len(starts) else end
        return False, (stop if stop < end else end) - seg

    def file_resident_segments(self, fileid: int) -> int:
        fr = self._files.get(fileid)
        return fr.resident if fr is not None else 0

    def file_fully_resident(self, fileid: int, file_bytes: int) -> bool:
        """True when every segment of the file is cached."""
        sb = self.spec.segment_bytes
        nsegs = (file_bytes + sb - 1) // sb
        return nsegs > 0 and self.file_resident_segments(fileid) >= nsegs

    def contents(self) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """Every resident segment as ``(fileid, seg, dirty_bytes)`` in
        LRU order (oldest first), and the dirty ones in the flusher's
        oldest-first order."""
        head = self._head
        lru = []
        run = head.next
        while run is not head:
            lru.extend((run.fileid, s, run.dirty) for s in range(run.first, run.first + run.n))
            run = run.next
        dirty = []
        run = head.dnext
        while run is not head:
            dirty.extend((run.fileid, s, run.dirty) for s in range(run.first, run.first + run.n))
            run = run.dnext
        return lru, dirty

    def audit(self) -> list[str]:
        """Inconsistencies between the LRU list, the dirty list, the
        per-file indexes and the counters; empty when there are none."""
        head = self._head
        problems = []
        lru: list[_Run] = []
        run = head.next
        while run is not head and len(lru) <= self._len:
            if run.next.prev is not run:
                problems.append(f"LRU link broken after run {_label(run)}")
                break
            lru.append(run)
            run = run.next
        dirty: list[_Run] = []
        run = head.dnext
        while run is not head and len(dirty) <= len(lru):
            dirty.append(run)
            run = run.dnext
        nsegs = sum(r.n for r in lru)
        if nsegs != self._len:
            problems.append(f"LRU holds {nsegs} segments, the count says {self._len}")
        if self._len > self._nsegments:
            problems.append(f"{self._len} segments resident in a {self._nsegments}-segment cache")
        bad = [r for r in lru if r.n < 1 or not 0 <= r.dirty <= self._sb]
        if bad:
            problems.append(f"malformed runs {[_label(r) for r in bad]}")
        if dirty != [r for r in lru if r.dirty]:
            problems.append("dirty order is not the LRU order of the dirty runs")
        total = sum(r.n * r.dirty for r in dirty)
        if total != self._dirty_total:
            problems.append(f"dirty runs hold {total} B, dirty_bytes says {self._dirty_total}")
        indexed = []
        for fileid, fr in self._files.items():
            indexed.extend(fr.runs)
            if fr.starts != [r.first for r in fr.runs]:
                problems.append(f"file {fileid}: index starts disagree with its runs")
            if any(r.fileid != fileid for r in fr.runs):
                problems.append(f"file {fileid}: index holds another file's run")
            for a, b in zip(fr.runs, fr.runs[1:]):
                if a.first + a.n > b.first:
                    problems.append(f"file {fileid}: runs {_label(a)} and {_label(b)} overlap")
            count = sum(r.n for r in fr.runs)
            if count != fr.resident:
                problems.append(
                    f"file {fileid}: {count} segments indexed, resident count says {fr.resident}"
                )
        if {id(r) for r in indexed} != {id(r) for r in lru} or len(indexed) != len(lru):
            problems.append("the per-file indexes and the LRU list hold different runs")
        return problems

    # -- run surgery (no statistics, no dirty total) -----------------------
    def _link(self, run: _Run) -> None:
        """Link a run at the MRU end of the LRU list (and of the dirty
        list when it is dirty)."""
        head = self._head
        tail = head.prev
        run.prev = tail
        run.next = head
        tail.next = head.prev = run
        if run.dirty:
            dtail = head.dprev
            run.dprev = dtail
            run.dnext = head
            dtail.dnext = head.dprev = run

    @staticmethod
    def _unlink(run: _Run) -> None:
        prev, nxt = run.prev, run.next
        prev.next = nxt
        nxt.prev = prev
        if run.dirty:
            prev, nxt = run.dprev, run.dnext
            prev.dnext = nxt
            nxt.dprev = prev

    @staticmethod
    def _split(fr: _FileRuns, i: int, run: _Run, at: int) -> _Run:
        """Split ``run`` (``fr.runs[i]``) before segment ``at``; the
        right part follows it in both lists and is returned."""
        right = _Run(run.fileid, at, run.first + run.n - at, run.dirty)
        run.n = at - run.first
        nxt = run.next
        right.prev = run
        right.next = nxt
        nxt.prev = run.next = right
        if run.dirty:
            nxt = run.dnext
            right.dprev = run
            right.dnext = nxt
            nxt.dprev = run.dnext = right
        fr.starts.insert(i + 1, at)
        fr.runs.insert(i + 1, right)
        return right

    def _append(self, fr: _FileRuns, fileid: int, seg: int, k: int, dirty: int) -> None:
        """Make the ``k`` missing segments from ``seg`` resident at MRU,
        extending the MRU run when they continue it."""
        tail = self._head.prev
        if tail.fileid == fileid and tail.first + tail.n == seg and tail.dirty == dirty:
            tail.n += k
        else:
            run = _Run(fileid, seg, k, dirty)
            self._link(run)
            i = bisect_right(fr.starts, seg)
            fr.starts.insert(i, seg)
            fr.runs.insert(i, run)
        fr.resident += k
        self._len += k

    def _move(self, fr: _FileRuns, i: int, run: _Run, seg: int, k: int, dirty: int) -> None:
        """Move the ``k`` segments from ``seg`` of ``run``
        (``fr.runs[i]``) to MRU, in ascending order, with ``dirty``
        dirty bytes each."""
        head = self._head
        end = seg + k
        rend = run.first + run.n
        if end == rend and run is head.prev and dirty == run.dirty:
            return  # a suffix of the MRU run already sits there
        if seg > run.first:
            run = self._split(fr, i, run, seg)
            i += 1
        if end < rend:
            self._split(fr, i, run, end)
        self._unlink(run)
        tail = head.prev
        if tail.fileid == run.fileid and tail.first + tail.n == seg and tail.dirty == dirty:
            tail.n += k
            del fr.starts[i]
            del fr.runs[i]
        else:
            run.dirty = dirty
            self._link(run)

    def _evict(self, run: _Run, k: int) -> None:
        """Drop the ``k`` oldest segments of ``run``, the LRU head."""
        fr = self._files[run.fileid]
        i = bisect_left(fr.starts, run.first)
        if k == run.n:
            self._unlink(run)
            del fr.starts[i]
            del fr.runs[i]
        else:
            run.first += k
            run.n -= k
            fr.starts[i] = run.first
        fr.resident -= k
        self._len -= k
        self.stats.evictions += k

    # -- mutation -----------------------------------------------------------
    def touch(self, fileid: int, seg: int) -> bool:
        """Record an access; returns True on hit (and refreshes LRU)."""
        fr = self._files.get(fileid)
        if fr is not None:
            i = bisect_right(fr.starts, seg) - 1
            if i >= 0:
                run = fr.runs[i]
                if seg < run.first + run.n:
                    self._move(fr, i, run, seg, 1, run.dirty)
                    self.stats.hits += 1
                    return True
        self.stats.misses += 1
        return False

    def insert_run(
        self, fileid: int, first: int, nsegs: int, dirty: int, limit: int | None
    ) -> tuple[int, list[tuple[int, int, int]]]:
        """Make segments ``first .. first + nsegs - 1`` resident, each
        gaining ``dirty`` newly dirty bytes (capped at the segment size).

        Segment by segment, in ascending order: a resident segment is
        refreshed to MRU; a new one evicts the LRU head while the cache
        is full, so a walk longer than the cache evicts its own head and
        a resident segment evicted before the walk reaches it is a miss.
        With a ``limit``, the walk stops before any segment that finds
        more than ``limit`` bytes dirty (the writer throttle).  It stops
        after any segment whose insertion evicted dirty victims.
        Returns ``(inserted, victims)``: how many leading segments were
        inserted and the evicted dirty victims as ``(fileid, seg,
        dirty_bytes)``, which the caller must write back (and charge
        the time for).  Clean victims vanish silently.

        The walk takes a resident run or a gap between runs at a time:
        its limit stop is computed per run, and a gap evicts whole clean
        head runs before it appends.
        """
        sb = self._sb
        if dirty > sb:
            dirty = sb
        if limit is None:
            limit = sys.maxsize
        fr = self._files.get(fileid)
        if fr is None:
            fr = self._files[fileid] = _FileRuns()
        starts = fr.starts
        runs = fr.runs
        head = self._head
        nmax = self._nsegments
        total = self._dirty_total
        victims: list[tuple[int, int, int]] = []
        s = first
        end = first + nsegs
        while s < end and total <= limit:
            i = bisect_right(starts, s) - 1
            if i >= 0:
                run = runs[i]
                rend = run.first + run.n
                if s < rend:
                    k = (rend if rend < end else end) - s
                    new = old = run.dirty
                    if dirty:
                        new = old + dirty
                        if new > sb:
                            new = sb
                        if new != old:
                            delta = new - old
                            room = (limit - total) // delta + 1
                            if room < k:
                                k = room
                            total += k * delta
                    self._move(fr, i, run, s, k, new)
                    s += k
                    continue
            # a gap: misses up to the file's next resident run
            stop = starts[i + 1] if i + 1 < len(starts) else end
            m = (stop if stop < end else end) - s
            if dirty:
                room = (limit - total) // dirty + 1
                if room < m:
                    m = room
            while m:
                k = nmax - self._len
                if k <= 0:
                    lru = head.next
                    if lru.dirty:
                        vdirty = lru.dirty
                        victims.append((lru.fileid, lru.first, vdirty))
                        self.stats.dirty_evictions += 1
                        self._evict(lru, 1)
                        self._append(fr, fileid, s, 1, dirty)
                        self._dirty_total = total + dirty - vdirty
                        return s + 1 - first, victims
                    k = lru.n
                    if k > m:
                        k = m
                    self._evict(lru, k)
                elif k > m:
                    k = m
                self._append(fr, fileid, s, k, dirty)
                total += k * dirty
                s += k
                m -= k
        self._dirty_total = total
        return s - first, victims

    def touch_run(self, fileid: int, seg_range: range) -> None:
        """Record a run of accesses; equivalent to :meth:`touch` per
        segment of the (step 1) range, one resident run at a time."""
        s, end = seg_range.start, seg_range.stop
        stats = self.stats
        fr = self._files.get(fileid)
        if fr is None:
            if end > s:
                stats.misses += end - s
            return
        starts = fr.starts
        runs = fr.runs
        while s < end:
            i = bisect_right(starts, s) - 1
            if i >= 0:
                run = runs[i]
                rend = run.first + run.n
                if s < rend:
                    k = (rend if rend < end else end) - s
                    self._move(fr, i, run, s, k, run.dirty)
                    stats.hits += k
                    s += k
                    continue
            stop = starts[i + 1] if i + 1 < len(starts) else end
            if stop > end:
                stop = end
            stats.misses += stop - s
            s = stop

    def mark_clean_run(self, fileid: int, first: int, nsegs: int) -> None:
        """Mark segments ``first .. first + nsegs - 1`` of a file clean.
        Cleaning never reorders recency: a run is split in place.
        Non-resident segments are skipped."""
        fr = self._files.get(fileid)
        if fr is None:
            return
        runs = fr.runs
        end = first + nsegs
        i = bisect_right(fr.starts, first) - 1
        if i < 0 or first >= runs[i].first + runs[i].n:
            i += 1
        freed = 0
        while i < len(runs):
            run = runs[i]
            if run.first >= end:
                break
            if run.dirty:
                if run.first < first:
                    run = self._split(fr, i, run, first)
                    i += 1
                if run.first + run.n > end:
                    self._split(fr, i, run, end)
                freed += run.n * run.dirty
                prev, nxt = run.dprev, run.dnext
                prev.dnext = nxt
                nxt.dprev = prev
                run.dirty = 0
            i += 1
        self._dirty_total -= freed

    def dirty_segments(
        self, limit: int | None = None, fileid: int | None = None
    ) -> list[tuple[int, int, int, int]]:
        """Dirty runs ``(fileid, first, nsegs, dirty_bytes)``, oldest
        first, covering at most ``limit`` segments (the last run cut to
        fit).  Every dirty run of one file (``fileid`` without a
        ``limit``) comes from its index, in segment order."""
        if fileid is not None and limit is None:
            fr = self._files.get(fileid)
            if fr is None:
                return []
            return [(fileid, r.first, r.n, r.n * r.dirty) for r in fr.runs if r.dirty]
        head = self._head
        left = sys.maxsize if limit is None else limit
        out = []
        run = head.dnext
        while run is not head and left > 0:
            if fileid is None or run.fileid == fileid:
                k = run.n if run.n < left else left
                out.append((run.fileid, run.first, k, k * run.dirty))
                left -= k
            run = run.dnext
        return out

    def drop_file(self, fileid: int) -> int:
        """Invalidate every segment of a file (unlink); returns count dropped."""
        fr = self._files.pop(fileid, None)
        if fr is None:
            return 0
        count = freed = 0
        for run in fr.runs:
            self._unlink(run)
            count += run.n
            freed += run.n * run.dirty
        self._len -= count
        self._dirty_total -= freed
        return count

    @staticmethod
    def coalesce(
        entries: Iterable[tuple[int, int, int, int]]
    ) -> Iterator[tuple[int, int, int, int]]:
        """Merge ``(fileid, first, nsegs, dirty_bytes)`` runs.

        Yields ``(fileid, first_seg, nsegs, dirty_bytes_in_run)`` in
        file and segment order; runs of a file that continue each other
        merge so write-back can issue large contiguous device writes
        when the run is densely dirty.
        """
        run_file = run_start = run_len = run_dirty = None
        for fileid, first, nsegs, dirty in sorted(entries):
            if run_file == fileid and first == run_start + run_len:
                run_len += nsegs
                run_dirty += dirty
            else:
                if run_file is not None:
                    yield (run_file, run_start, run_len, run_dirty)
                run_file, run_start, run_len, run_dirty = fileid, first, nsegs, dirty
        if run_file is not None:
            yield (run_file, run_start, run_len, run_dirty)


def _label(run: _Run) -> str:
    return f"({run.fileid}, {run.first}+{run.n}, dirty {run.dirty})"


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
    """Write dirty ``(fileid, first, nsegs, dirty_bytes)`` runs back,
    coalesced, and mark each run clean once written; runs of files that
    no longer exist are dropped clean."""

    __slots__ = ("c", "op", "runs", "i", "k")

    def __init__(self, c: CacheClient, op, entries, k):
        self.c = c
        self.op = op
        self.runs = list(PageCache.coalesce(entries))
        self.i = 0
        self.k = k
        self._next()

    @classmethod
    def victims(cls, c: CacheClient, op, victims, k) -> "WriteBack":
        """Write back the ``(fileid, seg, dirty_bytes)`` dirty victims
        of an :meth:`PageCache.insert_run` walk."""
        return cls(c, op, [(f, s, 1, d) for f, s, d in victims], k)

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
    """Read the missing segments ``first .. first + nsegs - 1`` (clipped
    at EOF to at least one segment) and make them resident clean with
    :meth:`PageCache.insert_run` walks; when a segment's insertion
    evicts dirty victims, they are written back before the walk goes
    on."""

    __slots__ = ("c", "op", "inode", "s", "end", "k")

    def __init__(self, c: CacheClient, op, inode, first, nsegs, k):
        self.c = c
        self.op = op
        self.inode = inode
        self.s = first
        self.end = first + nsegs
        self.k = k
        sb = c.cache._sb
        off = first * sb
        c._read_run(
            op, inode, off, min(nsegs * sb, max(inode.size - off, sb)), self._insert_loop
        )

    def _insert_loop(self, _v=None):
        done, victims = self.c.cache.insert_run(
            self.inode.fileid, self.s, self.end - self.s, 0, None
        )
        self.s += done
        if victims:
            WriteBack.victims(self.c, self.op, victims, self._insert_loop)
            return
        self.k()


class ReadScan:
    """A dense read over the segment range ``segs``: touch the resident
    segments and fill each run of misses when the scan reaches the next
    hit, which is touched first; the last run is extended by
    ``readahead`` segments, clipped at the file's end.  While no misses
    are pending, a resident run is touched at once."""

    __slots__ = ("c", "op", "inode", "s", "end", "readahead", "k", "mfirst", "nmiss")

    def __init__(self, c: CacheClient, op, inode, segs, readahead, k):
        self.c = c
        self.op = op
        self.inode = inode
        self.s = segs.start
        self.end = segs.stop
        self.readahead = readahead
        self.k = k
        self.mfirst = self.nmiss = 0
        self._scan()

    def _scan(self, _v=None):
        c = self.c
        cache = c.cache
        fileid = self.inode.fileid
        s = self.s
        end = self.end
        while s < end:
            hit, n = cache.span(fileid, s, end)
            if not hit:
                cache.stats.misses += n
                if not self.nmiss:
                    self.mfirst = s
                self.nmiss += n
                s += n
            elif self.nmiss:
                cache.touch(fileid, s)
                self.s = s + 1
                first, self.nmiss = self.mfirst, 0
                FillRuns(c, self.op, self.inode, first, s - first, self._scan)
                return
            else:
                cache.touch_run(fileid, range(s, s + n))
                s += n
        self.s = s
        nmiss = self.nmiss
        if nmiss:
            first = self.mfirst
            last = first + nmiss - 1
            file_last = max((self.inode.size - 1) // cache._sb, 0)
            ahead = min(last + self.readahead, file_last) - last
            if ahead > 0:
                nmiss += ahead
            self.nmiss = 0
            FillRuns(c, self.op, self.inode, first, nmiss, self.k)
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
        limit = cache._dirty_limit
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
                WriteBack.victims(c, self.op, victims, self._step)
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
            WriteBack.victims(self.c, self.op, victims, self._step)
            return
        self._step()
