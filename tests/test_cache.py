"""Page-cache tests, including hypothesis property tests on the LRU
bookkeeping invariants."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage.base import MiB
from repro.storage.cache import CacheSpec, CacheStats, PageCache

SEG = 64 * 1024


def make_cache(nsegs=8, **kw):
    return PageCache(CacheSpec(capacity_bytes=nsegs * SEG, segment_bytes=SEG, **kw))


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.touch(1, 0)
        c.insert_run(1, 0, 1, 0, None)
        assert c.touch(1, 0)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_segments_of(self):
        c = make_cache()
        assert list(c.segments_of(0, SEG)) == [0]
        assert list(c.segments_of(0, SEG + 1)) == [0, 1]
        assert list(c.segments_of(SEG - 1, 2)) == [0, 1]
        assert list(c.segments_of(0, 0)) == []

    def test_lru_eviction_order(self):
        c = make_cache(nsegs=2)
        c.insert_run(1, 0, 2, 0, None)
        c.touch(1, 0)  # refresh 0; victim should be 1
        c.insert_run(1, 2, 1, 0, None)
        assert c.is_resident(1, 0)
        assert not c.is_resident(1, 1)

    def test_dirty_victims_returned(self):
        c = make_cache(nsegs=1)
        c.insert_run(1, 0, 1, 100, None)
        assert c.insert_run(1, 1, 1, 0, None) == (1, [(1, 0, 100)])
        assert c.stats.dirty_evictions == 1

    def test_clean_victims_silent(self):
        c = make_cache(nsegs=1)
        c.insert_run(1, 0, 1, 0, None)
        assert c.insert_run(1, 1, 1, 0, None) == (1, [])

    def test_dirty_accumulates_capped_at_segment(self):
        c = make_cache()
        c.insert_run(1, 0, 1, SEG - 10, None)
        c.insert_run(1, 0, 1, 100, None)
        assert c.dirty_segments() == [(1, 0, 1, SEG)]
        assert c.dirty_bytes == SEG

    def test_mark_clean(self):
        c = make_cache()
        c.insert_run(1, 0, 1, 50, None)
        c.mark_clean_run(1, 0, 1)
        assert c.dirty_bytes == 0
        assert c.is_resident(1, 0)

    def test_drop_file(self):
        c = make_cache()
        c.insert_run(1, 0, 1, 10, None)
        c.insert_run(2, 0, 1, 20, None)
        dropped = c.drop_file(1)
        assert dropped == 1
        assert not c.is_resident(1, 0)
        assert c.is_resident(2, 0)
        assert c.dirty_bytes == 20

    def test_file_fully_resident(self):
        c = make_cache()
        c.insert_run(7, 0, 3, 0, None)
        assert c.file_fully_resident(7, 3 * SEG)
        assert c.file_fully_resident(7, 3 * SEG - 1)
        assert not c.file_fully_resident(7, 3 * SEG + 1)

    def test_thresholds(self):
        c = make_cache(nsegs=10, dirty_ratio=0.4, background_ratio=0.1)
        assert not c.need_background_flush
        c.insert_run(1, 0, 2, SEG, None)
        assert c.need_background_flush  # 2/10 > 0.1
        assert not c.need_throttle
        c.insert_run(1, 2, 4, SEG, None)
        assert c.need_throttle  # 6/10 > 0.4

    def test_dirty_segments_oldest_first(self):
        c = make_cache()
        for s in (5, 2, 9):
            c.insert_run(1, s, 1, 10, None)
        assert [s for _f, s, _n, _d in c.dirty_segments()] == [5, 2, 9]
        assert len(c.dirty_segments(limit=2)) == 2

    def test_dirty_segments_filter_by_file(self):
        c = make_cache()
        c.insert_run(1, 0, 1, 10, None)
        c.insert_run(2, 0, 1, 10, None)
        assert c.dirty_segments(fileid=2) == [(2, 0, 1, 10)]


    def test_insert_run_stops_over_the_limit(self):
        c = make_cache(nsegs=8)
        # the third segment finds 2 * SEG dirty, over the limit
        assert c.insert_run(1, 0, 5, SEG, SEG + 1) == (2, [])
        assert c.dirty_bytes == 2 * SEG
        assert c.insert_run(1, 2, 3, SEG, None) == (3, [])

    def test_insert_run_stops_after_dirty_victims(self):
        c = make_cache(nsegs=3)
        c.insert_run(1, 0, 1, 0, None)
        c.insert_run(1, 1, 1, 7, None)
        c.insert_run(1, 2, 1, 0, None)
        # segment 3 evicts clean 0, segment 4 evicts dirty 1 and stops
        assert c.insert_run(2, 3, 4, 0, None) == (2, [(1, 1, 7)])
        assert c.stats.evictions == 2 and c.stats.dirty_evictions == 1
        assert c.contents()[0] == [(1, 2, 0), (2, 3, 0), (2, 4, 0)]

    def test_insert_run_refreshes_resident_segments(self):
        c = make_cache(nsegs=3)
        c.insert_run(1, 0, 3, 0, None)
        assert c.insert_run(1, 0, 2, 5, None) == (2, [])
        assert c.contents()[0] == [(1, 2, 0), (1, 0, 5), (1, 1, 5)]
        assert c.stats.evictions == 0 and c.dirty_bytes == 10


class TestDenseRuns:
    @pytest.mark.parametrize(
        "offset, nbytes, runs",
        [
            (0, 3 * SEG, [(0, 3, SEG)]),
            (10, 20, [(0, 1, 20)]),
            (SEG - 10, 20, [(0, 1, 10), (1, 1, 10)]),
            (SEG // 2, 3 * SEG, [(0, 1, SEG // 2), (1, 2, SEG), (3, 1, SEG // 2)]),
            (SEG, 2 * SEG + 5, [(1, 2, SEG), (3, 1, 5)]),
            (SEG - 5, SEG + 5, [(0, 1, 5), (1, 1, SEG)]),
            (0, 0, []),
        ],
    )
    def test_head_middle_tail(self, offset, nbytes, runs):
        assert make_cache().dense_runs(offset, nbytes) == runs

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5 * SEG), st.integers(1, 6 * SEG))
    def test_runs_cover_the_range(self, offset, nbytes):
        c = make_cache()
        runs = c.dense_runs(offset, nbytes)
        assert len(runs) <= 3
        segs = [s for first, n, _d in runs for s in range(first, first + n)]
        assert segs == list(c.segments_of(offset, nbytes))
        assert sum(n * d for _f, n, d in runs) == nbytes


class TestCoalesce:
    def test_adjacent_merge(self):
        runs = list(PageCache.coalesce([(1, 0, 1, 5), (1, 1, 2, 10), (1, 3, 1, 5)]))
        assert runs == [(1, 0, 4, 20)]

    def test_gap_splits(self):
        runs = list(PageCache.coalesce([(1, 0, 1, 5), (1, 2, 1, 5)]))
        assert runs == [(1, 0, 1, 5), (1, 2, 1, 5)]

    def test_files_never_merge(self):
        runs = list(PageCache.coalesce([(1, 0, 1, 5), (2, 1, 1, 5)]))
        assert len(runs) == 2

    def test_unsorted_input_handled(self):
        runs = list(PageCache.coalesce([(1, 2, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)]))
        assert runs == [(1, 0, 3, 3)]

    def test_empty(self):
        assert list(PageCache.coalesce([])) == []


class TestSpecValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=MiB, dirty_ratio=0.1, background_ratio=0.5)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
op = st.tuples(
    st.sampled_from(["insert_clean", "insert_dirty", "touch", "clean", "drop"]),
    st.integers(min_value=1, max_value=3),  # fileid
    st.integers(min_value=0, max_value=20),  # segment
)


@settings(max_examples=200, deadline=None)
@given(st.lists(op, max_size=60), st.integers(min_value=1, max_value=8))
def test_cache_invariants(ops, nsegs):
    """Residency never exceeds capacity; dirty total equals the per-segment sum;
    per-file resident counters match reality."""
    c = make_cache(nsegs=nsegs)
    for kind, f, s in ops:
        if kind == "insert_clean":
            c.insert_run(f, s, 3, 0, None)
        elif kind == "insert_dirty":
            c.insert_run(f, s, 3, SEG // 2, c.spec.dirty_limit_bytes)
        elif kind == "touch":
            c.touch(f, s)
        elif kind == "clean":
            c.mark_clean_run(f, s, 2)
        elif kind == "drop":
            c.drop_file(f)
        # invariants after every step
        resident, dirty = c.contents()
        assert len(resident) <= nsegs
        assert c.dirty_bytes == sum(d for _f, _s, d in resident)
        assert dirty == [e for e in resident if e[2]]
        assert c.dirty_bytes >= 0
        for fid in (1, 2, 3):
            actual = sum(1 for f, _s, _d in resident if f == fid)
            assert c.file_resident_segments(fid) == actual


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=1, max_size=40))
def test_coalesce_partition_property(entries):
    """Coalesced runs exactly partition the distinct input keys and
    conserve total dirty bytes."""
    uniq = {}
    for seg, dirty in entries:
        uniq[(1, seg)] = dirty
    items = [(f, s, 1, d) for (f, s), d in uniq.items()]
    runs = list(PageCache.coalesce(items))
    covered = []
    total_dirty = 0
    for f, first, n, dirty in runs:
        covered.extend((f, s) for s in range(first, first + n))
        total_dirty += dirty
    assert sorted(covered) == sorted(uniq)
    assert total_dirty == sum(uniq.values())


# ----------------------------------------------------------------------
# differential: the run-walking cache against a per-segment reference
# ----------------------------------------------------------------------
class RefCache:
    """The page cache one segment at a time: ``touch``, ``insert``
    returning its dirty victims, ``mark_clean`` and the writer's
    dirty-limit check, each in its plainest form, over the same state
    as :class:`PageCache`.  The walks of :class:`PageCache` must leave
    the same state as these loops."""

    def __init__(self, spec):
        self.spec = spec
        self._segs = OrderedDict()  # key -> dirty bytes; order == recency
        self._dirty = OrderedDict()  # dirty keys in the same relative order
        self._dirty_total = 0
        self._file_resident = {}
        self.stats = CacheStats()

    @property
    def dirty_bytes(self):
        return self._dirty_total

    @property
    def need_throttle(self):
        return self.over(self.spec.dirty_limit_bytes)

    def file_resident_segments(self, fileid):
        return self._file_resident.get(fileid, 0)

    def touch(self, fileid, seg):
        key = (fileid, seg)
        if key not in self._segs:
            self.stats.misses += 1
            return False
        self._segs.move_to_end(key)
        if self._segs[key]:
            self._dirty.move_to_end(key)
        self.stats.hits += 1
        return True

    def insert(self, fileid, seg, dirty_bytes):
        sb = self.spec.segment_bytes
        dirty_bytes = min(dirty_bytes, sb)
        key = (fileid, seg)
        victims = []
        if key in self._segs:
            old = self._segs[key]
            new = min(old + dirty_bytes, sb)
            self._segs[key] = new
            self._segs.move_to_end(key)
            self._dirty_total += new - old
            if new:
                self._dirty[key] = new
                self._dirty.move_to_end(key)
            return victims
        while len(self._segs) >= self.spec.nsegments:
            vkey, vdirty = self._segs.popitem(last=False)
            self._file_resident[vkey[0]] -= 1
            self.stats.evictions += 1
            if vdirty:
                self._dirty_total -= vdirty
                self.stats.dirty_evictions += 1
                del self._dirty[vkey]
                victims.append((vkey[0], vkey[1], vdirty))
        self._segs[key] = dirty_bytes
        if dirty_bytes:
            self._dirty[key] = dirty_bytes
            self._dirty_total += dirty_bytes
        self._file_resident[fileid] = self._file_resident.get(fileid, 0) + 1
        return victims

    def over(self, limit):
        """The writer throttle's check: more than ``limit`` bytes dirty."""
        return limit is not None and self._dirty_total > limit

    def mark_clean(self, fileid, seg):
        key = (fileid, seg)
        amount = self._segs.get(key, 0)
        if amount:
            self._segs[key] = 0
            self._dirty_total -= amount
            del self._dirty[key]

    def drop_file(self, fileid):
        keys = [k for k in self._segs if k[0] == fileid]
        for k in keys:
            self._dirty_total -= self._segs.pop(k)
            self._dirty.pop(k, None)
        if fileid in self._file_resident:
            self._file_resident[fileid] = 0
        return len(keys)

    def contents(self):
        return (
            [(f, s, d) for (f, s), d in self._segs.items()],
            [(f, s, d) for (f, s), d in self._dirty.items()],
        )

    def dirty_segments(self, limit=None, fileid=None):
        out = [(f, s, d) for (f, s), d in self._dirty.items() if fileid in (None, f)]
        return out if limit is None else out[:limit]

    # the operations under test, as per-segment loops
    def insert_run(self, fileid, first, nsegs, dirty, limit):
        done, victims = 0, []
        for s in range(first, first + nsegs):
            if self.over(limit):
                break
            victims = self.insert(fileid, s, dirty)
            done += 1
            if victims:
                break
        return done, victims

    def touch_run(self, fileid, seg_range):
        for s in seg_range:
            self.touch(fileid, s)

    def mark_clean_run(self, fileid, first, nsegs):
        for s in range(first, first + nsegs):
            self.mark_clean(fileid, s)


FILES = (1, 2, 3)
# a small key space, so walks often meet resident and dirty segments
fileid = st.integers(min_value=1, max_value=2)
seg = st.integers(min_value=0, max_value=6)
length = st.integers(min_value=1, max_value=6)
insert_op = st.tuples(
    st.just("insert_run"), fileid, seg, length,
    st.sampled_from([0, 0, 1, 4096, SEG // 2, SEG, SEG + 100]),
    st.sampled_from([None, None, "throttle", 0, SEG, 3 * SEG]),
)
diff_op = st.one_of(
    insert_op,
    insert_op,
    insert_op,
    st.tuples(st.just("touch"), fileid, seg),
    st.tuples(st.just("touch_run"), fileid, seg, length),
    st.tuples(st.just("mark_clean_run"), fileid, seg, length),
    st.tuples(st.just("drop_file"), fileid),
    st.tuples(
        st.just("dirty_segments"), st.sampled_from([None, 1, 2, 5]),
        st.sampled_from([None, 1, 2]),
    ),
)


def _apply(c, op):
    """Run one generated op on a cache (or the reference); its result."""
    kind, *args = op
    if kind == "insert_run":
        f, first, n, dirty, limit = args
        if limit == "throttle":
            limit = c.spec.dirty_limit_bytes
        return c.insert_run(f, first, n, dirty, limit)
    if kind == "touch_run":
        f, first, n = args
        return c.touch_run(f, range(first, first + n))
    if kind == "dirty_segments":
        limit, f = args
        out = c.dirty_segments(limit, f)
        if isinstance(c, PageCache):
            out = _segments(out)
        # a file's complete list comes in segment order, not oldest first
        return sorted(out) if f is not None and limit is None else out
    return getattr(c, kind)(*args)


def _segments(runs):
    """Dirty runs ``(fileid, first, nsegs, dirty_bytes)`` as per-segment
    ``(fileid, seg, dirty_bytes)`` entries."""
    return [(f, s, d // n) for f, first, n, d in runs for s in range(first, first + n)]


def _state(c):
    resident, dirty = c.contents()
    return (
        resident,
        dirty,
        c.dirty_bytes,
        [c.file_resident_segments(f) for f in FILES],
        c.stats,
        c.need_throttle,
    )


def _spec(nsegs, dirty_ratio=0.4):
    return CacheSpec(
        capacity_bytes=nsegs * SEG, segment_bytes=SEG,
        dirty_ratio=dirty_ratio, background_ratio=0.1,
    )


@settings(max_examples=1000, deadline=None)
@given(
    ops=st.lists(diff_op, max_size=60),
    nsegs=st.integers(min_value=1, max_value=8),
    dirty_ratio=st.sampled_from([0.25, 0.5, 1.0]),
)
# a clean insertion that refreshes a dirty segment moves it in the
# flusher's oldest-first order too; random sequences rarely reach it
@example(
    ops=[("insert_run", 1, 0, 2, 5, None), ("insert_run", 1, 0, 1, 0, None)],
    nsegs=3,
    dirty_ratio=1.0,
)
# the edges of a run of segments that sits together in LRU order:
# a walk longer than the cache evicts its own head
@example(
    ops=[("insert_run", 2, 0, 2, 0, None), ("insert_run", 1, 0, 6, 0, None)],
    nsegs=3,
    dirty_ratio=1.0,
)
# the resident segment 2 at the LRU head is evicted by the walk's own
# misses before the walk reaches it, so it is a miss too
@example(
    ops=[
        ("insert_run", 1, 2, 1, 0, None),
        ("insert_run", 2, 0, 2, 0, None),
        ("insert_run", 1, 0, 3, 0, None),
    ],
    nsegs=3,
    dirty_ratio=1.0,
)
# the dirty limit stops a walk inside a resident run, and inside a
# missing one
@example(
    ops=[
        ("insert_run", 1, 0, 6, 4096, None),
        ("insert_run", 1, 0, 6, SEG, 3 * SEG),
        ("insert_run", 2, 0, 6, SEG, "throttle"),
    ],
    nsegs=8,
    dirty_ratio=1.0,
)
# touch and mark_clean_run split a run in the middle
@example(
    ops=[
        ("insert_run", 1, 0, 5, 4096, None),
        ("touch", 1, 2),
        ("mark_clean_run", 1, 1, 1),
        ("touch_run", 1, 0, 2),
        ("mark_clean_run", 1, 3, 2),
    ],
    nsegs=8,
    dirty_ratio=1.0,
)
# appends that continue the MRU run, then one with another dirty count
@example(
    ops=[
        ("insert_run", 1, 0, 2, 4096, None),
        ("insert_run", 1, 2, 3, 4096, None),
        ("insert_run", 1, 5, 1, 0, None),
        ("dirty_segments", None, None),
    ],
    nsegs=8,
    dirty_ratio=1.0,
)
# a dirty_segments limit that cuts a run, with and without a file
@example(
    ops=[
        ("insert_run", 1, 0, 4, 4096, None),
        ("insert_run", 2, 0, 2, SEG, None),
        ("dirty_segments", 2, None),
        ("dirty_segments", 5, 1),
        ("dirty_segments", 1, 2),
    ],
    nsegs=8,
    dirty_ratio=1.0,
)
# drop_file of a file whose segments sit in several runs
@example(
    ops=[
        ("insert_run", 1, 0, 2, 0, None),
        ("insert_run", 2, 0, 1, 0, None),
        ("insert_run", 1, 4, 2, 4096, None),
        ("touch", 1, 0),
        ("drop_file", 1),
    ],
    nsegs=8,
    dirty_ratio=1.0,
)
def test_matches_per_segment_reference(ops, nsegs, dirty_ratio):
    spec = _spec(nsegs, dirty_ratio)
    cache, ref = PageCache(spec), RefCache(spec)
    for op in ops:
        assert _apply(cache, op) == _apply(ref, op)
        assert _state(cache) == _state(ref)
        assert cache.audit() == []


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(diff_op, max_size=40),
    nsegs=st.integers(min_value=1, max_value=8),
    fileid=fileid,
    first=seg,
    n=length,
)
def test_touch_run_equals_touch_loop(prefix, nsegs, fileid, first, n):
    batch, loop = PageCache(_spec(nsegs)), PageCache(_spec(nsegs))
    for op in prefix:
        _apply(batch, op)
        _apply(loop, op)
    batch.touch_run(fileid, range(first, first + n))
    for s in range(first, first + n):
        loop.touch(fileid, s)
    assert _state(batch) == _state(loop)


batch_case = dict(
    prefix=st.lists(diff_op, max_size=40),
    nsegs=st.integers(min_value=1, max_value=8),
    fileid=fileid,
    first=seg,
    n=length,
)


def _after(prefix, nsegs):
    """The cache and the reference, each driven through ``prefix``."""
    cache, ref = PageCache(_spec(nsegs)), RefCache(_spec(nsegs))
    for op in prefix:
        _apply(cache, op)
        _apply(ref, op)
    return cache, ref


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_touch_or_insert_clean_equals_loop(prefix, nsegs, fileid, first, n):
    """The replay absorb walk: touch each segment, insert each miss clean."""
    batch, ref = _after(prefix, nsegs)
    for s in range(first, first + n):
        if not batch.touch(fileid, s):
            batch.insert_run(fileid, s, 1, 0, None)
        ref.touch(fileid, s) or ref.insert(fileid, s, 0)
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_insert_clean_run_equals_insert_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _after(prefix, nsegs)
    done, victims = batch.insert_run(fileid, first, n, 0, None)
    expected, expected_victims = 0, []
    for s in range(first, first + n):
        expected_victims = ref.insert(fileid, s, 0)
        expected += 1
        if expected_victims:
            break
    assert (done, victims) == (expected, expected_victims)
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(dirty=st.integers(min_value=0, max_value=SEG + 100), **batch_case)
def test_insert_dirty_run_equals_insert_loop(prefix, nsegs, fileid, first, n, dirty):
    batch, ref = _after(prefix, nsegs)
    limit = batch.spec.dirty_limit_bytes
    done, victims = batch.insert_run(fileid, first, n, dirty, limit)
    expected, expected_victims = 0, []
    for s in range(first, first + n):
        if ref.need_throttle:
            break
        expected_victims = ref.insert(fileid, s, dirty)
        expected += 1
        if expected_victims:
            break
    assert (done, victims) == (expected, expected_victims)
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_mark_clean_run_equals_mark_clean_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _after(prefix, nsegs)
    batch.mark_clean_run(fileid, first, n)
    for s in range(first, first + n):
        ref.mark_clean(fileid, s)
    assert _state(batch) == _state(ref)
