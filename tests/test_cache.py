"""Page-cache tests, including hypothesis property tests on the LRU
bookkeeping invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.base import MiB
from repro.storage.cache import CacheSpec, PageCache

SEG = 64 * 1024


def make_cache(nsegs=8, **kw):
    return PageCache(CacheSpec(capacity_bytes=nsegs * SEG, segment_bytes=SEG, **kw))


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.touch(1, 0)
        c.insert(1, 0)
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
        c.insert(1, 0)
        c.insert(1, 1)
        c.touch(1, 0)  # refresh 0; victim should be 1
        c.insert(1, 2)
        assert c.is_resident(1, 0)
        assert not c.is_resident(1, 1)

    def test_dirty_victims_returned(self):
        c = make_cache(nsegs=1)
        c.insert(1, 0, dirty_bytes=100)
        victims = c.insert(1, 1)
        assert victims == [(1, 0, 100)]
        assert c.stats.dirty_evictions == 1

    def test_clean_victims_silent(self):
        c = make_cache(nsegs=1)
        c.insert(1, 0)
        assert c.insert(1, 1) == []

    def test_dirty_accumulates_capped_at_segment(self):
        c = make_cache()
        c.insert(1, 0, dirty_bytes=SEG - 10)
        c.insert(1, 0, dirty_bytes=100)
        assert c.dirty_amount(1, 0) == SEG
        assert c.dirty_bytes == SEG

    def test_mark_clean(self):
        c = make_cache()
        c.insert(1, 0, dirty_bytes=50)
        c.mark_clean(1, 0)
        assert c.dirty_bytes == 0
        assert c.is_resident(1, 0)

    def test_drop_file(self):
        c = make_cache()
        c.insert(1, 0, dirty_bytes=10)
        c.insert(2, 0, dirty_bytes=20)
        dropped = c.drop_file(1)
        assert dropped == 1
        assert not c.is_resident(1, 0)
        assert c.is_resident(2, 0)
        assert c.dirty_bytes == 20

    def test_file_fully_resident(self):
        c = make_cache()
        for s in range(3):
            c.insert(7, s)
        assert c.file_fully_resident(7, 3 * SEG)
        assert c.file_fully_resident(7, 3 * SEG - 1)
        assert not c.file_fully_resident(7, 3 * SEG + 1)

    def test_thresholds(self):
        c = make_cache(nsegs=10, dirty_ratio=0.4, background_ratio=0.1)
        assert not c.need_background_flush
        c.insert(1, 0, dirty_bytes=SEG)
        c.insert(1, 1, dirty_bytes=SEG)
        assert c.need_background_flush  # 2/10 > 0.1
        assert not c.need_throttle
        for s in range(2, 6):
            c.insert(1, s, dirty_bytes=SEG)
        assert c.need_throttle  # 6/10 > 0.4

    def test_dirty_segments_oldest_first(self):
        c = make_cache()
        c.insert(1, 5, dirty_bytes=10)
        c.insert(1, 2, dirty_bytes=10)
        c.insert(1, 9, dirty_bytes=10)
        assert [s for _f, s, _d in c.dirty_segments()] == [5, 2, 9]
        assert len(c.dirty_segments(limit=2)) == 2

    def test_dirty_segments_filter_by_file(self):
        c = make_cache()
        c.insert(1, 0, dirty_bytes=10)
        c.insert(2, 0, dirty_bytes=10)
        assert c.dirty_segments(fileid=2) == [(2, 0, 10)]


class TestCoalesce:
    def test_adjacent_merge(self):
        runs = list(PageCache.coalesce([(1, 0, 5), (1, 1, 5), (1, 2, 5)]))
        assert runs == [(1, 0, 3, 15)]

    def test_gap_splits(self):
        runs = list(PageCache.coalesce([(1, 0, 5), (1, 2, 5)]))
        assert runs == [(1, 0, 1, 5), (1, 2, 1, 5)]

    def test_files_never_merge(self):
        runs = list(PageCache.coalesce([(1, 0, 5), (2, 1, 5)]))
        assert len(runs) == 2

    def test_unsorted_input_handled(self):
        runs = list(PageCache.coalesce([(1, 2, 1), (1, 0, 1), (1, 1, 1)]))
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
            c.insert(f, s)
        elif kind == "insert_dirty":
            c.insert(f, s, dirty_bytes=SEG // 2)
        elif kind == "touch":
            c.touch(f, s)
        elif kind == "clean":
            c.mark_clean(f, s)
        elif kind == "drop":
            c.drop_file(f)
        # invariants after every step
        assert len(c._segs) <= nsegs
        assert c.dirty_bytes == sum(c._segs.values())
        assert c.dirty_bytes >= 0
        for fid in (1, 2, 3):
            actual = sum(1 for k in c._segs if k[0] == fid)
            assert c.file_resident_segments(fid) == actual


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=1, max_size=40))
def test_coalesce_partition_property(entries):
    """Coalesced runs exactly partition the distinct input keys and
    conserve total dirty bytes."""
    uniq = {}
    for seg, dirty in entries:
        uniq[(1, seg)] = dirty
    items = [(f, s, d) for (f, s), d in uniq.items()]
    runs = list(PageCache.coalesce(items))
    covered = []
    total_dirty = 0
    for f, first, n, dirty in runs:
        covered.extend((f, s) for s in range(first, first + n))
        total_dirty += dirty
    assert sorted(covered) == sorted(uniq)
    assert total_dirty == sum(uniq.values())


# ----------------------------------------------------------------------
# differential: each batch method against the per-segment loop it
# claims to equal
# ----------------------------------------------------------------------
prefix_op = st.tuples(
    st.sampled_from(["insert", "touch", "clean", "drop"]),
    st.integers(min_value=1, max_value=3),  # fileid
    st.integers(min_value=0, max_value=20),  # segment
    st.integers(min_value=0, max_value=SEG),  # dirty bytes for insert
)


def _cache_after(prefix, nsegs):
    """A cache driven into an arbitrary mixed clean/dirty LRU state."""
    c = make_cache(nsegs=nsegs)
    for kind, f, s, d in prefix:
        if kind == "insert":
            c.insert(f, s, dirty_bytes=d)
        elif kind == "touch":
            c.touch(f, s)
        elif kind == "clean":
            c.mark_clean(f, s)
        else:
            c.drop_file(f)
    return c


def _state(c):
    return (
        list(c._segs.items()),
        list(c._dirty.items()),
        c.dirty_bytes,
        [c.file_resident_segments(f) for f in (1, 2, 3)],
        c.stats,
    )


def _evicts_dirty(c, fileid, seg):
    """Would ``insert(fileid, seg)`` evict a dirty victim right now?"""
    if c.is_resident(fileid, seg) or len(c._segs) < c.spec.nsegments:
        return False
    return next(iter(c._segs.values())) > 0


batch_case = dict(
    prefix=st.lists(prefix_op, max_size=50),
    nsegs=st.integers(min_value=1, max_value=8),
    fileid=st.integers(min_value=1, max_value=3),
    first=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=0, max_value=12),
)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_touch_run_equals_touch_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _cache_after(prefix, nsegs), _cache_after(prefix, nsegs)
    batch.touch_run(fileid, range(first, first + n))
    for s in range(first, first + n):
        ref.touch(fileid, s)
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_touch_or_insert_clean_equals_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _cache_after(prefix, nsegs), _cache_after(prefix, nsegs)
    batch.touch_or_insert_clean(fileid, range(first, first + n))
    for s in range(first, first + n):
        ref.touch(fileid, s) or ref.insert(fileid, s, 0)
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_insert_clean_run_equals_insert_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _cache_after(prefix, nsegs), _cache_after(prefix, nsegs)
    done = batch.insert_clean_run(fileid, first, n)
    expected = 0
    for s in range(first, first + n):
        if _evicts_dirty(ref, fileid, s):
            break
        assert ref.insert(fileid, s, 0) == []
        expected += 1
    assert done == expected
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, SEG + 100)), max_size=12
    ),
    start=st.integers(min_value=0, max_value=4),
    **{k: v for k, v in batch_case.items() if k not in ("first", "n")},
)
def test_insert_dirty_run_equals_insert_loop(prefix, nsegs, fileid, entries, start):
    batch, ref = _cache_after(prefix, nsegs), _cache_after(prefix, nsegs)
    done = batch.insert_dirty_run(fileid, entries, start)
    expected = 0
    for seg, dbytes in entries[start:]:
        if ref.need_throttle or _evicts_dirty(ref, fileid, seg):
            break
        assert ref.insert(fileid, seg, dbytes) == []
        expected += 1
    assert done == expected
    assert _state(batch) == _state(ref)


@settings(max_examples=200, deadline=None)
@given(**batch_case)
def test_mark_clean_run_equals_mark_clean_loop(prefix, nsegs, fileid, first, n):
    batch, ref = _cache_after(prefix, nsegs), _cache_after(prefix, nsegs)
    batch.mark_clean_run(fileid, first, n)
    for s in range(first, first + n):
        ref.mark_clean(fileid, s)
    assert _state(batch) == _state(ref)
