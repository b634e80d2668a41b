"""Disk model tests: mechanics, readahead, bulk geometry, fairness."""

import pytest

from repro.simengine import Environment
from repro.hardware.disk import Disk, DiskSpec, READ, WRITE
from repro.storage.base import KiB, MiB


def make_disk(env, **kw):
    return Disk(env, DiskSpec(**kw))


def test_sequential_read_rate_near_outer_media_rate():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 1 * MiB, count=64))
    rate = 64 * MiB / env.now
    assert 0.9 * d.spec.outer_rate_Bps <= rate <= d.spec.outer_rate_Bps


def test_inner_tracks_slower_than_outer():
    env = Environment()
    d = make_disk(env)
    assert d.spec.media_rate(0) > d.spec.media_rate(d.spec.capacity_bytes)
    assert d.spec.media_rate(d.spec.capacity_bytes) == pytest.approx(d.spec.inner_rate_Bps)


def test_random_small_reads_are_iops_bound():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 4 * KiB, count=500, stride=40 * MiB))
    iops = 500 / env.now
    # a 7200rpm disk with long seeks does roughly 100-250 IOPS
    assert 80 < iops < 300


def test_short_forward_skip_is_cheap():
    """Strided access with small holes streams near media rate."""
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 4 * KiB, count=1000, stride=8 * KiB))
    span_rate = 8 * KiB * 1000 / env.now
    assert span_rate > 0.7 * d.spec.outer_rate_Bps


def test_readahead_hit_skips_positioning():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 64 * KiB))
    env.run(d.submit(WRITE, 1024 * MiB, 4 * KiB))  # move the head away
    hits0 = d.stats.readahead_hits
    t0 = env.now
    env.run(d.submit(READ, 64 * KiB, 64 * KiB))  # inside readahead window
    assert d.stats.readahead_hits == hits0 + 1
    dt = env.now - t0
    # no seek/rotation despite the head being elsewhere
    assert dt < d.spec.half_rotation_s


def test_write_invalidates_overlapping_readahead():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 64 * KiB))
    env.run(d.submit(WRITE, 32 * KiB, 8 * KiB))
    hits = d.stats.readahead_hits
    env.run(d.submit(READ, 64 * KiB, 16 * KiB))
    assert d.stats.readahead_hits == hits  # window was invalidated


def test_bulk_contiguous_matches_repeated_singles_approximately():
    env1 = Environment()
    d1 = make_disk(env1)
    env1.run(d1.submit(READ, 0, 256 * KiB, count=16))
    bulk = env1.now

    env2 = Environment()
    d2 = make_disk(env2)

    def singles():
        for k in range(16):
            yield d2.submit(READ, k * 256 * KiB, 256 * KiB)

    env2.run(env2.process(singles()))
    assert bulk == pytest.approx(env2.now, rel=0.05)


def test_stats_accumulate():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(WRITE, 0, 1 * MiB, count=4))
    env.run(d.submit(READ, 0, 1 * MiB, count=2))
    assert d.stats.writes == 4
    assert d.stats.reads == 2
    assert d.stats.bytes_written == 4 * MiB
    assert d.stats.bytes_read == 2 * MiB
    assert 0 < d.stats.busy_s / env.now <= 1.0


def test_invalid_requests_rejected():
    env = Environment()
    d = make_disk(env)
    with pytest.raises(ValueError):
        d.service_time("append", 0, 4096)
    with pytest.raises(ValueError):
        d.service_time(READ, 0, -1)
    with pytest.raises(ValueError):
        d.service_time(READ, 0, 4096, count=0)


def test_concurrent_requests_share_head_fairly():
    """Two equal bulk streams finish near-simultaneously (quantum interleave)."""
    env = Environment()
    d = make_disk(env)
    done = {}

    def stream(tag, base):
        yield d.submit(READ, base, 1 * MiB, count=32)
        done[tag] = env.now

    env.process(stream("a", 0))
    env.process(stream("b", 512 * MiB))
    env.run()
    assert abs(done["a"] - done["b"]) < 0.25 * max(done.values())


def test_random_marker_stride():
    env = Environment()
    d = make_disk(env)
    env.run(d.submit(READ, 0, 4 * KiB, count=100, stride=-1))
    iops = 100 / env.now
    assert iops < 2000  # not treated as sequential
