"""Failure injection: degraded-mode RAID service, rebuilds and data loss."""

import pytest

from repro.simengine import Environment
from repro.hardware.raid import DataLossError, RAIDArray, RAIDConfig, RAIDLevel
from repro.storage.base import KiB, MiB
from conftest import SMALL_DISK


def make(level, ndisks, write_back=False, **cfg):
    env = Environment()
    return env, RAIDArray(env, RAIDConfig(level=level, ndisks=ndisks, disk=SMALL_DISK,
                                          write_back=write_back, **cfg))


class TestSurvival:
    def test_jbod_dies(self):
        env, arr = make(RAIDLevel.JBOD, 1)
        arr.fail_disk(0)
        assert not arr.survives_failures
        with pytest.raises(RuntimeError, match="lost data"):
            arr.submit("read", 0, 4 * KiB)

    def test_raid0_dies(self):
        env, arr = make(RAIDLevel.RAID0, 4)
        arr.fail_disk(2)
        assert not arr.survives_failures

    def test_raid1_survives_one(self):
        env, arr = make(RAIDLevel.RAID1, 2)
        arr.fail_disk(0)
        assert arr.survives_failures
        assert arr.degraded
        env.run(arr.submit("read", 0, 1 * MiB))

    def test_raid1_dies_when_all_mirrors_fail(self):
        env, arr = make(RAIDLevel.RAID1, 2)
        arr.fail_disk(0)
        arr.fail_disk(1)
        assert not arr.survives_failures

    def test_raid5_survives_one_not_two(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        arr.fail_disk(1)
        assert arr.survives_failures
        arr.fail_disk(3)
        assert not arr.survives_failures

    def test_raid6_survives_two_not_three(self):
        env, arr = make(RAIDLevel.RAID6, 6)
        arr.fail_disk(0)
        arr.fail_disk(1)
        assert arr.survives_failures
        arr.fail_disk(2)
        assert not arr.survives_failures

    def test_raid10_pairwise(self):
        env, arr = make(RAIDLevel.RAID10, 4)
        arr.fail_disk(0)
        assert arr.survives_failures  # mirror 2 covers
        arr.fail_disk(2)  # same pair as 0 (0 % 2 == 2 % 2)
        assert not arr.survives_failures

    def test_bad_index(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        with pytest.raises(IndexError):
            arr.fail_disk(9)


class TestDegradedPerformance:
    def test_raid5_degraded_reads_slower(self):
        env1, healthy = make(RAIDLevel.RAID5, 5)
        env1.run(healthy.submit("read", 0, 1 * MiB, count=64))
        env2, degraded = make(RAIDLevel.RAID5, 5)
        degraded.fail_disk(0)
        env2.run(degraded.submit("read", 0, 1 * MiB, count=64))
        assert env2.now > 1.3 * env1.now  # reconstruction overhead

    def test_raid1_degraded_loses_read_parallelism(self):
        env1, healthy = make(RAIDLevel.RAID1, 2)
        env1.run(healthy.submit("read", 0, 1 * MiB, count=64))
        env2, degraded = make(RAIDLevel.RAID1, 2)
        degraded.fail_disk(1)
        env2.run(degraded.submit("read", 0, 1 * MiB, count=64))
        assert env2.now > 1.5 * env1.now

    def test_raid1_degraded_write_single_copy(self):
        env, arr = make(RAIDLevel.RAID1, 2)
        arr.fail_disk(0)
        env.run(arr.submit("write", 0, 1 * MiB))
        assert arr.disks[1].stats.bytes_written == 1 * MiB
        assert arr.disks[0].stats.bytes_written == 0

    def test_raid5_degraded_sparse_ops_still_complete(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        arr.fail_disk(2)
        env.run(arr.submit("read", 0, 4 * KiB, count=50, stride=10 * MiB))
        env.run(arr.submit("write", 0, 4 * KiB, count=50, stride=10 * MiB))
        assert env.now > 0

    def test_degraded_write_back_flush_works(self):
        env, arr = make(RAIDLevel.RAID5, 5, write_back=True)
        arr.fail_disk(4)
        env.run(arr.submit("write", 0, 1 * MiB, count=8))
        env.run(arr.flush())
        assert arr.dirty_bytes == 0

    def test_failed_disks_reported(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        assert not arr.degraded
        arr.fail_disk(3)
        assert arr.degraded
        assert arr._alive() == [d for i, d in enumerate(arr.disks) if i != 3]

class TestRebuild:
    def test_raid5_rebuild_completes_and_repairs(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        arr.fail_disk(1)
        ev = arr.start_rebuild(1, rebuild_bytes=16 * MiB)
        env.run(ev)
        assert ev.value == "rebuilt"
        assert not arr.degraded and not arr.rebuilding
        assert arr.rebuild_stats.completed == 1
        # parity reconstruction reads the extent from all 4 survivors
        assert arr.rebuild_stats.bytes_read == 4 * 16 * MiB
        assert arr.rebuild_stats.bytes_written == 16 * MiB

    def test_raid10_rebuild_copies_one_mirror(self):
        env, arr = make(RAIDLevel.RAID10, 4)
        arr.fail_disk(0)
        ev = arr.start_rebuild(0, rebuild_bytes=16 * MiB)
        env.run(ev)
        assert ev.value == "rebuilt"
        # mirror copy: one spindle read, not a whole-array sweep
        assert arr.rebuild_stats.bytes_read == 16 * MiB

    def test_rebuild_rate_cap_paces_the_copy(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        arr.fail_disk(0)
        env.run(arr.start_rebuild(0, rebuild_bytes=32 * MiB, rate_Bps=16 * MiB))
        assert env.now >= 2.0  # 32 MiB at <= 16 MiB/s

    def test_second_failure_aborts_rebuild(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        arr.fail_disk(0)
        ev = arr.start_rebuild(0, rebuild_bytes=64 * MiB)

        def second_failure():
            yield env.timeout(0.01)
            arr.fail_disk(2)

        env.process(second_failure())
        env.run(ev)
        assert ev.value == "data-loss"
        assert arr.rebuild_stats.aborted == 1
        assert arr.data_lost
        with pytest.raises(DataLossError):
            arr.submit("read", 0, 4 * KiB)

    def test_start_rebuild_validates_state(self):
        env, arr = make(RAIDLevel.RAID5, 5)
        with pytest.raises(ValueError, match="has not failed"):
            arr.start_rebuild(0)
        arr.fail_disk(0)
        arr.start_rebuild(0, rebuild_bytes=4 * MiB)
        with pytest.raises(ValueError, match="already rebuilding"):
            arr.start_rebuild(0)


class TestFailDiskInFlight:
    """fail_disk with write-back requests in flight must never strand a
    held resource request (the ISSUE's regression case)."""

    def test_unsurvivable_failure_wakes_blocked_writer(self):
        env, arr = make(RAIDLevel.RAID0, 2, write_back=True,
                        cache_bytes=1 * MiB)
        done = arr.submit("write", 0, 4 * MiB)  # larger than the cache

        def failure():
            yield env.timeout(1e-4)
            arr.fail_disk(1)

        env.process(failure())
        with pytest.raises(DataLossError, match="lost data"):
            env.run(done)

    def test_unsurvivable_failure_fires_flush_event(self):
        env, arr = make(RAIDLevel.RAID0, 2, write_back=True)
        env.run(arr.submit("write", 0, 2 * MiB, count=4))
        arr.fail_disk(0)
        env.run(arr.flush())  # must fire, not hang on dropped dirty data
        assert arr.dirty_bytes == 0
        with pytest.raises(DataLossError):
            arr.submit("read", 0, 4 * KiB)

    def test_survivable_failure_flusher_continues_degraded(self):
        env, arr = make(RAIDLevel.RAID5, 5, write_back=True)
        done = arr.submit("write", 0, 2 * MiB, count=4)

        def failure():  # hits while the flusher is mid-drain
            yield env.timeout(1e-4)
            arr.fail_disk(3)

        env.process(failure())
        env.run(done)
        env.run(arr.flush())
        assert arr.dirty_bytes == 0
        assert arr.degraded and arr.survives_failures
