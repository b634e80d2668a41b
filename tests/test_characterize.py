"""Characterization-phase tests: system tables and application profiles."""

import pytest

from repro.core.characterize import (
    characterize_app,
    characterize_level,
    characterize_system,
)
from repro.storage.base import AccessMode, AccessType, KiB, MiB
from repro.tracing import IOEvent, IOTracer
from conftest import small_config

BLOCKS = (64 * KiB, 1 * MiB)
KW = dict(block_sizes=BLOCKS, file_bytes=16 * MiB, ior_nprocs=2, ior_file_bytes=8 * MiB)


class TestSystemCharacterization:
    def test_localfs_level_rows_local_access(self):
        t = characterize_level(small_config(), "localfs", **KW)
        assert t.level == "localfs"
        assert len(t) == 2 * len(BLOCKS)  # read+write per block
        assert all(r.access is AccessType.LOCAL for r in t.rows)
        assert all(r.mode is AccessMode.SEQUENTIAL for r in t.rows)

    def test_nfs_level_rows_global_access(self):
        t = characterize_level(small_config(), "nfs", **KW)
        assert all(r.access is AccessType.GLOBAL for r in t.rows)
        assert t.lookup("write", 1 * MiB, AccessType.GLOBAL) > 0

    def test_iolib_level_uses_ior(self):
        t = characterize_level(small_config(), "iolib", **KW)
        assert len(t) == 2  # only the >=1MiB block
        assert t.lookup("read", 1 * MiB, AccessType.GLOBAL) > 0

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            characterize_level(small_config(), "tape", **KW)

    def test_characterize_system_all_levels(self):
        tables = characterize_system(small_config(), **KW)
        assert set(tables) == {"iolib", "nfs", "localfs"}

    def test_best_rate_kept_for_duplicate_keys(self):
        """write vs rewrite: the table keeps the better (capacity)."""
        t = characterize_level(small_config(), "localfs", **KW)
        blocks = {r.block_bytes for r in t.rows if r.op == "write"}
        assert blocks == set(BLOCKS)  # one row per block, not two


def make_tracer():
    t = IOTracer()
    for rank in range(2):
        t.record(rank, IOEvent(rank, "write", 0, 1 * MiB, 10, None, 0.0, 2.0, "/f"))
        t.record(rank, IOEvent(rank, "read", 0, 64 * KiB, 100, 128 * KiB, 2.0, 3.0, "/f"))
    return t


class TestAppCharacterization:
    def test_measures_grouped_by_geometry(self):
        profile = characterize_app(make_tracer())
        assert profile.nprocs == 2
        assert len(profile.measures) == 2
        w = profile.measure("write")
        assert w.block_bytes == 1 * MiB
        assert w.n_ops == 20
        assert w.mode is AccessMode.SEQUENTIAL
        r = profile.measure("read")
        assert r.mode is AccessMode.STRIDED

    def test_rates_are_aggregate(self):
        profile = characterize_app(make_tracer())
        w = profile.measure("write")
        # 20 MiB over mean-per-rank 2s
        assert w.rate_Bps == pytest.approx(20 * MiB / 2.0)

    def test_bytes_split_by_op(self):
        profile = characterize_app(make_tracer())
        assert profile.bytes_written == 2 * 10 * MiB
        assert profile.bytes_read == 2 * 100 * 64 * KiB

    def test_io_time_mean_per_rank(self):
        profile = characterize_app(make_tracer())
        assert profile.io_time_s == pytest.approx(3.0)

    def test_phases_detected(self):
        profile = characterize_app(make_tracer())
        assert len(profile.phases) == 2

    def test_requirement_summary(self):
        # the numbers the paper tabulates (Tables II/V/VIII)
        profile = characterize_app(make_tracer())
        numio = {op: sum(m.n_ops for m in profile.measures if m.op == op) for op in ("write", "read")}
        assert numio == {"write": 20, "read": 200}
        assert profile.measure("write").block_bytes == 1 * MiB
        assert profile.nprocs == 2

    def test_iops(self):
        profile = characterize_app(make_tracer())
        assert profile.iops == pytest.approx(220 / 3.0)

    def test_empty_tracer(self):
        profile = characterize_app(IOTracer())
        assert profile.measures == []
        assert profile.measure("write") is None
        assert profile.iops == 0.0
