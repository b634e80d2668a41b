"""Performance-table tests: Table I schema and the Fig. 11 search
algorithm, pinned by unit cases and hypothesis properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.perftable import PerfRow, PerformanceTable
from repro.storage.base import AccessMode, AccessType


def table_with(blocks_rates, op="write", access=AccessType.GLOBAL, mode=AccessMode.SEQUENTIAL):
    t = PerformanceTable("test")
    for block, rate in blocks_rates:
        t.add(PerfRow(op, block, access, mode, rate))
    return t


class TestRow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerfRow("append", 1024, AccessType.LOCAL, AccessMode.SEQUENTIAL, 1.0)
        with pytest.raises(ValueError):
            PerfRow("read", 0, AccessType.LOCAL, AccessMode.SEQUENTIAL, 1.0)
        with pytest.raises(ValueError):
            PerfRow("read", 1024, AccessType.LOCAL, AccessMode.SEQUENTIAL, -1.0)


class TestFig11Search:
    """The paper's four lookup cases, verbatim."""

    BLOCKS = [(32 * 1024, 10.0), (256 * 1024, 20.0), (1024 * 1024, 30.0)]

    def test_below_minimum_selects_minimum(self):
        t = table_with(self.BLOCKS)
        assert t.lookup("write", 1600, AccessType.GLOBAL) == 10.0

    def test_above_maximum_selects_maximum(self):
        t = table_with(self.BLOCKS)
        assert t.lookup("write", 50 * 1024 * 1024, AccessType.GLOBAL) == 30.0

    def test_exact_match(self):
        t = table_with(self.BLOCKS)
        assert t.lookup("write", 256 * 1024, AccessType.GLOBAL) == 20.0

    def test_between_selects_closest_upper(self):
        t = table_with(self.BLOCKS)
        assert t.lookup("write", 100 * 1024, AccessType.GLOBAL) == 20.0
        assert t.lookup("write", 300 * 1024, AccessType.GLOBAL) == 30.0

    def test_boundaries_inclusive(self):
        t = table_with(self.BLOCKS)
        assert t.lookup("write", 32 * 1024, AccessType.GLOBAL) == 10.0
        assert t.lookup("write", 1024 * 1024, AccessType.GLOBAL) == 30.0

    def test_no_matching_op_returns_none(self):
        t = table_with(self.BLOCKS, op="write")
        assert t.lookup("read", 1024, AccessType.GLOBAL) is None

    def test_mode_fallback_to_sequential(self):
        t = table_with(self.BLOCKS, mode=AccessMode.SEQUENTIAL)
        got = t.lookup("write", 256 * 1024, AccessType.GLOBAL, AccessMode.STRIDED)
        assert got == 20.0

    def test_mode_exact_preferred_over_fallback(self):
        t = table_with(self.BLOCKS, mode=AccessMode.SEQUENTIAL)
        t.add(PerfRow("write", 256 * 1024, AccessType.GLOBAL, AccessMode.STRIDED, 5.0))
        got = t.lookup("write", 256 * 1024, AccessType.GLOBAL, AccessMode.STRIDED)
        assert got == 5.0

    def test_access_fallback(self):
        t = table_with(self.BLOCKS, access=AccessType.LOCAL)
        got = t.lookup("write", 256 * 1024, AccessType.GLOBAL)
        assert got == 20.0

    def test_no_fallback_when_disabled(self):
        t = table_with(self.BLOCKS, mode=AccessMode.SEQUENTIAL)
        got = t.lookup("write", 256 * 1024, AccessType.GLOBAL, AccessMode.STRIDED, fallback_mode=False)
        assert got is None

    def test_duplicate_blocks_averaged(self):
        t = table_with([(1024, 10.0), (1024, 30.0)])
        assert t.lookup("write", 1024, AccessType.GLOBAL) == 20.0


class TestPersistence:
    def test_csv_roundtrip(self):
        t = table_with([(1024, 10.5), (4096, 20.25)])
        t.add(PerfRow("read", 1024, AccessType.LOCAL, AccessMode.RANDOM, 3.125))
        text = t.to_csv()
        back = PerformanceTable.from_csv("test", text)
        assert len(back) == 3
        assert back.lookup("read", 1024, AccessType.LOCAL, AccessMode.RANDOM) == 3.125
        assert back.lookup("write", 4096, AccessType.GLOBAL) == 20.25

    def test_csv_header(self):
        assert PerformanceTable("x").to_csv().splitlines()[0] == "op,block_bytes,access,mode,rate_Bps"


# ----------------------------------------------------------------------
# hypothesis: Fig. 11 semantics as properties
# ----------------------------------------------------------------------
blocks_strategy = st.lists(
    st.tuples(st.integers(1, 1 << 30), st.floats(0.1, 1e9, allow_nan=False)),
    min_size=1,
    max_size=12,
    unique_by=lambda t: t[0],
)


@settings(max_examples=200, deadline=None)
@given(blocks_strategy, st.integers(1, 1 << 31))
def test_lookup_always_returns_a_table_rate(rows, query):
    t = table_with(rows)
    got = t.lookup("write", query, AccessType.GLOBAL)
    rates = {r for _b, r in rows}
    assert got in rates


@settings(max_examples=200, deadline=None)
@given(blocks_strategy, st.integers(1, 1 << 31))
def test_lookup_selects_closest_upper_or_clamps(rows, query):
    t = table_with(rows)
    got = t.lookup("write", query, AccessType.GLOBAL)
    by_block = dict(rows)
    blocks = sorted(by_block)
    if query <= blocks[0]:
        expected = by_block[blocks[0]]
    elif query >= blocks[-1]:
        expected = by_block[blocks[-1]]
    else:
        expected = by_block[min(b for b in blocks if b >= query)]
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(blocks_strategy)
def test_csv_roundtrip_property(rows):
    t = table_with(rows)
    back = PerformanceTable.from_csv("t", t.to_csv())
    for block, rate in rows:
        assert back.lookup("write", block, AccessType.GLOBAL) == pytest.approx(rate, rel=1e-3)
