"""Cross-cutting property-based tests (hypothesis) on model invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simengine import Environment
from repro.hardware.disk import Disk, DiskSpec, READ, WRITE
from repro.hardware.network import GIGABIT, Link, Network
from repro.hardware.raid import RAIDConfig, RAIDLevel
from repro.storage.base import IORequest, classify_mode
from repro.tracing import IOEvent, PhaseDetector, detect_phases

KiB = 1024
MiB = 1024 * KiB


# ----------------------------------------------------------------------
# disk cost model
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 64 * MiB),
    st.integers(0, 100 * 1000 * MiB),
    st.sampled_from([READ, WRITE]),
)
def test_disk_service_time_positive_and_bounded(nbytes, offset, op):
    d = Disk(Environment(), DiskSpec())
    offset = offset % (d.spec.capacity_bytes - 64 * MiB)
    t = d.service_time(op, offset, nbytes)
    assert t > 0
    # never slower than worst seek + rotation + slowest media
    upper = d.spec.avg_seek_s + d.spec.half_rotation_s + nbytes / d.spec.inner_rate_Bps + 1e-3
    assert t <= upper


@settings(max_examples=60, deadline=None)
@given(st.integers(4 * KiB, 4 * MiB), st.integers(1, 32))
def test_disk_bulk_time_superadditive_in_count(nbytes, count):
    """More operations never take less total head time."""
    d1 = Disk(Environment(), DiskSpec())
    t1 = d1.service_time(READ, 0, nbytes, count=count)
    d2 = Disk(Environment(), DiskSpec())
    t2 = d2.service_time(READ, 0, nbytes, count=count + 1)
    assert t2 >= t1 * 0.999


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16 * MiB))
def test_disk_sequential_rate_between_inner_and_bus(nbytes):
    d = Disk(Environment(), DiskSpec())
    t = d.service_time(READ, 0, nbytes)
    rate = nbytes / t
    assert rate <= d.spec.bus_rate_Bps
    assert rate <= d.spec.outer_rate_Bps * 1.01


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64 * MiB), st.integers(1, 64))
def test_link_hold_time_monotonic(nbytes, count):
    env = Environment()
    link = Link(env, GIGABIT)
    t = link.hold_time(nbytes, count)
    assert t > 0
    assert link.hold_time(nbytes + 1, count) >= t
    assert link.hold_time(nbytes, count + 1) >= t


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16 * MiB))
def test_link_rate_never_exceeds_effective_bandwidth(nbytes):
    env = Environment()
    net = Network(env, ["a", "b"], GIGABIT)
    env.run(net.transfer("a", "b", nbytes))
    assert nbytes / env.now <= GIGABIT.bandwidth_Bps * 1.001


# ----------------------------------------------------------------------
# RAID configuration algebra
# ----------------------------------------------------------------------
raid_levels = st.sampled_from(list(RAIDLevel))


@settings(max_examples=100, deadline=None)
@given(raid_levels, st.integers(1, 12))
def test_raid_capacity_never_exceeds_raw(level, ndisks):
    try:
        cfg = RAIDConfig(level=level, ndisks=ndisks)
    except ValueError:
        return  # invalid combinations are rejected, fine
    raw = ndisks * cfg.disk.capacity_bytes
    assert 0 < cfg.capacity_bytes <= raw
    assert cfg.data_disks <= ndisks


# ----------------------------------------------------------------------
# request geometry
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 1 << 40),
    st.integers(1, 1 << 26),
    st.integers(1, 1000),
    st.one_of(st.none(), st.just(-1), st.integers(1, 1 << 27)),
)
def test_iorequest_span_at_least_total_when_stride_geq_nbytes(offset, nbytes, count, stride):
    req = IORequest("read", offset, nbytes, count, stride)
    assert req.total_bytes == nbytes * count
    if stride is None or stride == -1 or stride >= nbytes:
        assert req.span >= req.total_bytes or stride == -1
    assert req.mode is classify_mode(nbytes, count, stride)


# ----------------------------------------------------------------------
# phase detection
# ----------------------------------------------------------------------
event_strategy = st.tuples(
    st.integers(0, 3),  # rank
    st.sampled_from(["read", "write"]),
    st.integers(1, 1 << 20),  # nbytes
    st.floats(0.0, 100.0),  # t_start
    st.floats(0.001, 5.0),  # duration
)


@settings(max_examples=100, deadline=None)
@given(st.lists(event_strategy, min_size=1, max_size=50))
def test_phase_detection_conserves_bytes_and_time(raw):
    events = [
        IOEvent(r, op, 0, nb, 1, None, t0, t0 + d, "/f") for r, op, nb, t0, d in raw
    ]
    phases = detect_phases(events)
    assert sum(p.total_bytes for p in phases) == sum(e.total_bytes for e in events)
    assert sum(p.total_time for p in phases) == pytest.approx(
        sum(e.duration for e in events)
    )
    weights = PhaseDetector.weights(phases)
    assert sum(weights.values()) == pytest.approx(1.0)
    assert all(w >= 0 for w in weights.values())
    # phase ids unique and dense
    assert sorted(p.phase_id for p in phases) == list(range(len(phases)))


# ----------------------------------------------------------------------
# RAID striping arithmetic
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 1 << 36),
    st.integers(1, 1 << 28),
    st.integers(2, 8),
    st.sampled_from([64 * KiB, 256 * KiB, 1 * MiB]),
)
def test_split_over_conserves_bytes(offset, total, ways, stripe):
    """The per-member byte shares of a striped extent sum exactly to the
    extent, and no member gets more than its fair share plus one chunk."""
    from repro.hardware.raid import RAIDArray, RAIDConfig, RAIDLevel

    env = Environment()
    arr = RAIDArray(env, RAIDConfig(level=RAIDLevel.RAID0, ndisks=ways))
    shares = arr._split_over(offset, total, ways, stripe)
    assert sum(shares) == total
    fair = total // ways
    assert all(s <= fair + stripe for s in shares)
    assert all(s >= 0 for s in shares)
