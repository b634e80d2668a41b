"""Rotational-disk model.

A :class:`Disk` serves byte-addressed read/write requests with a
mechanical cost model:

``service = seek + rotational latency + media transfer``

* **Seek** scales with the square root of the distance between the
  current head position and the target (a standard approximation of
  voice-coil actuator behaviour); back-to-back sequential requests pay
  no seek and no rotational latency.
* **Rotational latency** is half a revolution on average.
* **Media transfer** is zoned: outer tracks are faster than inner
  ones, interpolated linearly over the capacity.
* A small **readahead cache** serves sequential re-reads at bus speed,
  which is what makes small-block sequential reads through a filesystem
  fast in practice.

All requests are serialised on the disk head (a FIFO
:class:`~repro.simengine.resources.Resource` of capacity 1).  Bulk
requests (``count > 1``) are served as one queue entry but are charged
per-operation mechanical costs, split into time quanta so concurrent
streams interleave fairly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from ..simengine import Environment, Event, Resource
from ..simengine.resources import FastHold

__all__ = ["DiskSpec", "Disk", "READ", "WRITE"]

READ = "read"
WRITE = "write"

MiB = 1024 * 1024


@dataclass(frozen=True)
class DiskSpec:
    """Static parameters of a disk model (defaults: 7200rpm SATA, ca. 2011)."""

    capacity_bytes: int = 150 * 1000 * MiB
    rpm: float = 7200.0
    avg_seek_s: float = 8.5e-3
    track_to_track_s: float = 0.8e-3
    outer_rate_Bps: float = 110.0 * MiB
    inner_rate_Bps: float = 55.0 * MiB
    bus_rate_Bps: float = 280.0 * MiB  # SATA-II effective
    cache_bytes: int = 16 * MiB
    readahead_bytes: int = 2 * MiB
    command_overhead_s: float = 60e-6  # per-command controller/firmware cost

    @property
    def half_rotation_s(self) -> float:
        return 0.5 * 60.0 / self.rpm

    def media_rate(self, offset: int) -> float:
        """Zoned media transfer rate (bytes/s) at byte ``offset``."""
        frac = min(max(offset / self.capacity_bytes, 0.0), 1.0)
        return self.outer_rate_Bps - (self.outer_rate_Bps - self.inner_rate_Bps) * frac


@dataclass
class DiskStats:
    """Cumulative operation counters for a disk."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_s: float = 0.0
    readahead_hits: int = 0
    seeks: int = 0


class _FastServe(FastHold):
    """One request on the disk head: queue for the head, charge the cost
    model and the stats at the grant, then hold the head in quanta so
    that competitors queued behind a huge bulk transfer are not starved
    (they interleave at quantum granularity)."""

    __slots__ = ("disk", "op", "offset", "nbytes", "count", "stride")

    def __init__(self, disk: "Disk", op, offset, nbytes, count, stride):
        self.disk = disk
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        self.count = count
        self.stride = nbytes if stride is None else stride
        # the head queue orders same-time waiters by starting offset
        # (command-queueing style), so grant order does not depend on
        # incidental same-time scheduling order
        super().__init__(disk.env, [disk.head], order_key=offset)

    def _start(self, _v: None) -> None:
        self._acquire()

    def _granted(self) -> None:
        disk = self.disk
        count = self.count
        total = disk.service_time(self.op, self.offset, self.nbytes, count, self.stride)
        stats = disk.stats
        stats.busy_s += total
        total_bytes = self.nbytes * count
        if self.op == READ:
            stats.reads += count
            stats.bytes_read += total_bytes
        else:
            stats.writes += count
            stats.bytes_written += total_bytes
        self._begin_hold(total, disk.QUANTUM_S)

    def _done(self) -> None:
        self.result.succeed(self.nbytes * self.count)


class Disk:
    """One spindle.

    Use :meth:`submit` to get an event that fires when the request has
    been fully served by the media (or cache).
    """

    #: maximum time (s) a bulk request holds the head before letting
    #: competing requests interleave
    QUANTUM_S = 0.020

    def __init__(self, env: Environment, spec: DiskSpec | None = None, name: str = "disk"):
        self.env = env
        self.spec = spec or DiskSpec()
        self.name = name
        self.head = Resource(env, capacity=1, name=f"{name}.head")
        self.stats = DiskStats()
        self._head_pos = 0  # byte offset after the last op
        self._ra_start = -1  # readahead window [start, end)
        self._ra_end = -1

    # -- cost model ------------------------------------------------------
    #: forward gaps up to this size are crossed by letting the platter
    #: rotate past them (no head movement, no rotational re-sync)
    SHORT_SKIP_BYTES = 2 * MiB

    def _positioning_time(self, offset: int) -> float:
        """Seek + rotational latency to reach ``offset``; 0 if sequential.

        A short *forward* gap costs only the rotation time over the
        skipped bytes — strided access with small holes therefore runs
        near streaming speed, as real drives do.
        """
        if offset == self._head_pos:
            return 0.0
        spec = self.spec
        gap = offset - self._head_pos
        dist = abs(gap)
        seek = spec.track_to_track_s + (spec.avg_seek_s - spec.track_to_track_s) * (
            (dist / spec.capacity_bytes) ** 0.5
        )
        if 0 < gap <= self.SHORT_SKIP_BYTES:
            skip = gap / spec.media_rate(offset)
            if skip <= seek + spec.half_rotation_s:
                return skip
        self.stats.seeks += 1
        return seek + spec.half_rotation_s

    def _one_op_time(self, op: str, offset: int, nbytes: int) -> float:
        """Service time for a single operation starting at ``offset``."""
        spec = self.spec
        if op == READ and self._ra_start <= offset and offset + nbytes <= self._ra_end:
            # Readahead hit: positioning is free (the drive already
            # streamed past), but first-time data still comes off the
            # platter — media rate bounds a sequential stream.
            self.stats.readahead_hits += 1
            t = spec.command_overhead_s + nbytes / spec.media_rate(offset)
            self._head_pos = offset + nbytes
            return t
        t = spec.command_overhead_s + self._positioning_time(offset)
        t += nbytes / spec.media_rate(offset)
        self._head_pos = offset + nbytes
        if op == READ:
            # The drive opportunistically prefetches past a read.
            self._ra_start = offset
            self._ra_end = offset + nbytes + spec.readahead_bytes
        else:
            # A write invalidates any overlapping readahead window.
            if self._ra_start < offset + nbytes and offset < self._ra_end:
                self._ra_start = self._ra_end = -1
        return t

    def service_time(self, op: str, offset: int, nbytes: int, count: int = 1, stride: int | None = None) -> float:
        """Pure cost-model query: total head time for the request.

        Does **not** advance simulated time; mutates head position the
        same way actually serving the request would.
        """
        if op not in (READ, WRITE):
            raise ValueError(f"bad op {op!r}")
        if nbytes < 0 or count < 1:
            raise ValueError("nbytes must be >= 0 and count >= 1")
        if stride == -1:  # random pattern marker: model as a large scatter
            stride = 127 * max(nbytes, 65536)
        stride = nbytes if stride is None else stride
        if count > 1 and stride == nbytes:
            # Contiguous bulk: one positioning, one long transfer.
            t = self._one_op_time(op, offset, nbytes)
            rest = nbytes * (count - 1)
            t += rest / self.spec.media_rate(offset) + self.spec.command_overhead_s * (count - 1)
            self._head_pos = offset + nbytes * count
            if op == READ:
                self._ra_start = offset
                self._ra_end = self._head_pos + self.spec.readahead_bytes
            return t
        if (
            count > 8
            and stride > 0
            and offset >= 0
            and offset + stride * (count - 1) + nbytes <= self.spec.capacity_bytes
        ):
            return self._scatter_time_vec(op, offset, nbytes, count, stride)
        return self._scatter_time(op, offset, nbytes, count, stride)

    def _scatter_time(self, op, offset, nbytes, count, stride):
        """Scatter cost, one operation at a time (wrapping the capacity)."""
        t = 0.0
        off = offset
        for _ in range(count):
            t += self._one_op_time(op, off % self.spec.capacity_bytes, nbytes)
            off += stride
        return t

    def _scatter_time_vec(self, op, offset, nbytes, count, stride):
        """Vectorized scatter cost — bit-identical to :meth:`_scatter_time`.

        Only reached for a constant-stride scatter with increasing
        offsets (``stride > 0``) that never wraps the capacity: there
        the gap from the head to the next operation, and so the seek
        distance, is the same for every operation and the readahead
        interactions are periodic, so every per-op time is a
        closed-form elementwise expression (each float op matches the
        scalar path's op on the same operands) accumulated in the
        original sequential order.  The gap ``stride - nbytes`` is
        positive for a scatter with holes and negative for overlapping
        strides (page-rounded records closer together than a page):
        a backward gap never takes the short-skip branch, so every
        miss is a full seek over ``abs(gap)``.
        """
        spec = self.spec
        # the first op sees the pre-existing head position and
        # readahead window — run it through the exact scalar path
        t = self._one_op_time(op, offset, nbytes)
        n = count - 1
        if n == 0:
            return t
        offs = offset + stride * _np.arange(1, count, dtype=_np.int64)
        frac = offs / spec.capacity_bytes
        rate = spec.outer_rate_Bps - (spec.outer_rate_Bps - spec.inner_rate_Bps) * frac
        cmd = spec.command_overhead_s
        xfer = nbytes / rate
        # the head sits at the previous op's end, so the gap (and the
        # seek time) is the same constant for every remaining op; it is
        # negative when the strides overlap
        gap = stride - nbytes
        seek = spec.track_to_track_s + (spec.avg_seek_s - spec.track_to_track_s) * (
            (abs(gap) / spec.capacity_bytes) ** 0.5
        )
        full = seek + spec.half_rotation_s
        if 0 < gap <= self.SHORT_SKIP_BYTES:
            skip = gap / rate
            skip_ok = skip <= full
            pos = _np.where(skip_ok, skip, full)
            seek_mask = ~skip_ok
        else:
            pos = _np.full(n, full)
            seek_mask = _np.ones(n, dtype=bool)
        ends = offs + nbytes
        if op == READ:
            # a miss re-anchors the window at its own offset, buying
            # floor(readahead / stride) hits before the next miss —
            # the hit/miss pattern is a pure function of the indices
            # op0 left ra_start <= offset on every path, so only the
            # window *end* decides hits; ``ends`` is increasing, so the
            # pre-existing window serves a prefix and the periodic
            # re-anchoring takes over at the first miss
            beyond = ends > self._ra_end
            if beyond.any():
                k = _np.arange(n, dtype=_np.int64)
                k0 = int(beyond.argmax())
                period = spec.readahead_bytes // stride + 1
                miss = (k >= k0) & ((k - k0) % period == 0)
            else:
                miss = beyond
            t_ops = _np.where(miss, (cmd + pos) + xfer, cmd + xfer)
            nmiss = int(_np.count_nonzero(miss))
            self.stats.readahead_hits += n - nmiss
            self.stats.seeks += int(_np.count_nonzero(seek_mask & miss))
            if nmiss:
                last = int(offs[_np.nonzero(miss)[0][-1]])
                self._ra_start = last
                self._ra_end = last + nbytes + spec.readahead_bytes
        else:
            t_ops = (cmd + pos) + xfer
            self.stats.seeks += int(_np.count_nonzero(seek_mask))
            if self._ra_start < int(ends[-1]) and int(offs[0]) < self._ra_end:
                if bool(((self._ra_start < ends) & (offs < self._ra_end)).any()):
                    self._ra_start = self._ra_end = -1
        self._head_pos = int(offs[-1]) + nbytes
        # the scalar path's sum ((t + x0) + x1) + ...: accumulate adds
        # strictly left to right, unlike np.sum, math.fsum and (from
        # Python 3.12) builtin sum of floats
        t_ops[0] += t
        return float(_np.add.accumulate(t_ops)[-1])

    # -- DES interface -----------------------------------------------------
    def submit(
        self,
        op: str,
        offset: int,
        nbytes: int,
        count: int = 1,
        stride: int | None = None,
    ) -> Event:
        """Serve a (possibly bulk) request; the event fires at completion."""
        return _FastServe(self, op, offset, nbytes, count, stride).result
