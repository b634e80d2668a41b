"""RAID / JBOD block-device organisations.

This is the "I/O devices organisation" configurable factor of the
paper (JBOD, RAID 1, RAID 5 on cluster Aohyper; RAID 5 on cluster A's
NFS server).  A :class:`RAIDArray` presents the same byte-addressed
``submit`` interface as a :class:`~repro.hardware.disk.Disk` and maps
logical extents onto member disks:

* **JBOD / SINGLE** — passthrough to one disk.
* **RAID 0** — striping; reads and writes spread over all members.
* **RAID 1** — mirroring; writes go to every mirror (completion =
  slowest), bulk reads are split across mirrors.
* **RAID 5** — block-interleaved distributed parity; full-stripe
  writes update all members in parallel, *partial-stripe* writes pay
  the classic read-modify-write penalty (read old data + old parity,
  write new data + new parity).
* **RAID 10** — mirrored stripes.
* **RAID 6** — like RAID 5 with two parity blocks (and a heavier
  small-write penalty).

An optional **controller write-back cache** absorbs writes at bus
speed until it fills, after which writers are throttled by the media
drain rate — the behaviour enabled on both of the paper's clusters
("write-cache enabled (write back)").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..simengine import Environment, Event
from .disk import Disk, DiskSpec, READ, WRITE, MiB

__all__ = ["RAIDLevel", "RAIDConfig", "RAIDArray", "DataLossError", "RebuildStats"]


class DataLossError(RuntimeError):
    """The failure set exceeds the organisation's redundancy.

    A terminal state: every subsequent :meth:`RAIDArray.submit` raises.
    """


@dataclass
class RebuildStats:
    """Cumulative background-rebuild traffic of one array."""

    bytes_read: int = 0
    bytes_written: int = 0
    completed: int = 0
    aborted: int = 0


class RAIDLevel(str, Enum):
    JBOD = "jbod"
    RAID0 = "raid0"
    RAID1 = "raid1"
    RAID5 = "raid5"
    RAID6 = "raid6"
    RAID10 = "raid10"


#: minimum member-disk counts per level
_MIN_DISKS = {
    RAIDLevel.JBOD: 1,
    RAIDLevel.RAID0: 2,
    RAIDLevel.RAID1: 2,
    RAIDLevel.RAID5: 3,
    RAIDLevel.RAID6: 4,
    RAIDLevel.RAID10: 4,
}


@dataclass(frozen=True)
class RAIDConfig:
    """Organisation of an array (paper Fig. 4)."""

    level: RAIDLevel = RAIDLevel.JBOD
    ndisks: int = 1
    stripe_bytes: int = 256 * 1024  # the paper's RAID 5 uses stripe=256 KB
    write_back: bool = True
    cache_bytes: int = 256 * MiB
    disk: DiskSpec = DiskSpec()

    def __post_init__(self):
        if self.ndisks < _MIN_DISKS[self.level]:
            raise ValueError(
                f"{self.level.value} needs >= {_MIN_DISKS[self.level]} disks, got {self.ndisks}"
            )
        if self.level is RAIDLevel.RAID10 and self.ndisks % 2:
            raise ValueError("RAID10 needs an even number of disks")
        if self.stripe_bytes <= 0:
            raise ValueError("stripe_bytes must be positive")

    @property
    def data_disks(self) -> int:
        """Members contributing user capacity."""
        if self.level in (RAIDLevel.JBOD, RAIDLevel.RAID0):
            return self.ndisks
        if self.level is RAIDLevel.RAID1:
            return 1
        if self.level is RAIDLevel.RAID5:
            return self.ndisks - 1
        if self.level is RAIDLevel.RAID6:
            return self.ndisks - 2
        return self.ndisks // 2  # RAID10

    @property
    def capacity_bytes(self) -> int:
        return self.data_disks * self.disk.capacity_bytes


class RAIDArray:
    """A block device built from member :class:`Disk` objects."""

    FLUSH_CHUNK = 4 * MiB

    def __init__(self, env: Environment, config: RAIDConfig, name: str = "array"):
        self.env = env
        self.config = config
        self.name = name
        self.disks = [
            Disk(env, config.disk, name=f"{name}.d{i}") for i in range(config.ndisks)
        ]
        self.capacity_bytes = config.capacity_bytes
        self._failed: set[int] = set()
        self._data_lost = False
        self._rebuilding: set[int] = set()
        self.rebuild_stats = RebuildStats()
        # -- write-back cache state --
        self._dirty = 0
        self._pending_flush: list[tuple[int, int]] = []  # (offset, nbytes)
        self._space_waiters: list[Event] = []
        self._flusher_running = False
        self._drained = env.event()
        self._drained.succeed()  # starts clean

    # ------------------------------------------------------------------
    # failure injection / degraded mode
    # ------------------------------------------------------------------
    def fail_disk(self, index: int) -> None:
        """Take a member disk offline.

        Redundant levels (RAID 1/5/6/10) continue in *degraded mode*
        — reads that would have hit the failed member must reconstruct
        from the survivors (RAID 5: read every surviving member of the
        stripe and XOR).  Non-redundant levels (JBOD, RAID 0) raise
        :class:`DataLossError` on the next access: the data is gone.

        Safe to call with requests in flight: operations already
        granted a member's head complete normally (their data was on
        the wire), and when the failure exceeds the redundancy the
        write-back machinery is drained rather than left stranded —
        pending flushes are dropped, the drain event fires, and writers
        blocked on cache space are woken so they fail at their own
        submit instead of waiting forever.
        """
        if not 0 <= index < len(self.disks):
            raise IndexError(f"no member disk {index}")
        self._failed.add(index)
        if not self.survives_failures:
            self._data_lost = True
            self._abort_writeback()

    def repair_disk(self, index: int) -> None:
        """Return a member to service (rebuild completed / disk swapped)."""
        self._failed.discard(index)
        self._rebuilding.discard(index)

    def _abort_writeback(self) -> None:
        """Unwind write-back state after an unsurvivable failure.

        Dirty cache contents have nowhere to go; dropping them models
        the data loss.  Space waiters are woken so their
        ``_cached_write`` loops re-check :attr:`_data_lost` and raise
        instead of sleeping on an event that would never fire.
        """
        self._pending_flush.clear()
        self._dirty = 0
        while self._space_waiters:
            self._space_waiters.pop(0).succeed()
        if not self._flusher_running and not self._drained.triggered:
            self._drained.succeed()

    @property
    def failed_disks(self) -> frozenset[int]:
        return frozenset(self._failed)

    @property
    def degraded(self) -> bool:
        return bool(self._failed)

    @property
    def survives_failures(self) -> bool:
        """Whether the current failure set still allows service."""
        n = len(self._failed)
        lvl = self.config.level
        if n == 0:
            return True
        if lvl in (RAIDLevel.JBOD, RAIDLevel.RAID0):
            return False
        if lvl in (RAIDLevel.RAID1,):
            return n < self.config.ndisks
        if lvl is RAIDLevel.RAID5:
            return n <= 1
        if lvl is RAIDLevel.RAID6:
            return n <= 2
        if lvl is RAIDLevel.RAID10:
            # one failure per mirror pair is survivable
            half = self.config.ndisks // 2
            pairs = {i % half for i in sorted(self._failed)}
            return len(pairs) == len(self._failed)
        return False

    def _alive(self) -> list[Disk]:
        return [d for i, d in enumerate(self.disks) if i not in self._failed]

    @property
    def data_lost(self) -> bool:
        return self._data_lost

    @property
    def rebuilding(self) -> bool:
        return bool(self._rebuilding)

    # ------------------------------------------------------------------
    # background rebuild
    # ------------------------------------------------------------------
    #: per-iteration rebuild extent (matches the md default stripe batch)
    REBUILD_CHUNK = 4 * MiB

    def start_rebuild(
        self,
        index: int,
        rate_Bps: Optional[float] = None,
        rebuild_bytes: Optional[int] = None,
        hot_spare_delay_s: float = 0.0,
    ) -> Event:
        """Rebuild failed member ``index`` onto a hot spare, in the
        background, competing with foreground traffic for the array.

        Mirrored levels copy the surviving mirror; parity levels read
        *every* surviving member and XOR, so a RAID 5 rebuild loads the
        whole array while a RAID 10 rebuild loads one spindle — the
        contention difference behind their graceful-degradation gap.

        Rebuild I/O shares each member's FIFO head queue with foreground
        I/O (same-time ties ordered by offset, like any request); it is
        throttled only by ``rate_Bps``, the rebuild rate cap (`md`
        speed_limit_max).  ``rebuild_bytes`` overrides the extent to
        reconstruct (default: the member's full capacity — far beyond most
        simulated runs, i.e. the rebuild outlives the run, which is
        realistic for mid-run failures).

        Returns an event whose value is ``"rebuilt"`` when the member
        returned to service or ``"data-loss"`` if another failure made
        the array unsurvivable mid-rebuild (the event *succeeds* with
        that value — the terminal state surfaces at the next submit).
        """
        if index not in self._failed:
            raise ValueError(f"member disk {index} has not failed")
        if index in self._rebuilding:
            raise ValueError(f"member disk {index} is already rebuilding")
        self._rebuilding.add(index)
        total = rebuild_bytes
        if total is None:
            total = self.config.disk.capacity_bytes
        return self.env.process(
            self._rebuild(index, total, rate_Bps, hot_spare_delay_s),
            name=f"{self.name}.rebuild",
        )

    def _rebuild(self, index, total, rate_Bps, hot_spare_delay_s):  # simlint: ignore[generator-serve]
        if hot_spare_delay_s > 0:
            yield self.env.timeout(hot_spare_delay_s)
        spare = self.disks[index]
        lvl = self.config.level
        done = 0
        while done < total:
            if self._data_lost or not self.survives_failures:
                self._rebuilding.discard(index)
                self.rebuild_stats.aborted += 1
                return "data-loss"
            chunk = min(total - done, self.REBUILD_CHUNK)
            t0 = self.env.now
            alive = self._alive()
            if lvl in (RAIDLevel.RAID1, RAIDLevel.RAID10):
                # copy from the surviving mirror of the failed member
                if lvl is RAIDLevel.RAID10:
                    half = self.config.ndisks // 2
                    partner = (index + half) % self.config.ndisks
                    source = self.disks[partner]
                    if partner in self._failed:  # pragma: no cover - defensive
                        source = alive[0]
                else:
                    source = alive[0]
                reads = [source.submit(READ, done, chunk)]
                read_bytes = chunk
            else:
                # parity reconstruction: read the extent from every
                # surviving member and XOR in controller memory
                reads = [d.submit(READ, done, chunk) for d in alive]
                read_bytes = chunk * len(alive)
            write = spare.submit(WRITE, done, chunk)
            yield self.env.all_of(reads + [write])
            self.rebuild_stats.bytes_read += read_bytes
            self.rebuild_stats.bytes_written += chunk
            san = self.env.sanitizer
            if san is not None:
                san.note_rebuild(read_bytes, chunk)
            done += chunk
            if rate_Bps:
                # pace to the configured rebuild rate
                floor = chunk / rate_Bps
                elapsed = self.env.now - t0
                if elapsed < floor:
                    yield self.env.timeout(floor - elapsed)
        self.repair_disk(index)
        self.rebuild_stats.completed += 1
        return "rebuilt"

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def submit(
        self,
        op: str,
        offset: int,
        nbytes: int,
        count: int = 1,
        stride: Optional[int] = None,
        cached: bool = True,
    ) -> Event:
        """Serve a logical request; the returned event fires on completion.

        For write-back arrays a cached write completes once it is
        absorbed by the controller cache; media flushing proceeds in
        the background and throttles later writers when the cache is
        full.  Callers that already provide their own write-back (the
        OS page cache flusher) pass ``cached=False`` to reach the media
        directly, so sustained flush streams are charged to their
        originator instead of lingering as background interference.
        """
        if op not in (READ, WRITE):
            raise ValueError(f"bad op {op!r}")
        if offset < 0 or nbytes < 0 or count < 1:
            raise ValueError("invalid request geometry")
        if self._data_lost or (self._failed and not self.survives_failures):
            raise DataLossError(
                f"array {self.name!r} has lost data: {sorted(self._failed)} failed "
                f"on a {self.config.level.value} organisation"
            )
        if op == WRITE and cached and self.config.write_back:
            return self.env.process(
                self._cached_write(offset, nbytes, count, stride),
                name=f"{self.name}.wb",
            )
        return self._media(op, offset, nbytes, count, stride)

    def flush(self) -> Event:
        """Event firing when all dirty cache contents have hit the media."""
        return self._drained

    @property
    def dirty_bytes(self) -> int:
        return self._dirty

    # ------------------------------------------------------------------
    # write-back cache
    # ------------------------------------------------------------------
    def _cached_write(self, offset, nbytes, count, stride):  # simlint: ignore[generator-serve]
        spec = self.config.disk
        total = nbytes * count
        absorbed = 0
        while absorbed < total:
            if self._data_lost:
                raise DataLossError(
                    f"array {self.name!r} lost data while a cached write was "
                    "waiting for controller-cache space"
                )
            space = self.config.cache_bytes - self._dirty
            if space <= 0:
                ev = self.env.event()
                self._space_waiters.append(ev)
                yield ev
                continue
            chunk = min(total - absorbed, space)
            self._dirty += chunk
            self._pending_flush.append((offset + absorbed, chunk))
            absorbed += chunk
            if not self._flusher_running:
                self._flusher_running = True
                self._drained = self.env.event()
                self.env.process(self._flusher(), name=f"{self.name}.flusher")
            # absorbing into cache costs bus time only
            yield self.env.timeout(chunk / spec.bus_rate_Bps + spec.command_overhead_s)
        return total

    def _flusher(self):  # simlint: ignore[generator-serve]
        while self._pending_flush:
            off, n = self._pending_flush.pop(0)
            flushed = 0
            while flushed < n:
                chunk = min(n - flushed, self.FLUSH_CHUNK)
                try:
                    yield self._media(WRITE, off + flushed, chunk, 1, None)
                except DataLossError:
                    # the array died under the flusher: the remaining
                    # dirty data is gone; terminate cleanly so waiters
                    # on flush()/cache space are not stranded
                    self._abort_writeback()
                    break
                flushed += chunk
                # clamped: a concurrent _abort_writeback may have
                # zeroed the counter while this chunk was in flight
                self._dirty = max(self._dirty - chunk, 0)
                while self._space_waiters and self._dirty < self.config.cache_bytes:
                    self._space_waiters.pop(0).succeed()
        self._flusher_running = False
        if not self._drained.triggered:
            self._drained.succeed()

    # ------------------------------------------------------------------
    # media geometry
    # ------------------------------------------------------------------
    def _media(self, op, offset, nbytes, count, stride) -> Event:
        lvl = self.config.level
        if stride == -1:  # random pattern marker: model as a large scatter
            stride = 127 * max(nbytes, 65536)
        if self._failed:
            if not self.survives_failures:
                raise DataLossError(
                    f"array {self.name!r} has lost data: {sorted(self._failed)} failed "
                    f"on a {lvl.value} organisation"
                )
            return self._degraded(op, offset, nbytes, count, stride)
        sparse = count > 1 and stride is not None and stride != nbytes
        if lvl is RAIDLevel.JBOD:
            return self.disks[0].submit(op, offset, nbytes, count, stride)
        if sparse and lvl is not RAIDLevel.RAID1:
            ways = len(self.disks)
            if lvl is RAIDLevel.RAID10:
                ways //= 2
            return self._striped_sparse(op, offset, nbytes, count, stride, ways)
        if lvl is RAIDLevel.RAID0:
            return self._striped(op, offset, nbytes * count, self.disks, len(self.disks))
        if lvl is RAIDLevel.RAID1:
            return self._mirrored(op, offset, nbytes, count, stride, self.disks)
        if lvl is RAIDLevel.RAID10:
            half = len(self.disks) // 2
            # stripes of mirror pairs: model as mirrored RAID0 halves
            return self._mirrored_striped(op, offset, nbytes * count, half)
        if lvl is RAIDLevel.RAID5:
            return self._parity(op, offset, nbytes, count, stride, nparity=1)
        if lvl is RAIDLevel.RAID6:
            return self._parity(op, offset, nbytes, count, stride, nparity=2)
        raise AssertionError(lvl)

    def _striped_sparse(self, op, offset, nbytes, count, stride, ways) -> Event:
        """Scattered small operations land round-robin over the members.

        Each member disk serves roughly ``count / ways`` seek-bound
        operations in parallel; write paths on parity levels double the
        per-member work (read-modify-write of data + parity).
        """
        factor = 1
        if op == WRITE and self.config.level is RAIDLevel.RAID5:
            factor = 4  # RMW: data read+write, parity read+write over the array
        elif op == WRITE and self.config.level is RAIDLevel.RAID6:
            factor = 6
        elif op == WRITE and self.config.level is RAIDLevel.RAID10:
            factor = 2
        eff_count = count * factor
        per = eff_count // ways
        evs = []
        used = min(ways, len(self.disks))
        for i in range(used):
            c = per if i < used - 1 else eff_count - per * (used - 1)
            if c:
                evs.append(
                    self.disks[i].submit(
                        op, (offset + i * abs(stride)) % self.disks[i].spec.capacity_bytes,
                        nbytes, c, abs(stride) * ways
                    )
                )
        return self.env.all_of(evs) if evs else self.env.timeout(0)

    def _degraded(self, op, offset, nbytes, count, stride) -> Event:
        """Service with one or more members offline.

        Mirrored levels lose read parallelism: a RAID 1 survivor serves
        alone, and a RAID 10 stripe keeps its geometry while only the
        broken pair loses its mirror.  Parity levels pay
        *reconstruction*: an access whose data lived on the failed
        member must read the whole surviving stripe and XOR, roughly
        doubling the media traffic spread over the survivors.
        """
        lvl = self.config.level
        alive = self._alive()
        total = nbytes * count
        if lvl is RAIDLevel.RAID10:
            return self._degraded_raid10(op, offset, total)
        if lvl is RAIDLevel.RAID1:
            if op == WRITE:
                evs = [d.submit(WRITE, offset, nbytes, count, stride) for d in alive]
                return self.env.all_of(evs)
            return self._mirrored(op, offset, nbytes, count, stride, alive)
        # RAID5 / RAID6 reconstruction
        factor = 2
        sparse = count > 1 and stride is not None and stride != nbytes
        if sparse:
            eff = count * factor * (2 if op == WRITE else 1)
            per = max(eff // len(alive), 1)
            evs = [
                d.submit(op, (offset + i * abs(stride)) % d.spec.capacity_bytes,
                         nbytes, per, abs(stride) * len(alive))
                for i, d in enumerate(alive)
            ]
            return self.env.all_of(evs)
        return self._striped(op, offset, total * factor, alive, len(alive))

    def _degraded_raid10(self, op, offset, total) -> Event:
        """RAID 10 with a member down: data stays striped over the
        mirror pairs, so only the pair with the failed member loses
        redundancy — its survivor absorbs that pair's writes alone and
        serves its reads without mirror parallelism.  (Access patterns
        are flattened to their byte totals, the same approximation the
        healthy striped path makes for sub-stripe geometry.)"""
        half = self.config.ndisks // 2
        stripe = self.config.stripe_bytes
        if total <= stripe:
            shares = [0] * half
            shares[(offset // stripe) % half] = total
        else:
            shares = self._split_over(offset, total, half, stripe)
        base = offset // half
        evs = []
        for k, share in enumerate(shares):
            if not share:
                continue
            members = [
                self.disks[i] for i in (k, k + half) if i not in self._failed
            ]
            if op == WRITE:
                evs += [d.submit(WRITE, base, share, 1, None) for d in members]
            elif len(members) == 2 and share >= 2 * stripe:
                h = share // 2
                evs.append(members[0].submit(READ, base, h, 1, None))
                evs.append(members[1].submit(READ, base + h, share - h, 1, None))
            else:
                evs.append(members[0].submit(READ, base, share, 1, None))
        if not evs:  # zero-byte request
            return self.env.timeout(0.0)
        return self.env.all_of(evs)

    def _split_over(self, offset: int, total: int, ways: int, stripe: int):
        """Byte share of each of ``ways`` members for a logical extent."""
        shares = [0] * ways
        first = offset // stripe
        nchunks, rem = divmod(total, stripe)
        for i in range(ways):
            # chunk j of the extent lands on member (first + j) % ways,
            # so the member reached at relative position i serves chunks
            # i, i + ways, i + 2*ways, ...
            full = (nchunks + ways - 1 - i) // ways if nchunks else 0
            shares[(first + i) % ways] += full * stripe
        if rem:
            shares[(first + nchunks) % ways] += rem
        return shares

    def _striped(self, op, offset, total, disks, ways) -> Event:
        stripe = self.config.stripe_bytes
        if total <= stripe:
            d = disks[(offset // stripe) % ways]
            return d.submit(op, offset // ways, total, 1, None)
        shares = self._split_over(offset, total, ways, stripe)
        evs = []
        for i, share in enumerate(shares):
            if share:
                evs.append(disks[i].submit(op, offset // ways, share, 1, None))
        return self.env.all_of(evs)

    def _mirrored(self, op, offset, nbytes, count, stride, disks) -> Event:
        if op == WRITE:
            evs = [d.submit(WRITE, offset, nbytes, count, stride) for d in disks]
            return self.env.all_of(evs)
        total = nbytes * count
        if count == 1 or (stride in (None, nbytes)):
            # split a contiguous read across the mirrors
            half = total // len(disks)
            if half < self.config.stripe_bytes:
                d = disks[(offset // self.config.stripe_bytes) % len(disks)]
                return d.submit(READ, offset, nbytes, count, stride)
            evs = []
            for i, d in enumerate(disks):
                share = half if i < len(disks) - 1 else total - half * (len(disks) - 1)
                evs.append(d.submit(READ, offset + i * half, share, 1, None))
            return self.env.all_of(evs)
        # strided bulk read: alternate ops between mirrors
        per = count // len(disks)
        evs = []
        for i, d in enumerate(disks):
            c = per if i < len(disks) - 1 else count - per * (len(disks) - 1)
            if c:
                evs.append(
                    d.submit(READ, offset + i * (stride or nbytes), nbytes, c,
                             (stride or nbytes) * len(disks))
                )
        return self.env.all_of(evs)

    def _mirrored_striped(self, op, offset, total, half) -> Event:
        a, b = self.disks[: half], self.disks[half:]
        if op == WRITE:
            return self.env.all_of(
                [
                    self._striped(WRITE, offset, total, a, half),
                    self._striped(WRITE, offset, total, b, half),
                ]
            )
        mid = total // 2
        if mid < self.config.stripe_bytes:
            return self._striped(READ, offset, total, a, half)
        return self.env.all_of(
            [
                self._striped(READ, offset, mid, a, half),
                self._striped(READ, offset + mid, total - mid, b, half),
            ]
        )

    # -- RAID5 / RAID6 ----------------------------------------------------
    def _parity(self, op, offset, nbytes, count, stride, nparity) -> Event:
        n = len(self.disks)
        ndata = n - nparity
        stripe = self.config.stripe_bytes
        full_stripe = stripe * ndata
        total = nbytes * count
        if op == READ:
            # Reads stripe over all members; parity blocks rotate so all
            # spindles carry data, but each spindle reads through its
            # parity holes (cheaper than seeking around them), so the
            # effective user-data rate is ndata/n of the raw stripe rate.
            return self._striped(READ, offset, total * n // ndata, self.disks, n)
        stride_ = nbytes if stride is None else stride
        contiguous = count == 1 or stride_ == nbytes
        if contiguous and total >= full_stripe:
            # Full-stripe writes: parity computed in controller memory,
            # all members written in parallel; leftover partial stripe
            # pays RMW.
            aligned = (total // full_stripe) * full_stripe
            evs = []
            per_disk = aligned // ndata
            for d in self.disks:
                evs.append(d.submit(WRITE, offset // ndata, per_disk, 1, None))
            leftover = total - aligned
            if leftover:
                evs.append(self._rmw_write(offset + aligned, leftover, 1, None, nparity))
            return self.env.all_of(evs)
        return self._rmw_write(offset, nbytes, count, stride_, nparity)

    def _rmw_write(self, offset, nbytes, count, stride, nparity) -> Event:
        """Read-modify-write small-write path.

        Each logical write touching less than a full stripe costs, per
        parity unit: read old data + read old parity, write new data +
        write new parity — 2×(1+nparity) member operations.
        """
        n = len(self.disks)
        stripe = self.config.stripe_bytes
        d_data = self.disks[(offset // stripe) % n]
        evs = [
            d_data.submit(READ, offset // max(n - nparity, 1), nbytes, count, stride),
            d_data.submit(WRITE, offset // max(n - nparity, 1), nbytes, count, stride),
        ]
        for k in range(nparity):
            p = self.disks[(offset // stripe + 1 + k) % n]
            evs.append(p.submit(READ, offset // max(n - nparity, 1), nbytes, count, stride))
            evs.append(p.submit(WRITE, offset // max(n - nparity, 1), nbytes, count, stride))
        return self.env.all_of(evs)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Aggregated member-disk statistics."""
        from .disk import DiskStats

        agg = DiskStats()
        for d in self.disks:
            agg.reads += d.stats.reads
            agg.writes += d.stats.writes
            agg.bytes_read += d.stats.bytes_read
            agg.bytes_written += d.stats.bytes_written
            agg.busy_s += d.stats.busy_s
            agg.readahead_hits += d.stats.readahead_hits
            agg.seeks += d.stats.seeks
        return agg

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RAIDArray {self.name!r} {self.config.level.value} x{self.config.ndisks}>"
