"""Per-level run metrics: counters, histograms, snapshot/diff.

Every component of the simulated I/O path already keeps cumulative
counters (``DiskStats``, ``Link`` byte counts, ``FSStats``,
``CacheStats``, ``NFSStats``); what was missing is a single surface
that (a) names them uniformly by I/O-path level, (b) diffs them over
a measured run so it reports that run's deltas rather than the
system's lifetime totals, and (c) adds the MPI-IO library level, which
had no counters at all.

:class:`MetricsRegistry` walks a built
:class:`~repro.clusters.builder.System` — it holds no state of its
own beyond snapshots, so attaching one is free until
:meth:`~MetricsRegistry.begin_run` captures the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as _dc_fields
from typing import Optional

__all__ = ["LEVELS", "Histogram", "IOLibStats", "CounterSnapshot", "MetricsRegistry"]

#: the I/O-path levels metrics are grouped by (paper Fig. 2 top-down)
LEVELS = ("iolib", "nfs", "localfs", "cache", "disk", "network")


class Histogram:
    """Power-of-two bucketed histogram (request sizes, latencies).

    Bucket ``k`` counts values in ``[2**k, 2**(k+1))``; zero and
    negative values land in bucket 0.  Cheap enough to update per
    MPI-IO call.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[int, int] = {}

    def add(self, value: float, n: int = 1) -> None:
        k = max(int(value).bit_length() - 1, 0) if value >= 1 else 0
        self.counts[k] = self.counts.get(k, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        """``{"2^k": count}`` with ascending buckets (stable keys)."""
        return {f"2^{k}": self.counts[k] for k in sorted(self.counts)}

    def merge(self, other: "Histogram") -> None:
        for k, n in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.as_dict()}>"


@dataclass
class IOLibStats:
    """MPI-IO library-level counters of one application run.

    One instance per :class:`~repro.mpi.sim.MPIWorld`, updated by the
    MPI-IO layer on every traced operation — so the iolib level is
    per-run by construction, no diffing needed.
    """

    reads: int = 0
    writes: int = 0
    independent_ops: int = 0
    collective_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    io_time_s: float = 0.0
    read_sizes: Histogram = field(default_factory=Histogram)
    write_sizes: Histogram = field(default_factory=Histogram)
    read_latency_us: Histogram = field(default_factory=Histogram)
    write_latency_us: Histogram = field(default_factory=Histogram)

    def record(
        self, op: str, nbytes: int, count: int, collective: bool, duration_s: float
    ) -> None:
        total = nbytes * count
        if op == "read":
            self.reads += 1
            self.bytes_read += total
            self.read_sizes.add(nbytes, count)
            self.read_latency_us.add(duration_s * 1e6)
        else:
            self.writes += 1
            self.bytes_written += total
            self.write_sizes.add(nbytes, count)
            self.write_latency_us.add(duration_s * 1e6)
        if collective:
            self.collective_ops += 1
        else:
            self.independent_ops += 1
        self.io_time_s += duration_s

    def counters(self) -> dict:
        """The scalar counters (histograms via :meth:`histograms`)."""
        out = {}
        for f in _dc_fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (int, float)):
                out[f.name] = v
        return out

    def histograms(self) -> dict:
        return {
            "read_sizes": self.read_sizes.as_dict(),
            "write_sizes": self.write_sizes.as_dict(),
            "read_latency_us": self.read_latency_us.as_dict(),
            "write_latency_us": self.write_latency_us.as_dict(),
        }


@dataclass(frozen=True)
class CounterSnapshot:
    """All component counters at one simulated instant.

    Keys are ``(level, scope, counter)`` — e.g. ``("disk",
    "ionode:disk0", "bytes_written")``.  Two snapshots diff in one
    dict pass, so per-run deltas cost next to nothing.
    """

    t_s: float
    values: dict = field(default_factory=dict)

    def diff(self, baseline: "CounterSnapshot") -> dict:
        base = baseline.values
        out = {}
        for key, v in self.values.items():
            d = v - base.get(key, 0)
            if d:
                out[key] = d
        return out


def _scalar_fields(obj) -> dict:
    return {
        f.name: getattr(obj, f.name)
        for f in _dc_fields(obj)
        if isinstance(getattr(obj, f.name), (int, float))
    }


class MetricsRegistry:
    """Per-level counter collection over one :class:`System` run.

    Usage::

        registry = MetricsRegistry(system)
        registry.begin_run()          # baselines + sampler
        app.run(system)
        registry.end_run()
        registry.deltas()             # {level: {counter: per-run value}}
        registry.utilization_report() # busy fractions + sampled windows
    """

    def __init__(self, system):
        self.system = system
        self.baseline: Optional[CounterSnapshot] = None
        self.final: Optional[CounterSnapshot] = None
        self.sampler = None
        self._busy_baseline = None

    # -- component walk ------------------------------------------------
    def _components(self):
        """Yield ``(level, scope, stats_dict)`` for every component."""
        system = self.system
        for name, kind, counters, _res in system.hardware():
            if kind == "disk":
                yield "disk", name, _scalar_fields(counters)
            else:
                yield "network", name, {
                    "busy_s": counters.busy_s,
                    "bytes_carried": counters.bytes_carried,
                    "messages": counters.messages,
                }

        filesystems = [system.export, *system.local_fs.values()]
        for fs in filesystems:
            yield "localfs", fs.name, _scalar_fields(fs.stats)
            yield "cache", fs.cache.name, _scalar_fields(fs.cache.stats)
        yield "nfs", system.nfs_server.name, _scalar_fields(system.nfs_server.stats)
        for mount in system.nfs_mounts.values():
            yield "nfs", mount.name, _scalar_fields(mount.stats)
            yield "cache", mount.cache.name, _scalar_fields(mount.cache.stats)

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> CounterSnapshot:
        """Capture every component counter (cheap: one flat dict)."""
        values = {}
        for level, scope, stats in self._components():
            for name, v in stats.items():
                values[(level, scope, name)] = v
        return CounterSnapshot(t_s=self.system.env.now, values=values)

    def begin_run(self, window_s: Optional[float] = None, sample: bool = True) -> None:
        """Baseline the counters and busy times of the measured run, and
        start the windowed utilization sampler."""
        from ..core.utilization import capture_utilization

        self.baseline = self.snapshot()
        self.final = None
        self._busy_baseline = capture_utilization(self.system)
        if sample:
            from .sampler import UtilizationSampler

            self.sampler = UtilizationSampler(self.system, window_s=window_s)
            self.sampler.start()

    def end_run(self) -> None:
        """Freeze the run: final snapshot + flush the sampler's tail."""
        if self.sampler is not None:
            self.sampler.stop()
        self.final = self.snapshot()

    # -- results -------------------------------------------------------
    def deltas(self) -> dict:
        """Per-level counter totals accrued during the measured run.

        ``{level: {counter: value}}`` with same-named counters summed
        across a level's components.  The iolib level comes straight
        from the world's per-run :class:`IOLibStats`.
        """
        if self.baseline is None:
            raise RuntimeError("begin_run() was never called")
        final = self.final if self.final is not None else self.snapshot()
        out: dict[str, dict] = {level: {} for level in LEVELS}
        for (level, _scope, name), d in final.diff(self.baseline).items():
            bucket = out[level]
            bucket[name] = bucket.get(name, 0) + d
        iostats = getattr(self.system, "last_iostats", None)
        if iostats is not None:
            out["iolib"] = iostats.counters()
        return out

    def histograms(self) -> dict:
        """Per-level histograms (currently the iolib request-size and
        latency distributions)."""
        iostats = getattr(self.system, "last_iostats", None)
        return {"iolib": iostats.histograms() if iostats is not None else {}}

    def utilization_report(self):
        """Busy fractions over the measured interval, with the
        sampler's windows attached (when one ran)."""
        from ..core.utilization import snapshot_utilization

        report = snapshot_utilization(self.system, baseline=self._busy_baseline)
        if self.sampler is not None:
            report.windows = list(self.sampler.windows)
        return report
