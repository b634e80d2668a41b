"""Resource-utilization snapshots: locating the inefficiency point.

The evaluation phase "determine[s] the utilization and possible
points of inefficiency in the I/O path" (paper §III-C).  The
used-percentage tables do that against *characterized* capacity; this
module complements them with *direct* evidence from the simulated
hardware — the busy fraction of every disk and network link and the
byte counters of the filesystems — collected from a
:class:`~repro.clusters.builder.System` after an application run.

A resource near 100% busy during the run is the physical bottleneck;
a run where nothing is busy is limited by the application itself
(computation, communication or serialisation) — the distinction the
paper draws for BT-IO full ("limited by computing and/or
communication") vs simple ("limited by I/O").

The disks and links, and their names, are those of
:meth:`~repro.clusters.builder.System.hardware` — the one inventory
the sampler, the metrics registry and the sanitizer walk too.  Busy
counters are cumulative over a system's lifetime, which starts at t=0
with every counter at zero, so a whole-run query needs no baseline.
Utilization over a later *interval* needs the counter values at the
interval's start: :func:`capture_utilization` takes that baseline and
:func:`snapshot_utilization` diffs against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clusters.builder import System

__all__ = [
    "ResourceUsage",
    "UtilizationSnapshot",
    "UtilizationWindow",
    "UtilizationReport",
    "capture_utilization",
    "snapshot_utilization",
]


@dataclass(frozen=True)
class ResourceUsage:
    """Busy fraction of one hardware resource over an interval."""

    name: str
    kind: str  # "disk" | "link" | "threads"
    busy_s: float  # busy seconds accrued within the interval
    utilization: float  # busy / interval

    def render(self) -> str:
        bar = "#" * int(round(self.utilization * 20))
        return f"{self.name:<28}{self.kind:<8}{self.utilization * 100:6.1f}% |{bar:<20}|"


@dataclass(frozen=True)
class UtilizationSnapshot:
    """Point-in-time capture of every cumulative busy counter.

    The baseline of an interval measurement: capture one at the start
    of a run, then :func:`snapshot_utilization` diffs the live
    counters against it.
    """

    t_s: float
    #: resource name -> (kind, cumulative busy seconds)
    busy: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UtilizationWindow:
    """Busy deltas of one sampled time window (see repro.obs.sampler)."""

    t0_s: float
    t1_s: float
    #: resource name -> busy seconds accrued within the window
    busy: dict = field(default_factory=dict)
    #: resource name -> kind ("disk" | "link"), for rendering
    kinds: dict = field(default_factory=dict)

    @property
    def width_s(self) -> float:
        return self.t1_s - self.t0_s

    def utilization(self, name: str) -> float:
        w = self.width_s
        if w <= 0:
            return 0.0
        # busy time is charged at hold start, so a transfer spilling
        # past the window edge can exceed the width — cap at saturated
        return min(self.busy.get(name, 0.0) / w, 1.0)

    def hottest(self, n: int = 3) -> list:
        """``[(name, utilization)]`` of the busiest resources."""
        w = self.width_s
        if w <= 0:
            return []
        pairs = sorted(self.busy.items(), key=lambda kv: kv[1], reverse=True)
        return [(name, min(busy / w, 1.0)) for name, busy in pairs[:n]]

    def bottleneck(self, threshold: float = 0.85):
        """Name of the saturating resource in this window, or ``None``
        when the application itself limits the window."""
        hot = self.hottest(n=1)
        if hot and hot[0][1] >= threshold:
            return hot[0][0]
        return None


@dataclass
class UtilizationReport:
    interval_s: float
    resources: list = field(default_factory=list)
    #: sampled time-series (empty unless a sampler ran during the run)
    windows: list = field(default_factory=list)

    def hottest(self, kind: str | None = None, n: int = 3) -> list:
        rs = [r for r in self.resources if kind is None or r.kind == kind]
        return sorted(rs, key=lambda r: r.utilization, reverse=True)[:n]

    def bottleneck(self, threshold: float = 0.85):
        """The busiest resource, if anything is actually saturated."""
        hot = self.hottest(n=1)
        if hot and hot[0].utilization >= threshold:
            return hot[0]
        return None

    def window_bottlenecks(self, threshold: float = 0.85) -> list:
        """Per-window attribution: ``[(window, name-or-None)]``."""
        return [(w, w.bottleneck(threshold)) for w in self.windows]

    def render(self, top: int = 10) -> str:
        lines = [f"resource utilization over {self.interval_s:.1f}s (top {top}):"]
        for r in self.hottest(n=top):
            lines.append("  " + r.render())
        b = self.bottleneck()
        if b is not None:
            lines.append(f"  -> physical bottleneck: {b.name} ({b.utilization * 100:.0f}% busy)")
        else:
            lines.append("  -> no saturated resource: the application itself limits the run")
        return "\n".join(lines)

    def render_windows(self, threshold: float = 0.85) -> str:
        """The per-window bottleneck table."""
        if not self.windows:
            return "no utilization windows sampled"
        lines = [f"{'window':>18}  {'hottest resource':<30}{'util':>6}  bottleneck"]
        for w in self.windows:
            hot = w.hottest(n=1)
            name, util = hot[0] if hot else ("-", 0.0)
            b = w.bottleneck(threshold)
            lines.append(
                f"{w.t0_s:8.2f}-{w.t1_s:<8.2f}  {name:<30}{util * 100:5.1f}%  "
                f"{b if b is not None else '(app-limited)'}"
            )
        return "\n".join(lines)


def capture_utilization(system: System) -> UtilizationSnapshot:
    """Capture the cumulative busy counters of every disk and link —
    the baseline of a subsequent :func:`snapshot_utilization` diff."""
    return UtilizationSnapshot(
        t_s=system.env.now,
        busy={name: (kind, c.busy_s) for name, kind, c, _res in system.hardware()},
    )


def snapshot_utilization(
    system: System,
    since_s: float = 0.0,
    baseline: UtilizationSnapshot | None = None,
) -> UtilizationReport:
    """Busy fractions of every disk and link over a measured interval.

    ``baseline`` — a :func:`capture_utilization` snapshot taken at the
    interval's start — is diffed against the live counters, so only
    busy seconds accrued *within* the interval count.  When omitted,
    the interval is the system's whole life since t=0.

    ``since_s`` additionally shifts the interval start forward — use
    it only to subtract setup time the system spent *idle*; for a
    busy prelude, capture a baseline at the boundary instead.
    """
    env = system.env
    base_busy = baseline.busy if baseline is not None else {}
    start = max(since_s, baseline.t_s if baseline is not None else 0.0)
    interval = max(env.now - start, 1e-12)
    report = UtilizationReport(interval_s=interval)
    for name, kind, counters, _res in system.hardware():
        prior = base_busy.get(name)
        delta = max(counters.busy_s - (prior[1] if prior is not None else 0.0), 0.0)
        # busy time is charged when a hold *starts*, so a transfer in
        # flight at snapshot time can push the fraction past 1 — cap
        # that transient, nothing else
        report.resources.append(
            ResourceUsage(name, kind, delta, min(delta / interval, 1.0))
        )
    return report
