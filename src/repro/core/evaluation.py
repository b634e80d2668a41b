"""Phase 3 of the methodology: evaluation (paper §III-C, Figs. 9-11).

The application is run on each selected I/O configuration; its
achieved transfer rates are compared with the characterized values at
every level of the I/O path to produce the **used-percentage table**
(the generation algorithm of Fig. 10):

    for each application measure (op, block, access, mode, rate):
        for each level's performance table:
            char = table.lookup(op, block, access, mode)   # Fig. 11
            used% = 100 * rate / char

"When the application is not limited by I/O on a specific level the
used percentage probably surpasses 100%" — e.g. reads served from a
cache exceed the stressed-device characterization — "then we evaluate
the next level in the I/O path."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..storage.base import AccessMode, AccessType
from .characterize import AppProfile
from .perftable import PerformanceTable

__all__ = [
    "UsedRow",
    "UsedPercentageTable",
    "generate_used_percentage",
    "bottleneck_level",
    "used_tables_equal",
    "EvaluationReport",
]


@dataclass(frozen=True)
class UsedRow:
    """One cell of the used-percentage table (paper Tables III/IV/VI/...)."""

    level: str
    op: str
    block_bytes: int
    mode: AccessMode
    access: AccessType
    app_rate_Bps: float
    characterized_Bps: Optional[float]

    @property
    def used_pct(self) -> Optional[float]:
        if self.characterized_Bps is None or self.characterized_Bps <= 0:
            return None
        return 100.0 * self.app_rate_Bps / self.characterized_Bps


@dataclass
class UsedPercentageTable:
    """All (measure × level) cells for one application run on one config."""

    config_name: str
    rows: list[UsedRow] = field(default_factory=list)

    def cell(self, level: str, op: str) -> Optional[float]:
        """Byte-weighted used%% for an operation type at a level."""
        cells = [
            r for r in self.rows if r.level == level and r.op == op and r.used_pct is not None
        ]
        if not cells:
            return None
        weights = [r.app_rate_Bps for r in cells]
        total = sum(weights)
        if total <= 0:
            return sum(r.used_pct for r in cells) / len(cells)
        return sum(r.used_pct * w for r, w in zip(cells, weights)) / total

    def levels(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.level not in seen:
                seen.append(r.level)
        return seen


def generate_used_percentage(
    config_name: str,
    profile: AppProfile,
    tables: dict[str, PerformanceTable],
    min_bytes_fraction: float = 0.01,
) -> UsedPercentageTable:
    """The paper's Fig. 10 algorithm.

    Measures carrying less than ``min_bytes_fraction`` of the
    operation type's bytes are noise (open/close bookkeeping, tiny
    headers) and are skipped.
    """
    out = UsedPercentageTable(config_name)
    totals = {"read": 0, "write": 0}
    for m in profile.measures:
        totals[m.op] = totals.get(m.op, 0) + m.total_bytes
    for m in profile.measures:
        if totals.get(m.op) and m.total_bytes < totals[m.op] * min_bytes_fraction:
            continue
        for level, table in tables.items():
            char = table.lookup(m.op, m.block_bytes, m.access, m.mode)
            out.rows.append(
                UsedRow(level, m.op, m.block_bytes, m.mode, m.access, m.rate_Bps, char)
            )
    return out


def bottleneck_level(
    table: UsedPercentageTable, op: str, level_order: Sequence[str] = ("iolib", "nfs", "localfs")
) -> Optional[str]:
    """Walk the I/O path (paper §III-C2): the first level whose used
    percentage stays below 100% is where the application is actually
    limited; levels exceeding 100% are not the constraint (cache or
    aggregation effects) and the next level is examined."""
    for level in level_order:
        pct = table.cell(level, op)
        if pct is None:
            continue
        if pct < 100.0:
            return level
    return None


def used_tables_equal(
    a: UsedPercentageTable,
    b: UsedPercentageTable,
    rel_tol: float = 1e-9,
) -> bool:
    """Structural equality of two used-percentage tables.

    The phase-replay fastpath promises the *same* evaluation verdict as
    full replay: identical row structure (level, op, block, mode,
    access, characterized rate) and application rates equal within
    ``rel_tol``.  This is the acceptance check used by the fastpath
    tests and the ``repro perf`` evaluation benchmark.
    """
    from math import isclose

    if len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if (ra.level, ra.op, ra.block_bytes, ra.mode, ra.access) != (
            rb.level, rb.op, rb.block_bytes, rb.mode, rb.access
        ):
            return False
        if (ra.characterized_Bps is None) != (rb.characterized_Bps is None):
            return False
        if ra.characterized_Bps is not None and not isclose(
            ra.characterized_Bps, rb.characterized_Bps, rel_tol=rel_tol
        ):
            return False
        if not isclose(ra.app_rate_Bps, rb.app_rate_Bps, rel_tol=rel_tol):
            return False
    return True


@dataclass
class EvaluationReport:
    """Everything the evaluation phase produces for one configuration."""

    config_name: str
    execution_time_s: float
    io_time_s: float
    bytes_written: int
    bytes_read: int
    used: UsedPercentageTable
    profile: AppProfile
    #: phase-replay accelerator statistics of the run (ReplayStats),
    #: when the application surfaced them; ``None`` otherwise
    replay: object = None
    #: wall-clock seconds the run took inside its worker
    wall_s: Optional[float] = None
    #: instrumented runs only (``Methodology.evaluate(instrument=True)``):
    #: per-level counters {"counters": ..., "histograms": ...}
    metrics: Optional[dict] = None
    #: instrumented runs only: busy fractions over the measured run,
    #: with sampled windows (core.utilization.UtilizationReport)
    utilization: object = None
    #: instrumented runs only: phase-replay observability dict
    #: (PhaseReplayAccelerator.observability())
    replay_phases: Optional[dict] = None
    #: the run's IOEvent stream, when the caller asked to keep it
    events: Optional[list] = None
    #: sanitized runs only (``--sanitize`` / ``REPRO_SANITIZE=1``):
    #: invariant-check summary (SimSanitizer.report())
    sanitizer: Optional[dict] = None
    #: faulted runs only (``Methodology.evaluate(faults=...)`` /
    #: ``--faults``): degraded-mode report
    #: (repro.faults.build_degraded_report())
    faults: Optional[dict] = None

    @property
    def io_fraction(self) -> float:
        return self.io_time_s / self.execution_time_s if self.execution_time_s > 0 else 0.0

    @property
    def throughput_Bps(self) -> float:
        moved = self.bytes_written + self.bytes_read
        return moved / self.io_time_s if self.io_time_s > 0 else 0.0

    def write_bottleneck(self) -> Optional[str]:
        return bottleneck_level(self.used, "write")

    def read_bottleneck(self) -> Optional[str]:
        return bottleneck_level(self.used, "read")
