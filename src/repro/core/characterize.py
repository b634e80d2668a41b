"""Phase 1 of the methodology: characterization (paper §III-A).

*System characterization* measures bandwidth at each level of the I/O
path with the standard benchmarks — IOzone for the local and network
filesystems, IOR for the I/O library — and stores the results in
per-level :class:`~repro.core.perftable.PerformanceTable` objects
("characterized configurations with their performance tables in each
I/O path level", Fig. 3).  Each level is measured on a freshly built
system so earlier benchmarks cannot pollute caches.

*Application characterization* turns a PAS2P-style trace into an
:class:`AppProfile`: operation counts, dominant block sizes, access
modes, phases and achieved rates — the inputs of the evaluation
phase's used-percentage algorithm (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..simengine import Environment
from ..storage.base import AccessMode, AccessType, GiB, KiB, MiB
from ..clusters.builder import SystemConfig, build_system
from ..tracing import IOTracer, PhaseDetector, PhaseEvent
from ..workloads.iozone import run_iozone
from ..workloads.ior import run_ior
from .perftable import PerformanceTable, PerfRow

__all__ = [
    "LEVELS",
    "AppMeasure",
    "AppProfile",
    "characterize_system",
    "characterize_level",
    "characterize_app",
]

#: the paper's three I/O path levels (Fig. 2): I/O library, global
#: (network) filesystem, local filesystem/devices
LEVELS = ("iolib", "nfs", "localfs")

#: default block sweep: 32 KiB .. 16 MiB, the paper's IOzone range
DEFAULT_BLOCKS = tuple((32 * KiB) << k for k in range(10))


def characterize_level(
    config: SystemConfig,
    level: str,
    block_sizes: Sequence[int] = DEFAULT_BLOCKS,
    file_bytes: Optional[int] = None,
    ior_nprocs: int = 8,
    ior_file_bytes: Optional[int] = None,
) -> PerformanceTable:
    """Characterize one I/O path level on a freshly built system."""
    env = Environment()
    system = build_system(env, config)
    table = PerformanceTable(level)
    # The paper's characterization (Figs. 5/6/13/14) sweeps *sequential*
    # block tests; strided/random application patterns are answered by
    # the search algorithm's fallback to the sequential rows.
    if level == "localfs":
        res = run_iozone(
            system, "n0", "/local/char.tmp", file_bytes, block_sizes,
            include_strided=False, include_random=False,
        )
        _iozone_into(table, res, AccessType.LOCAL)
    elif level == "nfs":
        res = run_iozone(
            system, "n0", "/nfs/char.tmp", file_bytes, block_sizes,
            include_strided=False, include_random=False,
        )
        _iozone_into(table, res, AccessType.GLOBAL)
    elif level == "iolib":
        if ior_file_bytes is None:
            ior_file_bytes = 4 * GiB
        res = run_ior(
            system,
            ior_nprocs,
            path="/nfs/char_ior.dat",
            block_sizes=tuple(b for b in block_sizes if b >= 1 * MiB) or (1 * MiB,),
            file_bytes=ior_file_bytes,
        )
        for row in res.rows:
            table.add(
                PerfRow(row.op, row.block_bytes, AccessType.GLOBAL,
                        AccessMode.SEQUENTIAL, row.aggregate_rate_Bps)
            )
    else:
        raise ValueError(f"unknown level {level!r} (want one of {LEVELS})")
    return table


def _iozone_into(table: PerformanceTable, res, access: AccessType) -> None:
    """Fold IOzone rows into a performance table.

    The characterized rate for a (op, block, mode) key is the *best*
    sustained rate observed for it (write vs rewrite, read vs reread) —
    "the characterized values were measured under stressed I/O
    system", i.e. they are the capacity, not an average.
    """
    best: dict[tuple, float] = {}
    for row in res.rows:
        key = (row.op, row.block_bytes, row.mode)
        best[key] = max(best.get(key, 0.0), row.rate_Bps)
    for (op, block, mode), rate in best.items():
        table.add(PerfRow(op, block, access, mode, rate))


def characterize_system(
    config: SystemConfig,
    levels: Sequence[str] = LEVELS,
    block_sizes: Sequence[int] = DEFAULT_BLOCKS,
    file_bytes: Optional[int] = None,
    ior_nprocs: int = 8,
    ior_file_bytes: Optional[int] = None,
) -> dict[str, PerformanceTable]:
    """Characterize every requested level of an I/O configuration."""
    return {
        level: characterize_level(
            config, level, block_sizes, file_bytes, ior_nprocs, ior_file_bytes
        )
        for level in levels
    }


# ----------------------------------------------------------------------
# application characterization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppMeasure:
    """One (operation, block, mode) group of an application's I/O."""

    op: str
    block_bytes: int
    mode: AccessMode
    access: AccessType
    n_ops: int
    total_bytes: int
    io_time_s: float  # per-rank mean blocking time

    @property
    def rate_Bps(self) -> float:
        """Aggregate achieved transfer rate."""
        return self.total_bytes / self.io_time_s if self.io_time_s > 0 else 0.0


@dataclass
class AppProfile:
    """Application I/O requirements extracted from a trace (paper Fig. 7)."""

    nprocs: int
    measures: list[AppMeasure] = field(default_factory=list)
    phases: list[PhaseEvent] = field(default_factory=list)
    io_time_s: float = 0.0
    bytes_written: int = 0
    bytes_read: int = 0

    def measure(self, op: str) -> Optional[AppMeasure]:
        """The dominant (most bytes) measure for an operation type."""
        ms = [m for m in self.measures if m.op == op]
        return max(ms, key=lambda m: m.total_bytes) if ms else None

    @property
    def iops(self) -> float:
        ops = sum(m.n_ops for m in self.measures)
        return ops / self.io_time_s if self.io_time_s > 0 else 0.0


def characterize_app(
    tracer: IOTracer, access: AccessType = AccessType.GLOBAL
) -> AppProfile:
    """Build an :class:`AppProfile` from a traced run."""
    nranks = max(tracer.nranks, 1)
    groups: dict[tuple, list] = {}
    for e in tracer.events:
        key = (e.op, e.nbytes, e.mode)
        groups.setdefault(key, []).append(e)
    profile = AppProfile(nprocs=nranks)
    for (op, nbytes, mode), evs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        total_bytes = sum(e.total_bytes for e in evs)
        n_ops = sum(e.count for e in evs)
        time_s = sum(e.duration for e in evs) / nranks
        profile.measures.append(
            AppMeasure(op, nbytes, mode, access, n_ops, total_bytes, time_s)
        )
        if op == "write":
            profile.bytes_written += total_bytes
        else:
            profile.bytes_read += total_bytes
    profile.io_time_s = tracer.io_time()
    profile.phases = PhaseDetector().detect(tracer.events)
    return profile
