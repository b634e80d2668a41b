"""Trace record types captured by the PAS2P-style I/O tracer.

The paper extends the PAS2P tracing tool with the MPI-2 I/O
primitives (``libpas2p_io.so`` preloaded into the application); the
simulated equivalent is a stream of :class:`IOEvent` records emitted
by the MPI-IO layer, one per I/O call, carrying enough geometry to
recover the application's access pattern, phases and weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..storage.base import AccessMode, classify_mode

__all__ = ["IOEvent", "PhaseEvent"]


@dataclass(frozen=True)
class IOEvent:
    """One MPI-IO call by one rank."""

    rank: int
    op: str  # "read" | "write" | "open" | "close" | "sync"
    offset: int
    nbytes: int
    count: int
    stride: Optional[int]
    t_start: float
    t_end: float
    path: str
    collective: bool = False

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def total_bytes(self) -> int:
        return self.nbytes * self.count

    @property
    def mode(self) -> AccessMode:
        return classify_mode(self.nbytes, self.count, self.stride)

    @property
    def bandwidth(self) -> float:
        """Achieved transfer rate in bytes/second (0 for instant events)."""
        d = self.duration
        return self.total_bytes / d if d > 0 else 0.0

    def signature(self) -> tuple:
        """Pattern signature used by phase detection (geometry, not time)."""
        return (self.op, self.nbytes, self.count, self.mode.value, self.path)


@dataclass(frozen=True)
class PhaseEvent:
    """A detected application I/O phase (a repeated access pattern)."""

    phase_id: int
    op: str
    signature: tuple
    occurrences: int
    total_bytes: int
    total_time: float
    ranks: int

    @property
    def weight(self) -> float:
        """Fraction of traced I/O time spent in this phase (set by the
        detector via total_time normalisation)."""
        return self.total_time
