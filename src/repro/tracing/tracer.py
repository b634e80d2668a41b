"""PAS2P-style I/O tracer.

Collects the :class:`~repro.tracing.events.IOEvent` stream of an MPI
run (the simulated analogue of preloading ``libpas2p_io.so``) and
answers the characterization queries of the paper's application
phase: operation counts and sizes per operation type (Tables II, V,
VIII), I/O time, transfer rates and IOPs per rank and globally.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .events import IOEvent

__all__ = ["IOTracer", "TraceSummary"]


@dataclass
class TraceSummary:
    """Aggregate characterization of a traced run (one operation type)."""

    op: str
    n_ops: int = 0
    total_bytes: int = 0
    total_time: float = 0.0
    block_sizes: dict[int, int] = field(default_factory=dict)  # nbytes -> op count

    @property
    def iops(self) -> float:
        return self.n_ops / self.total_time if self.total_time > 0 else 0.0

    @property
    def bandwidth(self) -> float:
        return self.total_bytes / self.total_time if self.total_time > 0 else 0.0


class IOTracer:
    """Per-rank event capture with aggregate queries.

    ``world_size`` is the MPI world the capture belongs to, recorded
    when the tracer is wired into a world (``System.world`` /
    ``MPIWorld``).  It makes :attr:`nranks` and the per-rank averages
    (:meth:`io_time`) correct even when some ranks perform no I/O —
    counting only ranks *with events* silently drops idle ranks.
    """

    def __init__(self, world_size: Optional[int] = None):
        self.events: list[IOEvent] = []
        self._by_rank: dict[int, list[IOEvent]] = defaultdict(list)
        self.world_size: Optional[int] = world_size

    # -- capture -----------------------------------------------------------
    def record(self, rank: int, event: IOEvent) -> None:
        self.events.append(event)
        self._by_rank[rank].append(event)

    def set_world_size(self, nprocs: int) -> None:
        """Declare the world size at wiring time.

        A tracer reused across several worlds (e.g. one capture over a
        multi-job run) keeps the largest declared size.
        """
        self.world_size = max(self.world_size or 0, nprocs)

    def clear(self) -> None:
        self.events.clear()
        self._by_rank.clear()
        self.world_size = None

    # -- queries ------------------------------------------------------------
    @property
    def nranks(self) -> int:
        """Ranks in the capture: the declared world size when known,
        else the count of ranks that produced events."""
        if self.world_size is not None:
            return self.world_size
        return len(self._by_rank)

    def ops(self, op: Optional[str] = None, rank: Optional[int] = None) -> list[IOEvent]:
        evs: Iterable[IOEvent] = self.events if rank is None else self._by_rank.get(rank, [])
        return [e for e in evs if op is None or e.op == op]

    def count_ops(self, op: str) -> int:
        """Total individual operations (bulk events expand by count)."""
        return sum(e.count for e in self.events if e.op == op)

    def summary(self, op: str) -> TraceSummary:
        s = TraceSummary(op=op)
        for e in self.events:
            if e.op != op:
                continue
            s.n_ops += e.count
            s.total_bytes += e.total_bytes
            s.total_time += e.duration
            s.block_sizes[e.nbytes] = s.block_sizes.get(e.nbytes, 0) + e.count
        return s

    def io_time(self, rank: Optional[int] = None) -> float:
        """Total time spent inside I/O calls.

        Per-rank I/O intervals may overlap across ranks; the paper's
        "I/O time" is the per-process sum averaged over ranks (each
        process observes its own blocking time).
        """
        if rank is not None:
            return sum(e.duration for e in self._by_rank.get(rank, []))
        if self.nranks == 0:
            return 0.0
        # average over the whole world, not only ranks with events —
        # idle ranks observe zero blocking time but still count
        return sum(
            sum(e.duration for e in evs) for evs in self._by_rank.values()
        ) / self.nranks
