"""Application I/O phase detection.

The paper (§III-A2) extends PAS2P: "we propose to identify the
significant phases with an access pattern and their weights.  Due to
the fact that scientific applications show a repetitive behavior, m
phases will exist in the application."

The detector groups the per-rank event stream into *phases* by
pattern similarity: consecutive events whose signature (operation,
block size, access mode, file) matches — allowing interleaved
communication gaps — belong to one phase occurrence; occurrences with
equal signatures are the repetitions of the same phase.  Each phase
gets a *weight*: its share of total I/O time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .events import IOEvent, PhaseEvent

__all__ = ["PhaseDetector", "detect_phases"]


@dataclass
class _Accumulator:
    occurrences: int = 0
    total_bytes: int = 0
    total_time: float = 0.0
    ranks: set = None

    def __post_init__(self):
        if self.ranks is None:
            self.ranks = set()


class PhaseDetector:
    """Similarity-based phase extraction from an event stream."""

    def __init__(self, gap_tolerance_s: float = float("inf")):
        #: maximum silent gap inside one phase occurrence; the default
        #: merges by signature only (the paper's per-pattern view)
        self.gap_tolerance_s = gap_tolerance_s

    def detect(self, events: list[IOEvent]) -> list[PhaseEvent]:
        """Group events into phases; returns phases ordered by first
        appearance, each with occurrence count and weight basis."""
        if not events:
            return []
        ordered = sorted(events, key=lambda e: (e.t_start, e.rank))
        # First pass: split each rank's stream into occurrences.
        per_rank: dict[int, list[IOEvent]] = defaultdict(list)
        for e in ordered:
            per_rank[e.rank].append(e)

        acc: dict[tuple, _Accumulator] = {}
        first_seen: dict[tuple, float] = {}
        for rank, evs in per_rank.items():
            prev_sig = None
            prev_end = None
            for e in evs:
                sig = e.signature()
                new_occurrence = (
                    sig != prev_sig
                    or (prev_end is not None and e.t_start - prev_end > self.gap_tolerance_s)
                )
                a = acc.get(sig)
                if a is None:
                    a = acc[sig] = _Accumulator()
                    first_seen[sig] = e.t_start
                if new_occurrence:
                    a.occurrences += 1
                a.total_bytes += e.total_bytes
                a.total_time += e.duration
                a.ranks.add(rank)
                prev_sig, prev_end = sig, e.t_end
        phases = []
        for i, sig in enumerate(sorted(acc, key=lambda s: first_seen[s])):
            a = acc[sig]
            phases.append(
                PhaseEvent(
                    phase_id=i,
                    op=sig[0],
                    signature=sig,
                    occurrences=a.occurrences,
                    total_bytes=a.total_bytes,
                    total_time=a.total_time,
                    ranks=len(a.ranks),
                )
            )
        return phases

    @staticmethod
    def weights(phases: list[PhaseEvent]) -> dict[int, float]:
        """phase_id -> fraction of total I/O time (the PAS2P weight)."""
        total = sum(p.total_time for p in phases)
        if total <= 0:
            n = len(phases)
            return {p.phase_id: 1.0 / n for p in phases} if n else {}
        return {p.phase_id: p.total_time / total for p in phases}


def detect_phases(events: list[IOEvent], gap_tolerance_s: float = float("inf")) -> list[PhaseEvent]:
    """Convenience wrapper over :class:`PhaseDetector`."""
    return PhaseDetector(gap_tolerance_s).detect(events)
