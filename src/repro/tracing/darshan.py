"""Darshan-style trace summaries and portable trace files.

The paper's related work (Carns et al., [7][8]) characterizes
petascale I/O with Darshan: compact per-file, per-rank counters
rather than full event logs.  This module provides the equivalent
view over an :class:`~repro.tracing.tracer.IOTracer` capture, plus a
CSV round-trip so traces can be saved, shipped and re-analysed
without re-running a simulation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

from ..units import fmt_bytes
from .events import IOEvent
from .tracer import IOTracer

__all__ = ["FileRecord", "DarshanReport", "build_report", "events_to_csv", "events_from_csv"]


@dataclass
class FileRecord:
    """Darshan-like per-file counters."""

    path: str
    ranks: set = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    max_offset: int = 0
    collective_ops: int = 0
    independent_ops: int = 0
    size_histogram: dict[str, int] = field(default_factory=dict)

    #: Darshan's access-size buckets
    BUCKETS = (
        ("0-100", 0, 100),
        ("100-1K", 100, 1024),
        ("1K-10K", 1024, 10240),
        ("10K-100K", 10240, 102400),
        ("100K-1M", 102400, 1 << 20),
        ("1M-4M", 1 << 20, 4 << 20),
        ("4M+", 4 << 20, float("inf")),
    )

    def add(self, e: IOEvent) -> None:
        self.ranks.add(e.rank)
        if e.op == "read":
            self.reads += e.count
            self.bytes_read += e.total_bytes
        elif e.op == "write":
            self.writes += e.count
            self.bytes_written += e.total_bytes
        # extent of a strided bulk op: the last of `count` transfers
        # starts at offset + (count-1)*stride and covers nbytes — using
        # count*stride would overstate the file extent whenever
        # stride > nbytes (replay specs would allocate oversized files)
        if e.stride is not None:
            extent = e.offset + (e.count - 1) * e.stride + e.nbytes
        else:
            extent = e.offset + e.count * e.nbytes
        self.max_offset = max(self.max_offset, extent)
        if e.collective:
            self.collective_ops += e.count
        else:
            self.independent_ops += e.count
        for name, lo, hi in self.BUCKETS:
            if lo <= e.nbytes < hi:
                self.size_histogram[name] = self.size_histogram.get(name, 0) + e.count
                break

    @property
    def shared(self) -> bool:
        return len(self.ranks) > 1

    @property
    def dominant_bucket(self) -> Optional[str]:
        if not self.size_histogram:
            return None
        return max(self.size_histogram, key=lambda k: self.size_histogram[k])


@dataclass
class DarshanReport:
    """Whole-run summary: one record per file plus global counters."""

    files: dict[str, FileRecord] = field(default_factory=dict)
    nranks: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(f.bytes_read + f.bytes_written for f in self.files.values())

    @property
    def shared_files(self) -> list[str]:
        return [p for p, f in self.files.items() if f.shared]

    def render(self) -> str:
        lines = [f"darshan-style summary: {len(self.files)} file(s), {self.nranks} rank(s)"]
        for path, f in sorted(self.files.items()):
            lines.append(
                f"  {path} [{'shared' if f.shared else 'unique'}]"
                f" reads={f.reads} ({fmt_bytes(f.bytes_read)})"
                f" writes={f.writes} ({fmt_bytes(f.bytes_written)})"
                f" dominant access={f.dominant_bucket}"
                f" collective={f.collective_ops}/{f.collective_ops + f.independent_ops}"
            )
        return "\n".join(lines)


def build_report(tracer: IOTracer) -> DarshanReport:
    """Fold an event capture into per-file counters."""
    report = DarshanReport(nranks=tracer.nranks)
    for e in tracer.events:
        rec = report.files.get(e.path)
        if rec is None:
            rec = report.files[e.path] = FileRecord(path=e.path)
        rec.add(e)
    return report


# ----------------------------------------------------------------------
# portable trace files
# ----------------------------------------------------------------------
_FIELDS = ("rank", "op", "offset", "nbytes", "count", "stride", "t_start", "t_end", "path", "collective")

#: leading metadata line of a portable trace; carries what the event
#: rows cannot (the MPI world size, so idle ranks survive round trips)
_META_PREFIX = "#repro-trace"
_META_VERSION = 1


def events_to_csv(tracer: IOTracer) -> str:
    """Serialise the event stream (offsets/times exact, text-portable).

    The first line is a ``#repro-trace`` metadata comment recording the
    format version and the capture's world size; the CSV header and
    rows follow.  :func:`events_from_csv` also accepts plain headerless
    captures without the metadata line.
    """
    buf = io.StringIO()
    buf.write(f"{_META_PREFIX} v{_META_VERSION} world_size={tracer.nranks}\n")
    w = csv.writer(buf)
    w.writerow(_FIELDS)
    for e in tracer.events:
        w.writerow([
            e.rank, e.op, e.offset, e.nbytes, e.count,
            "" if e.stride is None else e.stride,
            repr(e.t_start), repr(e.t_end), e.path, int(e.collective),
        ])
    return buf.getvalue()


def events_from_csv(text: str) -> IOTracer:
    """Rebuild a tracer from :func:`events_to_csv` output."""
    world_size: Optional[int] = None
    lines = text.splitlines(keepends=True)
    body = 0
    while body < len(lines) and lines[body].startswith("#"):
        line = lines[body].strip()
        if line.startswith(_META_PREFIX):
            for token in line.split():
                if token.startswith("world_size="):
                    world_size = int(token.partition("=")[2])
        body += 1
    tracer = IOTracer(world_size=world_size)
    for rec in csv.DictReader(io.StringIO("".join(lines[body:]))):
        ev = IOEvent(
            rank=int(rec["rank"]),
            op=rec["op"],
            offset=int(rec["offset"]),
            nbytes=int(rec["nbytes"]),
            count=int(rec["count"]),
            stride=None if rec["stride"] == "" else int(rec["stride"]),
            t_start=float(rec["t_start"]),
            t_end=float(rec["t_end"]),
            path=rec["path"],
            collective=bool(int(rec["collective"])),
        )
        tracer.record(ev.rank, ev)
    return tracer
