"""Performance tables and the search algorithm (paper Table I, Fig. 11).

A :class:`PerformanceTable` stores the characterized capacity of one
level of the I/O path as rows of::

    OperationType  read(0) | write(1)
    Blocksize      bytes
    AccessType     Local(0) | Global(1)
    AccessesMode   Sequential | Strided | Random
    transferRate   bytes/second

Lookup follows the paper's Fig. 11 exactly: among rows matching
(operation, access mode, access type),

* a block size below the table minimum selects the minimum row;
* above the maximum selects the maximum row;
* an exact match selects that row;
* otherwise the *closest upper* block size is selected.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional

from ..storage.base import AccessMode, AccessType

__all__ = ["PerfRow", "PerformanceTable"]


@dataclass(frozen=True)
class PerfRow:
    """One characterized measurement (paper Table I)."""

    op: str  # "read" | "write"
    block_bytes: int
    access: AccessType
    mode: AccessMode
    rate_Bps: float

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"bad op {self.op!r}")
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.rate_Bps < 0:
            raise ValueError("rate must be >= 0")


class PerformanceTable:
    """Characterized rates for one I/O path level."""

    def __init__(self, level: str, rows: Iterable[PerfRow] = ()):
        self.level = level
        self.rows: list[PerfRow] = list(rows)

    def add(self, row: PerfRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # the paper's search algorithm (Fig. 11)
    # ------------------------------------------------------------------
    def candidates(
        self, op: str, access: AccessType, mode: AccessMode
    ) -> list[PerfRow]:
        return [
            r
            for r in self.rows
            if r.op == op and r.access is access and r.mode is mode
        ]

    def lookup(
        self,
        op: str,
        block_bytes: int,
        access: AccessType = AccessType.LOCAL,
        mode: AccessMode = AccessMode.SEQUENTIAL,
        fallback_mode: bool = True,
    ) -> Optional[float]:
        """Characterized transfer rate for the request geometry.

        Returns ``None`` when no row matches the (op, access, mode)
        key at all.  With ``fallback_mode`` (the practical choice the
        paper's flowchart implies when a mode was not characterized),
        a missing mode falls back to SEQUENTIAL rows, and a missing
        access type falls back to whatever access this level was
        characterized with (an application doing *global* accesses is
        still compared against the *local* filesystem level's table —
        that is the whole point of the level-by-level walk).
        """
        cands = self.candidates(op, access, mode)
        if not cands and fallback_mode:
            other = (
                AccessType.LOCAL if access is AccessType.GLOBAL else AccessType.GLOBAL
            )
            for acc, md in (
                (access, AccessMode.SEQUENTIAL),
                (other, mode),
                (other, AccessMode.SEQUENTIAL),
            ):
                cands = self.candidates(op, acc, md)
                if cands:
                    break
        if not cands:
            return None
        blocks = sorted({r.block_bytes for r in cands})

        def rate_at(b: int) -> float:
            matching = [r.rate_Bps for r in cands if r.block_bytes == b]
            return sum(matching) / len(matching)

        if block_bytes <= blocks[0]:
            return rate_at(blocks[0])
        if block_bytes >= blocks[-1]:
            return rate_at(blocks[-1])
        for b in blocks:
            if b == block_bytes:
                return rate_at(b)
            if b > block_bytes:
                return rate_at(b)  # closest upper value
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    _FIELDS = ("op", "block_bytes", "access", "mode", "rate_Bps")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self._FIELDS)
        # repr() of a float is the shortest string that parses back to
        # the same value, so save -> load round trips are bit-exact and
        # cached tables evaluate identically to freshly built ones.
        for r in sorted(self.rows, key=lambda r: (r.op, r.access.value, r.mode.value, r.block_bytes)):
            w.writerow([r.op, r.block_bytes, r.access.value, r.mode.value, repr(r.rate_Bps)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, level: str, text: str) -> "PerformanceTable":
        table = cls(level)
        reader = csv.DictReader(io.StringIO(text))
        for rec in reader:
            table.add(
                PerfRow(
                    rec["op"],
                    int(rec["block_bytes"]),
                    AccessType(rec["access"]),
                    AccessMode(rec["mode"]),
                    float(rec["rate_Bps"]),
                )
            )
        return table

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PerformanceTable {self.level!r} rows={len(self.rows)}>"
