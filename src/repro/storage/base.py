"""Common vocabulary of the storage stack.

Defines the request geometry shared by every level of the I/O path
(I/O library → global filesystem → local filesystem → devices), and
the access-mode taxonomy the paper's performance tables use
(sequential / strided / random, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = [
    "AccessMode",
    "AccessType",
    "IORequest",
    "classify_mode",
    "random_stride",
    "KiB",
    "MiB",
    "GiB",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def random_stride(page: int) -> int:
    """Stride at which a random (``stride=-1``) pattern is cost-modelled:
    its operations land ``7919`` pages apart (a prime, so the scatter
    does not line up with power-of-two stripe or segment sizes)."""
    return 7919 * page


class AccessMode(str, Enum):
    """Spatial pattern of a request stream (paper Table I, AccessesMode)."""

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    RANDOM = "random"


class AccessType(str, Enum):
    """Whether the data lives on node-local or globally shared storage."""

    LOCAL = "local"
    GLOBAL = "global"


@dataclass(frozen=True)
class IORequest:
    """A (possibly bulk) file request.

    ``count`` operations of ``nbytes`` each, the k-th at
    ``offset + k * stride``.  ``stride=None`` means contiguous
    (``stride == nbytes``); ``stride=-1`` marks a *random* pattern whose
    offsets are scattered over the file (cost-modelled, not enumerated).
    """

    op: str  # "read" | "write"
    offset: int
    nbytes: int
    count: int = 1
    stride: Optional[int] = None

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"bad op {self.op!r}")
        if self.offset < 0 or self.nbytes < 0 or self.count < 1:
            raise ValueError("invalid request geometry")

    @property
    def total_bytes(self) -> int:
        return self.nbytes * self.count

    @property
    def effective_stride(self) -> int:
        return self.nbytes if self.stride is None else self.stride

    def op_stride(self, page: int) -> int:
        """Distance between consecutive operations; a random pattern's
        are scattered :func:`random_stride` ``(page)`` apart."""
        return random_stride(page) if self.stride == -1 else self.effective_stride

    @property
    def mode(self) -> AccessMode:
        return classify_mode(self.nbytes, self.count, self.stride)

    @property
    def span(self) -> int:
        """Bytes between the first and last byte touched (dense span)."""
        if self.stride == -1:
            return self.total_bytes
        s = self.effective_stride
        return s * (self.count - 1) + self.nbytes

    @property
    def is_dense(self) -> bool:
        """True when the request covers its span without holes."""
        return self.count == 1 or self.effective_stride == self.nbytes


def classify_mode(nbytes: int, count: int, stride: Optional[int]) -> AccessMode:
    """Access-mode taxonomy used by the performance tables."""
    if stride == -1:
        return AccessMode.RANDOM
    if count == 1 or stride is None or stride == nbytes:
        return AccessMode.SEQUENTIAL
    return AccessMode.STRIDED
