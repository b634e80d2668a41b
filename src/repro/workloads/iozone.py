"""IOzone-like filesystem benchmark.

The paper characterizes the local and network filesystem levels with
IOzone (Figs. 5 and 13): block-level sequential tests with a file
twice the node's RAM, record (block) sizes swept from 32 KiB to
16 MiB.  This module reproduces that methodology against a simulated
node's VFS and additionally measures strided and random patterns so
the performance tables can answer every access mode the search
algorithm (paper Fig. 11) may be asked about.

Tests per block size, in IOzone's order: ``write`` (fresh file),
``rewrite``, ``read``, ``reread`` — then optional ``strided read/
write`` and ``random read/write`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..storage.base import AccessMode, IORequest, KiB
from ..clusters.builder import System

__all__ = ["IOzoneRow", "IOzoneResult", "run_iozone", "DEFAULT_BLOCKS"]

DEFAULT_BLOCKS = tuple((32 * KiB) << k for k in range(10))  # 32 KiB .. 16 MiB


@dataclass(frozen=True)
class IOzoneRow:
    """One measurement: a (test, block size, mode) combination."""

    test: str  # write / rewrite / read / reread / strided_* / random_*
    op: str  # read | write
    block_bytes: int
    mode: AccessMode
    rate_Bps: float
    elapsed_s: float
    total_bytes: int


@dataclass
class IOzoneResult:
    node: str
    path: str
    file_bytes: int
    rows: list[IOzoneRow] = field(default_factory=list)

    def rate(self, test: str, block_bytes: int) -> float:
        for r in self.rows:
            if r.test == test and r.block_bytes == block_bytes:
                return r.rate_Bps
        raise KeyError((test, block_bytes))


#: (test name, op, stride factor or None, random?) in run order
_SEQ_TESTS = (
    ("write", "write"),
    ("rewrite", "write"),
    ("read", "read"),
    ("reread", "read"),
)


def run_iozone(
    system: System,
    node_name: str,
    path: str,
    file_bytes: int | None = None,
    block_sizes: Sequence[int] = DEFAULT_BLOCKS,
    include_strided: bool = True,
    include_random: bool = True,
    stride_factor: int = 8,
) -> IOzoneResult:
    """Run the benchmark on ``node_name`` against ``path``.

    ``file_bytes`` defaults to the paper's methodology: twice the
    node's RAM, so the page cache cannot hide the device.  The
    simulation clock advances; results carry simulated elapsed times.
    """
    env = system.env
    node = system.node(node_name)
    if file_bytes is None:
        file_bytes = 2 * node.spec.ram_bytes
    vfs = node.vfs
    result = IOzoneResult(node=node_name, path=path, file_bytes=file_bytes)

    def bench():
        for block in block_sizes:
            count = max(file_bytes // block, 1)
            fh = yield vfs.create(path)
            for test, op in _SEQ_TESTS:
                t0 = env.now
                yield fh.fs.submit(fh.inode, IORequest(op, 0, block, count=count))
                if op == "write":
                    yield fh.fsync()
                dt = env.now - t0
                result.rows.append(
                    IOzoneRow(test, op, block, AccessMode.SEQUENTIAL,
                              block * count / dt if dt > 0 else 0.0, dt, block * count)
                )
            if include_strided:
                s_count = max(count // stride_factor, 1)
                for test, op in (("strided_read", "read"), ("strided_write", "write")):
                    t0 = env.now
                    yield fh.fs.submit(
                        fh.inode,
                        IORequest(op, 0, block, count=s_count, stride=block * stride_factor),
                    )
                    if op == "write":
                        yield fh.fsync()
                    dt = env.now - t0
                    result.rows.append(
                        IOzoneRow(test, op, block, AccessMode.STRIDED,
                                  block * s_count / dt if dt > 0 else 0.0, dt, block * s_count)
                    )
            if include_random:
                r_count = max(min(count, 4096) // 4, 1)
                for test, op in (("random_read", "read"), ("random_write", "write")):
                    t0 = env.now
                    yield fh.fs.submit(
                        fh.inode, IORequest(op, 0, block, count=r_count, stride=-1)
                    )
                    if op == "write":
                        yield fh.fsync()
                    dt = env.now - t0
                    result.rows.append(
                        IOzoneRow(test, op, block, AccessMode.RANDOM,
                                  block * r_count / dt if dt > 0 else 0.0, dt, block * r_count)
                    )
            yield fh.close()
            yield vfs.unlink(path)
        return result

    env.run(env.process(bench(), name=f"iozone@{node_name}"))
    return result
