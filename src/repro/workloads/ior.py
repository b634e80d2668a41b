"""IOR-like parallel I/O benchmark.

The paper characterizes the I/O library level with IOR (Figs. 6 and
14): N MPI processes write and then read a shared file through
MPI-IO, each owning a contiguous *block* accessed in *transfer*-sized
operations.  Aohyper: 8 processes, 32 GB file (12 GB on JBOD), block
sizes 1 MiB – 1 GiB, 256 KiB transfers.  Cluster A: 40 GB file.

Both the collective (two-phase) and independent APIs are supported;
the paper's library-level characterization uses the MPI-IO default
(collective buffering on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..storage.base import MiB
from ..clusters.builder import System

__all__ = ["IORRow", "IORResult", "run_ior"]


@dataclass(frozen=True)
class IORRow:
    op: str  # read | write
    block_bytes: int
    transfer_bytes: int
    nprocs: int
    aggregate_rate_Bps: float
    elapsed_s: float
    total_bytes: int


@dataclass
class IORResult:
    path: str
    nprocs: int
    rows: list[IORRow] = field(default_factory=list)

    def rate(self, op: str, block_bytes: int) -> float:
        for r in self.rows:
            if r.op == op and r.block_bytes == block_bytes:
                return r.aggregate_rate_Bps
        raise KeyError((op, block_bytes))


def run_ior(
    system: System,
    nprocs: int,
    path: str = "/nfs/ior.dat",
    block_sizes: Sequence[int] = (1 * MiB, 16 * MiB, 256 * MiB),
    transfer_bytes: int = 256 * 1024,
    file_bytes: int | None = None,
    collective: bool = True,
    placement: str = "block",
) -> IORResult:
    """Run the benchmark; one write and one read row per block size.

    ``file_bytes`` caps the data per pass (IOR's segment count): each
    pass moves ``min(block * nprocs, file_bytes)`` bytes, repeated so
    every pass touches at least ``file_bytes`` when given.
    """
    env = system.env
    result = IORResult(path=path, nprocs=nprocs)
    world = system.world(nprocs, placement=placement, io_hints={"collective": collective})

    barrier_times: dict = {}

    def program(mpi):
        for block in block_sizes:
            per_proc = block
            segments = 1
            if file_bytes is not None:
                total = block * mpi.size
                segments = max(1, min(file_bytes // total, 8))
            chunk = 16 * MiB  # one collective call per cb buffer
            # ---- write pass -------------------------------------------------
            f = yield mpi.file_open(path, "w")
            yield mpi.barrier()
            t0 = mpi.now
            for seg in range(segments):
                base = seg * per_proc * mpi.size + mpi.rank * per_proc
                done = 0
                while done < per_proc:
                    n = min(chunk, per_proc - done)
                    ops = max(n // transfer_bytes, 1)
                    if collective:
                        yield f.write_at_all(base + done, transfer_bytes, count=ops)
                    else:
                        yield f.write_at(base + done, transfer_bytes, count=ops)
                    done += n
            yield f.close()
            yield mpi.barrier()
            t1 = mpi.now
            # ---- read pass ----------------------------------------------------
            f = yield mpi.file_open(path, "r")
            yield mpi.barrier()
            t2 = mpi.now
            for seg in range(segments):
                base = seg * per_proc * mpi.size + mpi.rank * per_proc
                done = 0
                while done < per_proc:
                    n = min(chunk, per_proc - done)
                    ops = max(n // transfer_bytes, 1)
                    if collective:
                        yield f.read_at_all(base + done, transfer_bytes, count=ops)
                    else:
                        yield f.read_at(base + done, transfer_bytes, count=ops)
                    done += n
            yield f.close()
            yield mpi.barrier()
            t3 = mpi.now
            if mpi.rank == 0:
                barrier_times[block] = (t0, t1, t2, t3, segments)
        return None

    env.run(world.run_program(program, name="ior"))

    for block, (t0, t1, t2, t3, segments) in barrier_times.items():
        total = block * nprocs * segments
        for op, dt in (("write", t1 - t0), ("read", t3 - t2)):
            result.rows.append(
                IORRow(op, block, transfer_bytes, nprocs,
                       total / dt if dt > 0 else 0.0, dt, total)
            )
    result.rows.sort(key=lambda r: (r.op, r.block_bytes))
    return result
