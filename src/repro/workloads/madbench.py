"""MADbench2 application model.

MADbench2 (Carter, Borrill, Oliker) exercises the I/O, communication
and calculation subsystems with the matrix workload of a CMB angular
power-spectrum analysis.  In *IO mode* (the paper's setup) all
calculations and communications are replaced by busy-work and the D
function is skipped, leaving three I/O phases over ``NBIN`` component
matrices:

* **S** — derives and *writes* each matrix (8 writes/process);
* **W** — *reads* each matrix back, busy-works, *writes* it again
  (8 reads + 8 writes/process);
* **C** — *reads* each matrix (8 reads/process).

The matrices are ``NPIX² ×  8`` bytes, distributed over the processes:
with the paper's ``18 KPIX`` and 16 processes each operation moves
162 MB per process; with 64 processes, 40.5 MB (Table VIII).  Files
are either per-process (``FILETYPE=UNIQUE``, COMM_SELF) or one shared
file (``FILETYPE=SHARED``).  MADbench2 reports the time spent in each
function split by operation — the paper's S_w, W_w, W_r, C_r columns
(Tables IX–XI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.base import MiB
from ..clusters.builder import System
from ..tracing import IOTracer

__all__ = ["MadBenchConfig", "MadBenchResult", "run_madbench", "characterize_madbench"]


@dataclass(frozen=True)
class MadBenchConfig:
    kpix: int = 18
    nbin: int = 8
    nprocs: int = 16
    filetype: str = "unique"  # "unique" | "shared"
    iomode: str = "sync"
    path: str = "/nfs/madbench"
    #: busy-work seconds between consecutive I/O operations
    busywork_s: float = 0.5

    def __post_init__(self):
        if self.filetype not in ("unique", "shared"):
            raise ValueError(f"filetype must be 'unique' or 'shared', got {self.filetype!r}")
        if self.iomode not in ("sync",):
            raise ValueError("only IOMODE=SYNC is modelled")
        if self.nprocs < 1:
            raise ValueError(f"MADbench2 requires nprocs >= 1, got {self.nprocs}")
        if self.kpix < 1:
            raise ValueError(f"MADbench2 requires kpix >= 1, got {self.kpix}")

    @property
    def npix(self) -> int:
        return self.kpix * 1000

    @property
    def matrix_bytes(self) -> int:
        """One component matrix, whole system."""
        return self.npix * self.npix * 8

    @property
    def block_bytes(self) -> int:
        """Per-process share of one matrix = one I/O operation."""
        return self.matrix_bytes // self.nprocs

    @property
    def file_bytes_per_proc(self) -> int:
        return self.block_bytes * self.nbin


@dataclass
class FunctionTimes:
    """Per-function accumulated I/O time and bytes (averaged over ranks)."""

    read_s: float = 0.0
    write_s: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0

    def read_rate(self) -> float:
        return self.bytes_read / self.read_s if self.read_s > 0 else 0.0

    def write_rate(self) -> float:
        return self.bytes_written / self.write_s if self.write_s > 0 else 0.0


@dataclass
class MadBenchResult:
    config: MadBenchConfig
    execution_time: float = 0.0
    functions: dict[str, FunctionTimes] = field(default_factory=dict)
    tracer: object = None
    #: phase-replay accelerator statistics of the run (ReplayStats)
    replay: object = None

    #: paper column names -> (function, op)
    COLUMNS = {
        "S_w": ("S", "write"),
        "W_w": ("W", "write"),
        "W_r": ("W", "read"),
        "C_r": ("C", "read"),
    }

    def rate(self, column: str) -> float:
        fn, op = self.COLUMNS[column]
        ft = self.functions[fn]
        return ft.read_rate() if op == "read" else ft.write_rate()

    def time(self, column: str) -> float:
        fn, op = self.COLUMNS[column]
        ft = self.functions[fn]
        return ft.read_s if op == "read" else ft.write_s

    @property
    def io_time(self) -> float:
        return sum(f.read_s + f.write_s for f in self.functions.values())


def characterize_madbench(config: MadBenchConfig) -> dict:
    """Static characterization (paper Table VIII)."""
    per_file = config.nprocs if config.filetype == "shared" else 1
    nfiles = 1 if config.filetype == "shared" else config.nprocs
    reads_per_proc = 2 * config.nbin  # W + C
    writes_per_proc = 2 * config.nbin  # S + W
    return {
        "num_files": nfiles,
        "numio_read": reads_per_proc * per_file if config.filetype == "shared" else reads_per_proc,
        "numio_write": writes_per_proc * per_file if config.filetype == "shared" else writes_per_proc,
        "numio_read_total": reads_per_proc * config.nprocs,
        "numio_write_total": writes_per_proc * config.nprocs,
        "block_bytes": config.block_bytes,
        "numio_open": nfiles if config.filetype == "shared" else 1,
        "nprocs": config.nprocs,
    }


def run_madbench(
    system: System, config: MadBenchConfig, tracer: IOTracer | None = None
) -> MadBenchResult:
    """Execute the MADbench2 IO-mode model; returns per-function metrics."""
    env = system.env
    tracer = tracer if tracer is not None else IOTracer()
    world = system.world(config.nprocs, tracer=tracer)
    result = MadBenchResult(config=config)
    for fn in ("S", "W", "C"):
        result.functions[fn] = FunctionTimes()

    nb = config.block_bytes

    # per-rank accumulators: {fn: [read_s, write_s]}
    times = {fn: [[0.0, 0.0] for _ in range(config.nprocs)] for fn in "SWC"}

    def offset_of(rank: int, b: int) -> int:
        if config.filetype == "shared":
            return b * config.matrix_bytes + rank * nb
        return b * nb

    def program(mpi):
        if config.filetype == "shared":
            f = yield mpi.file_open(f"{config.path}/data.dat", "w")
        else:
            f = yield mpi.file_open_self(f"{config.path}/data_{mpi.rank}.dat", "w")
        # ---- S: write each component matrix --------------------------------
        for b in range(config.nbin):
            yield mpi.compute(seconds=config.busywork_s)
            t0 = mpi.now
            yield f.write_at(offset_of(mpi.rank, b), nb)
            times["S"][mpi.rank][1] += mpi.now - t0
        yield mpi.barrier()
        # ---- W: read, busy-work, write -------------------------------------
        for b in range(config.nbin):
            t0 = mpi.now
            yield f.read_at(offset_of(mpi.rank, b), nb)
            times["W"][mpi.rank][0] += mpi.now - t0
            yield mpi.compute(seconds=config.busywork_s)
            t0 = mpi.now
            yield f.write_at(offset_of(mpi.rank, b), nb)
            times["W"][mpi.rank][1] += mpi.now - t0
        yield mpi.barrier()
        # ---- C: read ---------------------------------------------------------
        for b in range(config.nbin):
            t0 = mpi.now
            yield f.read_at(offset_of(mpi.rank, b), nb)
            times["C"][mpi.rank][0] += mpi.now - t0
            yield mpi.compute(seconds=config.busywork_s)
        if config.filetype == "shared":
            yield f.close()
        else:
            yield f.close_self()
        return None

    t_start = env.now
    env.run(world.run_program(program, name=f"madbench-{config.filetype}"))
    result.execution_time = env.now - t_start

    n = config.nprocs
    for fn in "SWC":
        ft = result.functions[fn]
        ft.read_s = sum(t[0] for t in times[fn]) / n
        ft.write_s = sum(t[1] for t in times[fn]) / n
    # aggregate bytes over all ranks; with the mean per-rank phase time
    # this yields the aggregate achieved transfer rate of each phase
    result.functions["S"].bytes_written = nb * config.nbin * n
    result.functions["W"].bytes_read = nb * config.nbin * n
    result.functions["W"].bytes_written = nb * config.nbin * n
    result.functions["C"].bytes_read = nb * config.nbin * n
    result.tracer = tracer
    result.replay = world.replay.stats
    return result
