"""NAS BT-IO application model (NPB 2.4 I/O benchmark).

Block-Tridiagonal solver with *diagonal multi-partitioning*: with
``p = K²`` processes, the 3-D grid is split into ``K³`` cells and
every process owns the ``K`` cells along a diagonal.  Every 5 time
steps the whole solution (5 doubles per mesh point) is appended to
the output file; after the time loop the solution is read back and
verified.  The paper evaluates class C (162³ grid, 200 steps → 40
I/O steps) with 16 and 64 processes.

Two I/O subtypes (paper §III-A2):

* **full** — MPI collective buffering: each process contributes its
  ~10 MB (16p) / ~2.5 MB (64p) per I/O step through
  ``MPI_File_write_at_all``; ROMIO's two-phase engine turns that into
  large contiguous writes (Table II: 640 ops of 10 MB).
* **simple** — plain MPI-IO without collective buffering: one write
  per x-row of each owned cell — 1600/1640-byte strided operations,
  ~6561 per process per I/O step at 16 processes (Table II:
  2,073,600 + 2,125,440 tiny ops; reads likewise).

The compute/communication skeleton between I/O steps is modelled with
calibrated busy-time plus real boundary exchanges over the simulated
network, so I/O time can be compared to total run time as the paper
does (Figs. 12 and 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from ..storage.base import MiB
from ..clusters.builder import System
from ..tracing import IOTracer

__all__ = [
    "BTIOClass",
    "BTIOConfig",
    "BTIOResult",
    "btio_class",
    "btio_geometry",
    "characterize_btio",
    "run_btio",
    "BTIO_CLASSES",
]

#: NPB class -> (grid points per side, time steps, total Gflop count)
BTIO_CLASSES: dict[str, tuple[int, int, float]] = {
    "S": (12, 60, 0.3),
    "W": (24, 200, 7.8),
    "A": (64, 200, 168.3),
    "B": (102, 200, 721.5),
    "C": (162, 200, 2922.0),
    "D": (408, 250, 58883.0),
}

#: bytes per mesh point: 5 double-precision words
_POINT_BYTES = 5 * 8
#: time steps between solution dumps
_WRITE_INTERVAL = 5


@dataclass(frozen=True)
class BTIOClass:
    name: str
    grid: int
    steps: int
    gflops: float

    @property
    def io_steps(self) -> int:
        return self.steps // _WRITE_INTERVAL

    @property
    def step_bytes(self) -> int:
        """Solution bytes appended per I/O step (entire field)."""
        return self.grid**3 * _POINT_BYTES

    @property
    def file_bytes(self) -> int:
        return self.step_bytes * self.io_steps


def btio_class(name: str) -> BTIOClass:
    try:
        grid, steps, gf = BTIO_CLASSES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown BT class {name!r}") from None
    return BTIOClass(name.upper(), grid, steps, gf)


def _partition(n: int, k: int) -> list[int]:
    """Split ``n`` points into ``k`` near-equal parts (ceil parts first)."""
    base, rem = divmod(n, k)
    return [base + 1 if i < rem else base for i in range(k)]


@dataclass(frozen=True)
class CellGeometry:
    """One owned cell: sizes and derived simple-subtype row pattern."""

    sx: int
    sy: int
    sz: int

    @property
    def row_bytes(self) -> int:
        return self.sx * _POINT_BYTES

    @property
    def rows(self) -> int:
        return self.sy * self.sz

    @property
    def cell_bytes(self) -> int:
        return self.sx * self.sy * self.sz * _POINT_BYTES


def btio_geometry(clazz: BTIOClass, nprocs: int) -> list[list[CellGeometry]]:
    """Per-rank owned cells under diagonal multi-partitioning.

    ``nprocs`` must be a perfect square ``K²``; each rank owns ``K``
    cells whose (x, y, z) indices follow a diagonal of the K³ cell
    grid, so the per-rank data volume is within one part-size of
    uniform and global sums are exact.
    """
    k = isqrt(nprocs)
    if k * k != nprocs:
        raise ValueError(f"BT-IO requires a square process count, got {nprocs}")
    parts = _partition(clazz.grid, k)
    out: list[list[CellGeometry]] = []
    for p in range(nprocs):
        j, i = divmod(p, k)
        cells = []
        for d in range(k):
            xi = (d + i) % k
            yi = (d + j) % k
            zi = d
            cells.append(CellGeometry(parts[xi], parts[yi], parts[zi]))
        out.append(cells)
    return out


@dataclass(frozen=True)
class BTIOConfig:
    clazz: str = "C"
    nprocs: int = 16
    subtype: str = "full"  # "full" | "simple"
    path: str = "/nfs/btio.out"
    #: sustained fraction of peak flops for the solver kernel
    cpu_efficiency: float = 0.12
    #: boundary-exchange messages per rank per time step
    msgs_per_step: int = 24
    verify_read: bool = True

    def __post_init__(self):
        if self.subtype not in ("full", "simple"):
            raise ValueError(f"subtype must be 'full' or 'simple', got {self.subtype!r}")
        btio_class(self.clazz)  # raises on an unknown class
        if self.nprocs < 1 or isqrt(self.nprocs) ** 2 != self.nprocs:
            raise ValueError(
                f"BT-IO requires a square process count >= 1, got {self.nprocs}"
            )


@dataclass
class BTIOResult:
    config: BTIOConfig
    execution_time: float = 0.0
    io_time: float = 0.0
    write_time: float = 0.0
    read_time: float = 0.0
    bytes_written: int = 0
    bytes_read: int = 0
    n_writes: int = 0
    n_reads: int = 0
    n_opens: int = 0
    tracer: object = None
    #: phase-replay accelerator statistics of the run (ReplayStats)
    replay: object = None

    @property
    def write_rate_Bps(self) -> float:
        return self.bytes_written / self.write_time if self.write_time > 0 else 0.0

    @property
    def read_rate_Bps(self) -> float:
        return self.bytes_read / self.read_time if self.read_time > 0 else 0.0

    @property
    def throughput_Bps(self) -> float:
        total = self.bytes_written + self.bytes_read
        return total / self.io_time if self.io_time > 0 else 0.0

    @property
    def io_fraction(self) -> float:
        return self.io_time / self.execution_time if self.execution_time > 0 else 0.0


def characterize_btio(config: BTIOConfig) -> dict:
    """Static application characterization (paper Tables II and V).

    Derived from geometry alone — no simulation required, which is the
    point the paper makes: the characterization is system-independent
    ("it is not necessary to re-characterize the application in other
    system for the same class and number of processes").
    """
    clazz = btio_class(config.clazz)
    geom = btio_geometry(clazz, config.nprocs)
    io_steps = clazz.io_steps
    if config.subtype == "full":
        per_rank_bytes = [sum(c.cell_bytes for c in cells) for cells in geom]
        blocks = sorted({b for b in per_rank_bytes})
        n_ops = io_steps * config.nprocs
        return {
            "num_files": 1,
            "numio_write": n_ops,
            "numio_read": n_ops if config.verify_read else 0,
            "block_bytes_write": blocks,
            "block_bytes_read": blocks,
            "numio_open": config.nprocs * (2 if config.verify_read else 1),
            "nprocs": config.nprocs,
        }
    counts: dict[int, int] = {}
    for cells in geom:
        for c in cells:
            counts[c.row_bytes] = counts.get(c.row_bytes, 0) + c.rows
    ops = {b: n * io_steps for b, n in counts.items()}
    total_ops = sum(ops.values())
    return {
        "num_files": 1,
        "numio_write": total_ops,
        "numio_read": total_ops if config.verify_read else 0,
        "block_bytes_write": sorted(ops),
        "block_bytes_read": sorted(ops),
        "ops_by_block": ops,
        "numio_open": config.nprocs * (2 if config.verify_read else 1),
        "nprocs": config.nprocs,
    }


def run_btio(system: System, config: BTIOConfig, tracer: IOTracer | None = None) -> BTIOResult:
    """Execute the BT-IO model on a system; returns timing metrics."""
    env = system.env
    clazz = btio_class(config.clazz)
    geom = btio_geometry(clazz, config.nprocs)
    k = isqrt(config.nprocs)
    tracer = tracer if tracer is not None else IOTracer()
    world = system.world(config.nprocs, tracer=tracer)
    result = BTIOResult(config=config)

    flops_per_step_rank = clazz.gflops * 1e9 / clazz.steps / config.nprocs
    face_bytes = max((clazz.grid // k) ** 2 * _POINT_BYTES, 1)
    grid = clazz.grid
    line_bytes = grid * _POINT_BYTES

    io_time = [0.0] * config.nprocs
    write_time = [0.0] * config.nprocs
    read_time = [0.0] * config.nprocs

    def exchange(mpi):
        """One time step's boundary exchanges (3 directions)."""
        sends = []
        per_dir = max(config.msgs_per_step // 3, 1)
        directions = (1, k % mpi.size or 1, (k + 1) % mpi.size or 1)
        for direction in directions:
            peer = (mpi.rank + direction) % mpi.size
            for _ in range(per_dir // 2 or 1):
                sends.append(mpi.isend(peer, face_bytes, tag=direction))
        for direction in directions:
            peer = (mpi.rank - direction) % mpi.size
            for _ in range(per_dir // 2 or 1):
                yield mpi.recv(peer, tag=direction)
        for s in sends:
            yield s

    def write_step(mpi, f, step):
        cells = geom[mpi.rank]
        base = step * clazz.step_bytes
        t0 = mpi.now
        if config.subtype == "full":
            nbytes = sum(c.cell_bytes for c in cells)
            offset = base + (mpi.rank * clazz.step_bytes) // mpi.size
            yield f.write_at_all(offset, nbytes)
        else:
            # x-rows of every owned cell, batched: stride is one full
            # grid line, one part per cell
            yield f.write_at_multi(
                [
                    (
                        base + ((ci * grid // k) * grid + mpi.rank) * _POINT_BYTES,
                        c.row_bytes,
                        c.rows,
                        line_bytes,
                    )
                    for ci, c in enumerate(cells)
                ]
            )
        dt = mpi.now - t0
        io_time[mpi.rank] += dt
        write_time[mpi.rank] += dt
        result.bytes_written += sum(c.cell_bytes for c in cells)
        result.n_writes += 1 if config.subtype == "full" else sum(c.rows for c in cells)

    def read_step(mpi, f, step):
        cells = geom[mpi.rank]
        base = step * clazz.step_bytes
        t0 = mpi.now
        if config.subtype == "full":
            nbytes = sum(c.cell_bytes for c in cells)
            offset = base + (mpi.rank * clazz.step_bytes) // mpi.size
            yield f.read_at_all(offset, nbytes)
        else:
            yield f.read_at_multi(
                [
                    (
                        base + ((ci * grid // k) * grid + mpi.rank) * _POINT_BYTES,
                        c.row_bytes,
                        c.rows,
                        line_bytes,
                    )
                    for ci, c in enumerate(cells)
                ]
            )
        dt = mpi.now - t0
        io_time[mpi.rank] += dt
        read_time[mpi.rank] += dt
        result.bytes_read += sum(c.cell_bytes for c in cells)
        result.n_reads += 1 if config.subtype == "full" else sum(c.rows for c in cells)

    def solver_step(mpi):
        """One time step's solve: calibrated busy-time + exchanges."""
        yield mpi.compute(
            seconds=flops_per_step_rank
            / (mpi.node.spec.core_gflops * 1e9 * config.cpu_efficiency)
        )
        yield from exchange(mpi)

    def program(mpi):
        f = yield mpi.file_open(config.path, "w")
        result.n_opens += 1
        for step in range(clazz.steps):
            # the solver step is one repetitive non-I/O region: the
            # replay accelerator may extrapolate it once verified
            yield from mpi.replay_region(("step",), solver_step(mpi))
            if (step + 1) % _WRITE_INTERVAL == 0:
                yield from write_step(mpi, f, step // _WRITE_INTERVAL)
        yield mpi.barrier()
        if config.verify_read:
            for io_step in range(clazz.io_steps):
                yield from read_step(mpi, f, io_step)
        yield f.close()
        return None

    t_start = env.now
    env.run(world.run_program(program, name=f"btio-{config.subtype}"))
    result.execution_time = env.now - t_start
    n = config.nprocs
    result.io_time = sum(io_time) / n
    result.write_time = sum(write_time) / n
    result.read_time = sum(read_time) / n
    result.tracer = tracer
    result.replay = world.replay.stats
    return result
