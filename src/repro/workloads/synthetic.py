"""Synthetic MPI-IO workload generator.

A small declarative language for building test applications: a
:class:`SyntheticSpec` is a list of phases, each phase a repeated I/O
pattern with optional compute between repetitions.  Used by tests,
examples and ablation benchmarks to exercise arbitrary corners of the
I/O path without hand-writing a program per case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clusters.builder import System
from ..tracing import IOTracer

__all__ = ["SyntheticPhase", "SyntheticSpec", "run_synthetic", "SyntheticResult"]


@dataclass(frozen=True)
class SyntheticPhase:
    """One repeated access pattern."""

    op: str  # "read" | "write"
    nbytes: int
    count: int = 1  # operations per repetition (bulk geometry)
    stride: Optional[int] = None
    repetitions: int = 1
    collective: bool = False
    compute_s: float = 0.0  # busy time before each repetition
    offset_step: Optional[int] = None  # file offset advance per repetition

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"bad op {self.op!r}")
        if self.nbytes <= 0 or self.count < 1 or self.repetitions < 1:
            raise ValueError("invalid phase geometry")


@dataclass(frozen=True)
class SyntheticSpec:
    """A whole application: phases executed in order by every rank."""

    phases: tuple[SyntheticPhase, ...]
    nprocs: int = 4
    path: str = "/nfs/synthetic.dat"
    per_process_files: bool = False
    rank_disjoint: bool = True  # ranks access disjoint file regions

    def __post_init__(self):
        if not self.phases:
            raise ValueError("need at least one phase")


@dataclass
class SyntheticResult:
    spec: SyntheticSpec
    execution_time: float
    io_time: float
    tracer: IOTracer

    @property
    def io_fraction(self) -> float:
        return self.io_time / self.execution_time if self.execution_time > 0 else 0.0


def run_synthetic(system: System, spec: SyntheticSpec, tracer: IOTracer | None = None) -> SyntheticResult:
    """Execute the synthetic application; returns timing + trace."""
    env = system.env
    tracer = tracer if tracer is not None else IOTracer()
    world = system.world(spec.nprocs, tracer=tracer)
    io_time = [0.0] * spec.nprocs

    def program(mpi):
        if spec.per_process_files:
            f = yield mpi.file_open_self(f"{spec.path}.{mpi.rank}", "w")
        else:
            f = yield mpi.file_open(spec.path, "w")
        for phase in spec.phases:
            span = phase.count * (phase.stride or phase.nbytes)
            rank_base = mpi.rank * span if spec.rank_disjoint and not spec.per_process_files else 0
            step = phase.offset_step if phase.offset_step is not None else span * (
                mpi.size if spec.rank_disjoint and not spec.per_process_files else 1
            )
            for rep in range(phase.repetitions):
                if phase.compute_s:
                    yield mpi.compute(seconds=phase.compute_s)
                offset = rank_base + rep * step
                t0 = mpi.now
                if phase.collective:
                    if phase.op == "write":
                        yield f.write_at_all(offset, phase.nbytes, phase.count, phase.stride)
                    else:
                        yield f.read_at_all(offset, phase.nbytes, phase.count, phase.stride)
                else:
                    if phase.op == "write":
                        yield f.write_at(offset, phase.nbytes, phase.count, phase.stride)
                    else:
                        yield f.read_at(offset, phase.nbytes, phase.count, phase.stride)
                io_time[mpi.rank] += mpi.now - t0
        if spec.per_process_files:
            yield f.close_self()
        else:
            yield f.close()
        return None

    t0 = env.now
    env.run(world.run_program(program, name="synthetic"))
    return SyntheticResult(
        spec=spec,
        execution_time=env.now - t0,
        io_time=sum(io_time) / spec.nprocs,
        tracer=tracer,
    )
