"""Simulated MPI: world, ranks, point-to-point and rendezvous machinery.

A *program* is a generator function ``prog(mpi)`` executed once per
rank as a DES process; ``mpi`` is that rank's :class:`RankContext`,
exposing a deliberately mpi4py-flavoured API (``send``/``recv``/
``barrier``/``bcast``/... and :meth:`RankContext.file_open` for
MPI-IO).  Messages move over the cluster's *communication* network;
file data moves over its *data* network (or the same one, when the
cluster is configured with a single shared fabric — one of the
paper's configurable factors).  A send or receive is a flat callback
state machine (:class:`~repro.simengine.FlatOp`) on the calendar, not a
generator process.

Collective calls synchronise through a per-communicator
:class:`Rendezvous`: SPMD programs reach collective call sites in the
same order, so each site gets a sequence number; the last rank to
arrive executes the cost model and releases everyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..simengine import Environment, Event, FlatOp, Store
from ..hardware.node import Cluster, Node

__all__ = ["MPIWorld", "RankContext", "Rendezvous"]

#: bytes of an eager-protocol envelope
_ENVELOPE = 64


@dataclass
class _Point:
    """One collective call site: arrival barrier + completion."""

    all_arrived: Event
    done: Event
    data: dict[int, Any] = field(default_factory=dict)
    arrivals: int = 0


class Rendezvous:
    """Sequence-numbered meeting points for collective operations."""

    def __init__(self, env: Environment, nprocs: int):
        self.env = env
        self.nprocs = nprocs
        self._points: dict[tuple[str, int], _Point] = {}
        self._counters: dict[tuple[str, int], int] = {}

    def arrive(self, kind: str, rank: int, data: Any = None) -> tuple[_Point, bool]:
        """Join the next ``kind`` call site for this rank.

        Returns ``(point, is_last)``; the last arriver must run the
        operation and trigger ``point.done``.
        """
        seq = self._counters.get((kind, rank), 0)
        self._counters[(kind, rank)] = seq + 1
        key = (kind, seq)
        point = self._points.get(key)
        if point is None:
            point = _Point(all_arrived=self.env.event(), done=self.env.event())
            self._points[key] = point
        point.data[rank] = data
        point.arrivals += 1
        last = point.arrivals == self.nprocs
        if last:
            point.all_arrived.succeed(point.data)
            del self._points[key]
        return point, last

    def count(self, kind: str, rank: int) -> int:
        """How many ``kind`` call sites ``rank`` has reached so far."""
        return self._counters.get((kind, rank), 0)


class _Send(FlatOp):
    """One eager send: carry the message and its envelope over the
    communication network, then post it in the receiver's mailbox."""

    __slots__ = ("ctx", "peer", "nbytes", "tag", "payload")

    def __init__(
        self, ctx: "RankContext", peer: "RankContext", nbytes: int, tag: int, payload: Any
    ):
        self.ctx = ctx
        self.peer = peer
        self.nbytes = nbytes
        self.tag = tag
        self.payload = payload
        super().__init__(ctx.env)

    def _start(self, _v: None) -> None:
        ctx = self.ctx
        self._await(
            ctx.world.cluster.comm_network.transfer(
                ctx.node.name, self.peer.node.name, self.nbytes + _ENVELOPE
            ),
            self._delivered,
        )

    def _delivered(self, _v) -> None:
        box = self.peer._mailbox(self.ctx.rank, self.tag)
        self._await(box.put((self.nbytes, self.payload)), self._posted)

    def _posted(self, _v) -> None:
        self._finish(self.nbytes)


class _Recv(FlatOp):
    """One receive: take the next message from a mailbox; the result
    is its payload."""

    __slots__ = ("box",)

    def __init__(self, env: Environment, box: Store):
        self.box = box
        super().__init__(env)

    def _start(self, _v: None) -> None:
        self._await(self.box.get(), self._got)

    def _got(self, message) -> None:
        self._finish(message[1])


class RankContext:
    """The MPI API handed to a rank's program generator."""

    def __init__(self, world: "MPIWorld", rank: int, node: Node):
        self.world = world
        self.rank = rank
        self.node = node
        self.env = world.env
        self._mailboxes: dict[tuple[int, int], Store] = {}
        #: barriers issued by this rank's program so far — the phase
        #: epoch of the replay accelerator.  MADbench2's S-writes and
        #: W-writes share a naive signature but sit in different
        #: barrier-delimited program phases; the epoch keeps them apart.
        self.phase_epoch = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.nprocs

    @property
    def now(self) -> float:
        return self.env.now

    def _mailbox(self, src: int, tag: int) -> Store:
        key = (src, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.env, name=f"r{self.rank}.mbox{key}")
            self._mailboxes[key] = box
        return box

    # -- compute -----------------------------------------------------------
    def compute(self, seconds: float = 0.0, flops: float = 0.0) -> Event:
        """Busy-work: a plain timeout of ``seconds`` plus ``flops`` at one
        core's rate.  Ranks sharing a node do not contend for its cores."""
        t = seconds + (self.node.compute_time(flops) if flops else 0.0)
        return self.env.timeout(t)

    # -- phase replay -------------------------------------------------------
    def replay_region(self, key: tuple, body) -> Generator:
        """Run ``body`` (a generator) as a repetitive *region* of the
        program — e.g. one time step's boundary exchanges — letting the
        phase-replay accelerator extrapolate it once verified steady.

        Regions follow the same warm-up/verify/extrapolate state
        machine as I/O phases, with a group spanning all ranks: the
        per-round frozen group verdict guarantees either *every* rank
        simulates a given occurrence or every rank skips it, which is
        what makes this safe for rendezvous bodies (a skipping rank
        never sends, so a simulating peer would deadlock on the
        matching receive).  Requirements: the region must be SPMD —
        every rank executes it the same number of times with the same
        ``key`` — and must not contain I/O (I/O phases have their own
        keys and contend through a different scope).

        Use as ``yield from mpi.replay_region(("exchange",), body)``.
        """
        rep = self.world.replay
        epoch = self.phase_epoch
        k = ("region", self.rank, epoch) + tuple(key)
        grp = ("region", epoch) + tuple(key)
        # message traffic contends on the communication fabric; when
        # the cluster shares one fabric for messages and file data the
        # regions join the I/O phases' scope
        kind = "shared" if self.world.cluster.shared_network else "comm"
        scope = (kind, epoch)
        steady = rep.steady(k, grp, scope)
        if steady is not None:
            if steady > 0.0:
                yield self.env.timeout(steady)
            return
        t0 = self.env.now
        yield from body
        rep.observe(k, self.env.now - t0, grp, scope)

    # -- point-to-point -------------------------------------------------------
    def isend(self, dst: int, nbytes: int, tag: int = 0, payload: Any = None) -> Event:
        """Non-blocking send; the event fires when the message is delivered."""
        if not 0 <= dst < self.size:
            raise ValueError(f"bad destination rank dst={dst}")
        if nbytes < 0:
            raise ValueError(f"bad message size nbytes={nbytes}")
        return _Send(self, self.world.ranks[dst], nbytes, tag, payload).result

    def send(self, dst: int, nbytes: int, tag: int = 0, payload: Any = None) -> Event:
        """Blocking send (same completion semantics under eager protocol)."""
        return self.isend(dst, nbytes, tag, payload)

    def recv(self, src: int, tag: int = 0) -> Event:
        """Receive; event value is the message payload."""
        if not 0 <= src < self.size:
            raise ValueError(f"bad source rank src={src}")
        return _Recv(self.env, self._mailbox(src, tag)).result

    # -- collectives (cost models live in collectives.py) ---------------------
    def barrier(self) -> Event:
        from .collectives import barrier

        self.phase_epoch += 1
        return self._collective("barrier", None, barrier)

    def bcast(self, root: int, nbytes: int, payload: Any = None) -> Event:
        from .collectives import bcast

        data = payload if self.rank == root else None
        return self._collective("bcast", (root, nbytes, data), bcast)

    def reduce(self, root: int, nbytes: int) -> Event:
        from .collectives import reduce as _reduce

        return self._collective("reduce", (root, nbytes), _reduce)

    def allreduce(self, nbytes: int) -> Event:
        from .collectives import allreduce

        return self._collective("allreduce", nbytes, allreduce)

    def gather(self, root: int, nbytes: int) -> Event:
        from .collectives import gather

        return self._collective("gather", (root, nbytes), gather)

    def allgather(self, nbytes: int) -> Event:
        from .collectives import allgather

        return self._collective("allgather", nbytes, allgather)

    def alltoall(self, nbytes_per_pair: int) -> Event:
        from .collectives import alltoall

        return self._collective("alltoall", nbytes_per_pair, alltoall)

    def _collective(self, kind: str, data: Any, algorithm) -> Event:
        def _op():
            point, last = self.world.rendezvous.arrive(kind, self.rank, data)
            if last:
                args = yield point.all_arrived
                result = yield self.env.process(
                    algorithm(self.world, args), name=f"coll.{kind}"
                )
                point.done.succeed(result)
                return result
            result = yield point.done
            return result

        return self.env.process(_op(), name=f"r{self.rank}.{kind}")

    # -- MPI-IO -----------------------------------------------------------------
    def file_open(self, path: str, mode: str = "r") -> Event:
        """Collective file open; event value is this rank's
        :class:`~repro.mpi.io.MPIFile`."""
        from .io import open_collective

        return open_collective(self, path, mode)

    def file_open_self(self, path: str, mode: str = "r") -> Event:
        """COMM_SELF open: an independent, per-process file."""
        from .io import open_self

        return open_self(self, path, mode)

    # -- tracing hook -------------------------------------------------------------
    def trace(self, record) -> None:
        if self.world.tracer is not None:
            self.world.tracer.record(self.rank, record)


class MPIWorld:
    """``nprocs`` ranks placed over a cluster's compute nodes."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        nprocs: int,
        placement: str = "block",
        tracer=None,
        io_hints: Optional[dict[str, Any]] = None,
        replay_settings=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if cluster.comm_network is None:
            raise ValueError("cluster has no networks attached")
        from ..core.replay import PhaseReplayAccelerator
        from ..obs.metrics import IOLibStats

        self.env = env
        self.cluster = cluster
        self.nprocs = nprocs
        self.tracer = tracer
        if tracer is not None:
            # declare the world size so idle ranks (no I/O events)
            # still count in tracer.nranks / per-rank averages
            tracer.set_world_size(nprocs)
        self.io_hints = dict(io_hints or {})
        #: per-run phase-replay accelerator (one world = one app run)
        self.replay = PhaseReplayAccelerator(replay_settings)
        #: per-run MPI-IO level counters (the iolib metrics level)
        self.iostats = IOLibStats()
        nodes = cluster.compute_nodes()
        if not nodes:
            raise ValueError("cluster has no compute nodes")
        self.ranks: list[RankContext] = []
        for r in range(nprocs):
            if placement == "block":
                per = (nprocs + len(nodes) - 1) // len(nodes)
                node = nodes[min(r // per, len(nodes) - 1)]
            elif placement == "round_robin":
                node = nodes[r % len(nodes)]
            else:
                raise ValueError(f"unknown placement {placement!r}")
            self.ranks.append(RankContext(self, r, node))
        self.rendezvous = Rendezvous(env, nprocs)
        #: shared MPI-IO state (files by path)
        self.files: dict[str, Any] = {}

    def node_of(self, rank: int) -> Node:
        return self.ranks[rank].node

    def aggregator_ranks(self) -> list[int]:
        """Default ROMIO ``cb_nodes``: the lowest rank on each node."""
        seen: dict[str, int] = {}
        for r, ctx in enumerate(self.ranks):
            seen.setdefault(ctx.node.name, r)
        return sorted(seen.values())

    def run_program(
        self, program: Callable[[RankContext], Generator], name: str = "mpi"
    ) -> Event:
        """Launch ``program`` on every rank; fires when all ranks return.

        Value is the list of per-rank return values.
        """
        procs = [
            self.env.process(program(ctx), name=f"{name}.r{ctx.rank}")
            for ctx in self.ranks
        ]
        return self.env.all_of(procs)
