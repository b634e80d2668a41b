"""Simulated MPI: world, ranks, point-to-point and rendezvous machinery.

A *program* is a generator function ``prog(mpi)`` executed once per
rank as a DES process; ``mpi`` is that rank's :class:`RankContext`,
exposing a deliberately mpi4py-flavoured API (``send``/``recv``/
``barrier`` and :meth:`RankContext.file_open` for MPI-IO).  Messages
move over the cluster's *communication* network; file data moves over
its *data* network (or the same one, when the cluster is configured
with a single shared fabric — one of the paper's configurable
factors).  Every MPI call is a flat callback state machine
(:class:`~repro.simengine.FlatOp`) on the calendar, not a generator
process.

Collective calls synchronise through a per-communicator
:class:`Rendezvous`: SPMD programs reach collective call sites in the
same order, so each site gets a sequence number.  Each rank's part in
a call site is one :class:`_Collective` step: the last rank to arrive
runs the call's shared step (the barrier's message rounds, a two-phase
collective access, the create of a collective open or the flush of a
collective close) and releases everyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2
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


class _Collective(FlatOp):
    """One rank's part in a collective call site.

    The rank arrives at the site.  A rank that is not last waits on
    ``point.done``; the last rank waits on ``point.all_arrived``, runs
    :meth:`_last` — the call's shared step, which ends in
    :meth:`_release` — and so succeeds ``done``.  Every rank then runs
    its own :meth:`_tail`, which by default finishes with ``None``.
    """

    __slots__ = ("ctx", "kind", "data", "_point")

    def __init__(self, ctx: "RankContext", kind: str, data: Any = None):
        self.ctx = ctx
        self.kind = kind
        self.data = data
        super().__init__(ctx.env)

    def _start(self, _v: None) -> None:
        point, last = self.ctx.world.rendezvous.arrive(self.kind, self.ctx.rank, self.data)
        if last:
            self._point = point
            self._await(point.all_arrived, self._last)
        else:
            self._await(point.done, self._tail)

    def _last(self, data_by_rank: dict[int, Any]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _release(self, value: Any = None) -> None:
        self._point.done.succeed(value)
        self._tail(value)

    def _tail(self, _value: Any) -> None:
        self._finish(None)


class _BarrierCall(_Collective):
    """``MPI_Barrier``: the last rank runs the dissemination rounds."""

    __slots__ = ()

    def _last(self, _data: dict) -> None:
        self._await(_Dissemination(self.ctx.world).result, self._release)


class _Dissemination(FlatOp):
    """Dissemination barrier: ⌈log₂p⌉ rounds; in round ``k`` every rank
    ``r`` sends an envelope-sized message to rank ``r + 2^k`` (mod p)
    over the communication network, so the rounds contend with
    everything else on that fabric."""

    __slots__ = ("world", "k", "rounds")

    def __init__(self, world: "MPIWorld"):
        self.world = world
        self.k = 0
        self.rounds = max(1, ceil(log2(max(world.nprocs, 2))))
        super().__init__(world.env)

    def _round(self, _v: None = None) -> None:
        k = self.k
        if k == self.rounds:
            self._finish(None)
            return
        self.k = k + 1
        world = self.world
        p = world.nprocs
        net = world.cluster.comm_network
        self._await(
            world.env.all_of([
                net.transfer(
                    world.node_of(r).name, world.node_of((r + (1 << k)) % p).name, _ENVELOPE
                )
                for r in range(p)
            ]),
            self._round,
        )

    _start = _round


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
    def replay_region(self, key: tuple, body) -> Generator:  # simlint: ignore[generator-serve]
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
        # message traffic contends on the communication fabric
        scope = self.world.phase_scope("comm", epoch)
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

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> Event:
        """``MPI_Barrier``; also opens the next phase epoch."""
        self.phase_epoch += 1
        return _BarrierCall(self, "barrier").result

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
        phase_fastpath: bool = True,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if cluster.comm_network is None:
            raise ValueError("cluster has no networks attached")
        from ..core.replay import PhaseReplayAccelerator
        from ..obs.metrics import IOLibStats
        from .io import IOHints

        #: MPI-IO hints of every file opened in this world
        self.hints = IOHints.from_dict(io_hints or {})
        self.env = env
        self.cluster = cluster
        self.nprocs = nprocs
        self.tracer = tracer
        if tracer is not None:
            # declare the world size so idle ranks (no I/O events)
            # still count in tracer.nranks / per-rank averages
            tracer.set_world_size(nprocs)
        #: per-run phase-replay accelerator (one world = one app run)
        self.replay = PhaseReplayAccelerator(phase_fastpath)
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

    def node_of(self, rank: int) -> Node:
        return self.ranks[rank].node

    def phase_scope(self, fabric: str, epoch: int) -> tuple:
        """Phase-replay scope of one barrier epoch's steps on ``fabric``
        (``"io"`` or ``"comm"``).  Steps of one scope contend on the
        same resources, so their groups extrapolate only when all of
        them are steady.  When the cluster carries messages and file
        data on one shared fabric, both kinds join one scope."""
        return ("shared" if self.cluster.shared_network else fabric, epoch)

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
