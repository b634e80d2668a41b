"""MPI-IO on top of the storage stack.

Implements the two access disciplines whose contrast drives the
paper's NAS BT-IO evaluation:

* **independent** I/O (``read_at``/``write_at``) — each rank drives
  its node's filesystem directly through the *direct* path (ROMIO on
  NFS disables client caching, so small strided independent requests
  pay a synchronous round trip each: the *simple* subtype);
* **collective** I/O (``read_at_all``/``write_at_all``) — two-phase
  collective buffering: ranks exchange data with a set of
  *aggregators* (by default the lowest rank on each node, ROMIO's
  ``cb_nodes``) over the communication network, and the aggregators
  move large contiguous file domains through the filesystem (the
  *full* subtype).

Opens come in the collective (``MPI_COMM_WORLD``) flavour and a
``COMM_SELF`` flavour used by unique-file-per-process workloads
(MADbench2 ``FILETYPE=UNIQUE``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simengine import Event, FlatOp
from ..storage.base import IORequest
from .sim import RankContext

__all__ = ["MPIFile", "open_collective", "open_self", "IOHints"]


@dataclass(frozen=True)
class IOHints:
    """ROMIO-style hints controlling collective buffering and sieving."""

    cb_nodes: Optional[int] = None  # None -> one aggregator per node
    cb_buffer_bytes: int = 16 * 1024 * 1024
    collective: bool = True  # romio_cb_write/read enabled
    ds_read: bool = False  # romio_ds_read: data sieving for sparse reads
    ds_buffer_bytes: int = 4 * 1024 * 1024

    @staticmethod
    def from_dict(d: dict) -> "IOHints":
        return IOHints(
            cb_nodes=d.get("cb_nodes"),
            cb_buffer_bytes=d.get("cb_buffer_bytes", 16 * 1024 * 1024),
            collective=d.get("collective", True),
            ds_read=d.get("ds_read", False),
            ds_buffer_bytes=d.get("ds_buffer_bytes", 4 * 1024 * 1024),
        )


class MPIFile:
    """A rank's handle on an MPI file."""

    def __init__(
        self,
        ctx: RankContext,
        path: str,
        inode,
        fs,
        hints: IOHints,
        self_comm: bool = False,
    ):
        self.ctx = ctx
        self.path = path
        self.inode = inode
        self.fs = fs
        self.hints = hints
        self.self_comm = self_comm
        self.env = ctx.env

    # ------------------------------------------------------------------
    # independent operations
    # ------------------------------------------------------------------
    def write_at(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._independent(IORequest("write", offset, nbytes, count, stride))

    def read_at(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._independent(IORequest("read", offset, nbytes, count, stride))

    def write_at_multi(self, parts) -> Event:
        """Issue a batch of independent writes as one operation.

        ``parts`` is an iterable of ``(offset, nbytes, count, stride)``
        tuples, executed in order.  Semantically identical to calling
        :meth:`write_at` per part, but the whole batch runs as one
        operation, and once the parts' phases are steady a run of
        consecutive extrapolated parts collapses into a single calendar
        entry — the per-part trace timestamps replay the sequential
        addition chain, so traces are unchanged.
        """
        return self._independent_multi(
            [IORequest("write", off, nb, count, stride) for off, nb, count, stride in parts]
        )

    def read_at_multi(self, parts) -> Event:
        """Batch counterpart of :meth:`read_at`; see :meth:`write_at_multi`."""
        return self._independent_multi(
            [IORequest("read", off, nb, count, stride) for off, nb, count, stride in parts]
        )

    def _phase_key(self, req: IORequest) -> tuple:
        """Replay key of an independent request: the PhaseDetector
        signature geometry plus rank, barrier epoch and the target
        filesystem's cache-regime token (offsets are excluded —
        successive occurrences append at moving offsets)."""
        return (
            self.ctx.rank,
            self.ctx.phase_epoch,
            self.path,
            req.op,
            req.nbytes,
            req.count,
            req.stride if req.stride is not None else 0,
            self.fs.state_token(self.inode, req),
        )

    def _phase_group(self, key: tuple) -> tuple:
        """Group tying this phase to its siblings on other ranks.

        The key minus rank and path: concurrent ranks running the same
        barrier-delimited pattern — whether against one shared file or
        per-rank unique files — extrapolate all-or-nothing, so no rank
        ever simulates an occurrence with a sibling's load missing.
        """
        return ("ind",) + key[1:2] + key[3:]

    def _phase_scope(self, epoch: int) -> tuple:
        """Consistency scope of this file's I/O phases.

        I/O phases of one barrier epoch contend through the storage
        stack and data network, so their groups extrapolate only when
        *all* of them are steady (MADbench2's W function interleaves
        reads and writes — extrapolating one while simulating the
        other strips its load from the simulation).  On a single
        shared fabric they additionally contend with message traffic
        and join the communication regions' scope.
        """
        kind = "shared" if self.ctx.world.cluster.shared_network else "io"
        return (kind, epoch)

    def _independent(self, req: IORequest) -> Event:
        return _FlatIndependentMulti(self, [req]).result

    def _independent_multi(self, reqs: list[IORequest]) -> Event:
        return _FlatIndependentMulti(self, reqs).result

    # ------------------------------------------------------------------
    # collective operations (two-phase I/O)
    # ------------------------------------------------------------------
    def write_at_all(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._collective(IORequest("write", offset, nbytes, count, stride))

    def read_at_all(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._collective(IORequest("read", offset, nbytes, count, stride))

    def _collective(self, req: IORequest) -> Event:
        # A COMM_SELF file's collectives are collective over exactly one
        # rank: two-phase buffering degenerates to an independent access
        # (rendezvousing on the world here would deadlock — per-rank
        # paths never gather all ranks at one call site).
        if not self.hints.collective or self.self_comm:
            return self._independent(req)

        def _op():
            t0 = self.env.now
            world = self.ctx.world
            point, last = world.rendezvous.arrive(
                f"cio:{self.path}:{req.op}", self.ctx.rank, (self.ctx.rank, req)
            )
            if last:
                # Only the last-arriving rank consults the accelerator,
                # so the extrapolate-or-simulate decision is made once
                # per call site and every rank sees the same completion.
                reqs = yield point.all_arrived
                reqmap = dict(reqs.values())
                replay = world.replay
                active = {r: q for r, q in reqmap.items() if q.total_bytes > 0}
                plan = _io_domains(world, self, req.op, active) if active else None
                if plan is not None:
                    san = self.env.sanitizer
                    if san is not None:
                        # overlapping requests collapse into a smaller
                        # union of file domains; account the gap once
                        # per collective call (this is the only rank
                        # that computes the plan)
                        covered = sum(d.total_bytes for _afs, d in plan[1])
                        san.note_gap(req.op, plan[2] - covered)
                key = _collective_key(self.path, req.op, self.ctx.phase_epoch, reqmap)
                if plan is not None:
                    # aggregator cache regimes: same rationale as the
                    # independent key's state token
                    key += (tuple(
                        afs.state_token(self.inode, dreq) for afs, dreq in plan[1]
                    ),)
                # one logical phase per call site (the collective is
                # already globally synchronized), but grouped so the
                # scope rule couples it to concurrent phases
                group = ("cg",) + key
                scope = self._phase_scope(self.ctx.phase_epoch)
                steady = replay.steady(key, group, scope)
                if steady is not None:
                    result = _absorb_two_phase(world, self, active, plan)
                    if steady > 0.0:
                        yield self.env.timeout(steady)
                else:
                    t1 = self.env.now
                    result = yield self.env.process(
                        _two_phase(world, self, req.op, active, plan),
                        name=f"twophase.{req.op}",
                    )
                    replay.observe(key, self.env.now - t1, group, scope)
                point.done.succeed(result)
            else:
                yield point.done
            self._trace(req, t0, collective=True)
            return req.total_bytes

        return self.env.process(_op(), name=f"mpiio.r{self.ctx.rank}.{req.op}_all")

    # ------------------------------------------------------------------
    def sync(self) -> Event:
        return self.fs.fsync(self.inode)

    def close(self) -> Event:
        """Collective close: flush once, then everyone drops the handle."""
        if self.self_comm:
            return self.close_self()

        def _op():
            world = self.ctx.world
            point, last = world.rendezvous.arrive(f"fclose:{self.path}", self.ctx.rank, None)
            if last:
                yield point.all_arrived
                yield self.fs.fsync(self.inode)
                yield self.fs.close(self.inode)
                point.done.succeed(None)
            else:
                yield point.done
            return None

        return self.env.process(_op(), name=f"mpiio.r{self.ctx.rank}.close")

    def close_self(self) -> Event:
        """Independent close (COMM_SELF files)."""

        def _op():
            yield self.fs.fsync(self.inode)
            yield self.fs.close(self.inode)
            return None

        return self.env.process(_op(), name=f"mpiio.r{self.ctx.rank}.close")

    @property
    def size(self) -> int:
        return self.inode.size

    def _trace(
        self, req: IORequest, t0: float, collective: bool, t_end: Optional[float] = None
    ) -> None:
        end = self.env.now if t_end is None else t_end
        self.ctx.world.iostats.record(
            req.op, req.nbytes, req.count, collective, end - t0
        )
        san = self.env.sanitizer
        if san is not None:
            san.account_iolib(req.op, req.total_bytes)
        if self.ctx.world.tracer is not None:
            from ..tracing.events import IOEvent

            self.ctx.trace(
                IOEvent(
                    rank=self.ctx.rank,
                    op=req.op,
                    offset=req.offset,
                    nbytes=req.nbytes,
                    count=req.count,
                    stride=req.stride,
                    t_start=t0,
                    t_end=end,
                    path=self.path,
                    collective=collective,
                )
            )


class _FlatIndependentMulti(FlatOp):
    """A batch of independent requests (:meth:`MPIFile.write_at_multi`;
    a single :meth:`~MPIFile.write_at` is a batch of one), served in
    order.  A verified-steady request is charged its known duration
    (state applied through ``absorb``); any other is simulated through
    the direct filesystem path, or by data sieving (dense covering
    reads plus an in-memory extract) for sparse reads under
    ``ds_read``, and observed by the phase replay."""

    __slots__ = (
        "f", "reqs", "i", "total", "t0", "_cur", "_key", "_group", "_scope", "_subs", "_si", "_plan"
    )

    def __init__(self, f, reqs):
        self.f = f
        self.reqs = reqs
        super().__init__(f.env)

    def _start(self, _v):
        self.total = 0
        self.i = 0
        self._loop()

    def _loop(self, _v=None):
        f = self.f
        env = self.env
        reqs = self.reqs
        replay = f.ctx.world.replay
        n = len(reqs)
        while self.i < n:
            req = reqs[self.i]
            key = f._phase_key(req)
            group = f._phase_group(key)
            scope = f._phase_scope(key[1])
            steady = replay.steady(key, group, scope)
            if steady is None:
                self._cur = req
                self._key = key
                self._group = group
                self._scope = scope
                self.t0 = env.now
                self._simulate(req)
                return
            # Coalesce the run of consecutive steady parts into one
            # calendar entry; per-part trace times replay the
            # sequential timeout chain exactly.
            run = [(req, steady)]
            self.i += 1
            while self.i < n:
                key = f._phase_key(reqs[self.i])
                s = replay.steady(key, f._phase_group(key), f._phase_scope(key[1]))
                if s is None:
                    break
                run.append((reqs[self.i], s))
                self.i += 1
            end = env.now
            for r, s in run:
                f.fs.absorb(f.inode, r)
                start = end
                end = end + s
                f._trace(r, start, collective=False, t_end=end)
                self.total += r.total_bytes
            if end > env.now:
                self._wake(end, self._loop)
                return
        self._finish(self.total)

    def _simulate(self, req):
        f = self.f
        if req.op == "read" and f.hints.ds_read:
            from ..iolib.sieving import plan_sieve, should_sieve

            if should_sieve(req, f.hints.ds_buffer_bytes):
                # data sieving: dense covering reads + in-memory extract
                plan = plan_sieve(req, f.hints.ds_buffer_bytes)
                san = self.env.sanitizer
                if san is not None:
                    san.note_overfetch(
                        req.op,
                        sum(s.total_bytes for s in plan.requests) - req.total_bytes,
                    )
                self._plan = plan
                self._subs = plan.requests
                self._si = 0
                self._sieve_next()
                return
        self._await(f.fs.submit_direct(f.inode, req), self._one_done)

    def _sieve_next(self, _v=None):
        f = self.f
        if self._si < len(self._subs):
            sub = self._subs[self._si]
            self._si += 1
            self._await(f.fs.submit_direct(f.inode, sub), self._sieve_next)
            return
        self._sleep(f.ctx.node.memcpy_time(self._plan.fetched_bytes), self._one_done)

    def _one_done(self, _v=None):
        f = self.f
        req = self._cur
        # observe under the pre-execution key: that is the state
        # steady() will be consulted with next time
        f.ctx.world.replay.observe(self._key, self.env.now - self.t0, self._group, self._scope)
        f._trace(req, self.t0, collective=False)
        self.total += req.total_bytes
        self.i += 1
        self._loop()


def _collective_key(path: str, op: str, epoch: int, reqs: dict[int, IORequest]) -> tuple:
    """Replay key of a collective call site.

    The per-rank request geometry is offset-normalised against the
    call's lowest offset, so successive appended I/O steps (BT-IO's
    per-step ``base``) share a key while any change of shape, size or
    participating ranks produces a new phase.
    """
    geoms = sorted(
        (r, q.offset, q.nbytes, q.count, q.stride if q.stride is not None else 0)
        for r, q in reqs.items()
    )
    base = min((g[1] for g in geoms), default=0)
    return (
        "coll",
        path,
        op,
        epoch,
        tuple((r, off - base, nb, c, s) for r, off, nb, c, s in geoms),
    )


def _io_domains(world, mfile: MPIFile, op: str, active: dict[int, IORequest]):
    """The aggregator file domains of one two-phase call.

    Shared between the simulated I/O phase and the phase-replay
    absorb path so both mutate identical filesystem state.  Returns
    ``(aggs, [(fs, domain_request), ...], total_bytes)``.
    """
    from ..iolib.aggregation import select_aggregators

    aggs = select_aggregators(
        [world.node_of(r).name for r in range(world.nprocs)], mfile.hints.cb_nodes
    )
    nagg = len(aggs)
    lo = min(q.offset for q in active.values())
    hi = max(q.offset + q.span for q in active.values())
    span = hi - lo
    total = sum(q.total_bytes for q in active.values())
    # File domains cover only the bytes actually requested (ROMIO
    # computes the union of the requests): a segmented pattern with
    # holes does not write the holes.  Domains are spread over the span
    # so aggregators hit disjoint file regions.
    covered = min(total, span)
    domain_stride = span // nagg
    domain = covered // nagg
    domains = []
    for i, a in enumerate(aggs):
        off = lo + i * domain_stride
        length = domain if i < nagg - 1 else covered - domain * (nagg - 1)
        if length <= 0:
            continue
        afs = world.ranks[a].node.vfs.resolve(mfile.path)
        domains.append((afs, IORequest(op, off, length)))
    return aggs, domains, total


def _absorb_two_phase(world, mfile: MPIFile, active: dict[int, IORequest], plan) -> int:
    """Apply a steady collective call's state side effects analytically:
    the aggregator domains land in (or refresh) the target filesystems
    exactly as the simulated I/O phase would, with no simulated time."""
    if not active or plan is None:
        return 0
    _aggs, domains, total = plan
    for afs, dreq in domains:
        afs.absorb(mfile.inode, dreq)
    return total


def _two_phase(world, mfile: MPIFile, op: str, active: dict[int, IORequest], plan=None):
    """ROMIO's generalised two-phase collective buffering.

    ``active`` maps rank -> its (non-empty) request.  Aggregators own
    contiguous file domains (``plan``, precomputed by the caller via
    :func:`_io_domains` or derived here); the exchange phase moves
    every rank's bytes to/from the owning aggregators over the
    communication network, the I/O phase moves whole domains through
    the filesystem.
    """
    env = world.env

    if not active:
        return 0
    aggs, domains, total = plan if plan is not None else _io_domains(world, mfile, op, active)
    nagg = len(aggs)

    # --- exchange phase -----------------------------------------------------
    # Interleaved decompositions spread each rank's bytes roughly evenly
    # over the aggregator domains.
    net = world.cluster.comm_network
    evs = []
    for r, q in active.items():
        share = q.total_bytes // nagg
        for a in aggs:
            if world.node_of(r) is world.node_of(a):
                continue  # node-local exchange is a memcpy, charged below
            if (op == "write") and share:
                evs.append(net.transfer(world.node_of(r).name, world.node_of(a).name, share))
    if op == "write" and evs:
        yield env.all_of(evs)

    # collective buffer packing at the aggregators
    pack = world.node_of(aggs[0]).memcpy_time(total // nagg)
    yield env.timeout(pack)

    # --- I/O phase ------------------------------------------------------------
    io_evs = [afs.submit_direct(mfile.inode, dreq) for afs, dreq in domains]
    if io_evs:
        yield env.all_of(io_evs)

    # --- read scatter ------------------------------------------------------------
    if op == "read":
        evs = []
        for r, q in active.items():
            share = q.total_bytes // nagg
            for a in aggs:
                if world.node_of(r) is world.node_of(a):
                    continue
                if share:
                    evs.append(
                        net.transfer(world.node_of(a).name, world.node_of(r).name, share)
                    )
        if evs:
            yield env.all_of(evs)
    return total


def open_collective(ctx: RankContext, path: str, mode: str = "r") -> Event:
    """MPI_File_open on COMM_WORLD."""

    def _op():
        world = ctx.world
        hints = IOHints.from_dict(world.io_hints)
        point, last = world.rendezvous.arrive(f"fopen:{path}", ctx.rank, mode)
        if last:
            yield point.all_arrived
            # one rank performs the create/truncate
            fs0 = world.ranks[0].node.vfs.resolve(path)
            if "w" in mode or not fs0.exists(path):
                inode = yield fs0.create(path)
            else:
                inode = yield fs0.open(path)
            point.done.succeed(inode)
        else:
            inode = yield point.done
        fs = ctx.node.vfs.resolve(path)
        if not fs.exists(path):
            # distinct per-node local filesystems: materialise the file
            inode = yield fs.create(path)
        return MPIFile(ctx, path, inode, fs, hints)

    return ctx.env.process(_op(), name=f"mpiio.r{ctx.rank}.open")


def open_self(ctx: RankContext, path: str, mode: str = "r") -> Event:
    """MPI_File_open on COMM_SELF (unique file per process)."""

    def _op():
        hints = IOHints.from_dict(ctx.world.io_hints)
        fs = ctx.node.vfs.resolve(path)
        if "w" in mode or not fs.exists(path):
            inode = yield fs.create(path)
        else:
            inode = yield fs.open(path)
        return MPIFile(ctx, path, inode, fs, hints, self_comm=True)

    return ctx.env.process(_op(), name=f"mpiio.r{ctx.rank}.open_self")
