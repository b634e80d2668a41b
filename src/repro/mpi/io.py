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

from dataclasses import dataclass, fields
from typing import Optional

from ..simengine import Event, FlatOp
from ..storage.base import IORequest
from .sim import RankContext, _Collective

__all__ = ["MPIFile", "open_collective", "open_self", "IOHints"]


@dataclass(frozen=True)
class IOHints:
    """ROMIO-style hints controlling collective buffering and sieving.

    A hint of the wrong type or out of range raises one ``ValueError``
    naming the field.
    """

    cb_nodes: Optional[int] = None  # None -> one aggregator per node
    collective: bool = True  # romio_cb_write/read enabled
    ds_read: bool = False  # romio_ds_read: data sieving for sparse reads
    ds_buffer_bytes: int = 4 * 1024 * 1024

    def __post_init__(self):
        for name, kind in (
            ("cb_nodes", int), ("ds_buffer_bytes", int), ("collective", bool), ("ds_read", bool)
        ):
            value = getattr(self, name)
            if value is None and name == "cb_nodes":
                continue
            # exact types: a bool is no count, and 1 or "no" is no switch
            if type(value) is not kind:
                raise ValueError(f"MPI-IO hint {name} must be {kind.__name__}, got {value!r}")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError(f"MPI-IO hint cb_nodes must be >= 1, got {self.cb_nodes!r}")
        if self.ds_buffer_bytes <= 0:
            raise ValueError(
                f"MPI-IO hint ds_buffer_bytes must be > 0, got {self.ds_buffer_bytes!r}"
            )

    @staticmethod
    def from_dict(d: dict) -> "IOHints":
        """Hints from a ``{field: value}`` dict; an unknown key raises."""
        known = [f.name for f in fields(IOHints)]
        for key in d:
            if key not in known:
                raise ValueError(
                    f"unknown MPI-IO hint {key!r} (known: {', '.join(known)})"
                )
        return IOHints(**d)


class MPIFile:
    """A rank's handle on an MPI file."""

    def __init__(self, ctx: RankContext, path: str, inode, fs, self_comm: bool = False):
        self.ctx = ctx
        self.path = path
        self.inode = inode
        self.fs = fs
        self.hints = ctx.world.hints
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

    def _phase(self, req: IORequest) -> tuple:
        """Replay ``(key, group, scope)`` of an independent request.

        The key is the PhaseDetector signature geometry plus rank,
        barrier epoch and the target filesystem's cache-regime token
        (offsets are excluded — successive occurrences append at
        moving offsets).  The group is the key minus rank and path:
        concurrent ranks running the same barrier-delimited pattern —
        whether against one shared file or per-rank unique files —
        extrapolate all-or-nothing, so no rank ever simulates an
        occurrence with a sibling's load missing.  The scope couples
        the epoch's I/O phases, which contend through the storage
        stack and data network (MADbench2's W function interleaves
        reads and writes — extrapolating one while simulating the
        other strips its load from the simulation).
        """
        ctx = self.ctx
        epoch = ctx.phase_epoch
        sig = (
            req.op,
            req.nbytes,
            req.count,
            req.stride if req.stride is not None else 0,
            self.fs.state_token(self.inode, req),
        )
        key = (ctx.rank, epoch, self.path) + sig
        group = ("ind", epoch) + sig
        return key, group, ctx.world.phase_scope("io", epoch)

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
        return _CollectiveIO(self, req).result

    # ------------------------------------------------------------------
    def sync(self) -> Event:
        return self.fs.fsync(self.inode)

    def close(self) -> Event:
        """Collective close: flush once, then everyone drops the handle."""
        if self.self_comm:
            return self.close_self()
        return _CloseAll(self).result

    def close_self(self) -> Event:
        """Independent close (COMM_SELF files)."""
        return _CloseSelf(self).result

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
            key, group, scope = f._phase(req)
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
                s = replay.steady(*f._phase(reqs[self.i]))
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


class _CollectiveIO(_Collective):
    """One rank's part in a two-phase collective read or write.

    Only the last-arriving rank consults the phase-replay accelerator,
    so the extrapolate-or-simulate decision is made once per call site
    and every rank sees the same completion.  A steady call applies the
    aggregator domains' state through ``absorb`` and is charged its
    known duration; any other runs :class:`_TwoPhase` and is observed.
    """

    __slots__ = ("f", "req", "t0", "_key", "_group", "_scope", "_t1")

    def __init__(self, f: MPIFile, req: IORequest):
        self.f = f
        self.req = req
        self.t0 = f.env.now
        ctx = f.ctx
        super().__init__(ctx, f"cio:{f.path}:{req.op}", (ctx.rank, req))

    def _last(self, reqs: dict) -> None:
        f = self.f
        op = self.req.op
        world = f.ctx.world
        reqmap = dict(reqs.values())
        active = {r: q for r, q in reqmap.items() if q.total_bytes > 0}
        key = _collective_key(f.path, op, f.ctx.phase_epoch, reqmap)
        plan = None
        if active:
            plan = _io_domains(world, f, op, active)
            san = self.env.sanitizer
            if san is not None:
                # overlapping requests collapse into a smaller union of
                # file domains; account the gap once per collective call
                # (this is the only rank that computes the plan)
                covered = sum(d.total_bytes for _afs, d in plan[1])
                san.note_gap(op, plan[2] - covered)
            # aggregator cache regimes: same rationale as the
            # independent key's state token
            key += (tuple(afs.state_token(f.inode, dreq) for afs, dreq in plan[1]),)
        # one logical phase per call site (the collective is already
        # globally synchronized), but grouped so the scope rule couples
        # it to concurrent phases
        group = ("cg",) + key
        scope = world.phase_scope("io", f.ctx.phase_epoch)
        steady = world.replay.steady(key, group, scope)
        if steady is not None:
            if active:
                for afs, dreq in plan[1]:
                    afs.absorb(f.inode, dreq)
            if steady > 0.0:
                self._sleep(steady, self._release)
            else:
                self._release()
            return
        self._key = key
        self._group = group
        self._scope = scope
        self._t1 = self.env.now
        self._await(_TwoPhase(f, op, active, plan).result, self._observed)

    def _observed(self, _v) -> None:
        self.f.ctx.world.replay.observe(
            self._key, self.env.now - self._t1, self._group, self._scope
        )
        self._release()

    def _tail(self, _v) -> None:
        self.f._trace(self.req, self.t0, collective=True)
        self._finish(self.req.total_bytes)


class _TwoPhase(FlatOp):
    """ROMIO's generalised two-phase collective buffering.

    ``active`` maps rank -> its (non-empty) request; with none the call
    moves nothing.  Aggregators own contiguous file domains (``plan``,
    from :func:`_io_domains`); the exchange phase moves every rank's
    bytes to the owning aggregators over the communication network,
    the aggregators pack their collective buffers, the I/O phase moves
    whole domains through the filesystem, and a read scatters the
    bytes back.
    """

    __slots__ = ("world", "f", "op", "active", "plan")

    def __init__(self, f: MPIFile, op: str, active: dict[int, IORequest], plan):
        self.world = f.ctx.world
        self.f = f
        self.op = op
        self.active = active
        self.plan = plan
        super().__init__(f.env)

    def _start(self, _v) -> None:
        if not self.active:
            self._finish(0)
            return
        if self.op == "write":
            evs = self._exchange()
            if evs:
                self._await(self.env.all_of(evs), self._pack)
                return
        self._pack()

    def _exchange(self) -> list:
        """Interleaved decompositions spread each rank's bytes roughly
        evenly over the aggregator domains: one transfer per rank and
        aggregator on another node (a node-local exchange is a memcpy,
        charged by the packing), rank to aggregator for a write and
        back for a read."""
        world = self.world
        net = world.cluster.comm_network
        aggs = self.plan[0]
        evs = []
        for r, q in self.active.items():
            share = q.total_bytes // len(aggs)
            node = world.node_of(r)
            for a in aggs:
                agg = world.node_of(a)
                if agg is node or not share:
                    continue
                if self.op == "write":
                    evs.append(net.transfer(node.name, agg.name, share))
                else:
                    evs.append(net.transfer(agg.name, node.name, share))
        return evs

    def _pack(self, _v=None) -> None:
        aggs, _domains, total = self.plan
        self._sleep(self.world.node_of(aggs[0]).memcpy_time(total // len(aggs)), self._io)

    def _io(self, _v) -> None:
        f = self.f
        evs = [afs.submit_direct(f.inode, dreq) for afs, dreq in self.plan[1]]
        if evs:
            self._await(self.env.all_of(evs), self._scatter)
            return
        self._scatter()

    def _scatter(self, _v=None) -> None:
        if self.op == "read":
            evs = self._exchange()
            if evs:
                self._await(self.env.all_of(evs), self._done)
                return
        self._done()

    def _done(self, _v=None) -> None:
        self._finish(self.plan[2])


class _CloseAll(_Collective):
    """Collective close: the last rank flushes and closes the file once."""

    __slots__ = ("f",)

    def __init__(self, f: MPIFile):
        self.f = f
        super().__init__(f.ctx, f"fclose:{f.path}")

    def _last(self, _data) -> None:
        self._await(self.f.fs.fsync(self.f.inode), self._synced)

    def _synced(self, _v) -> None:
        self._await(self.f.fs.close(self.f.inode), self._closed)

    def _closed(self, _v) -> None:
        self._release()


class _CloseSelf(FlatOp):
    """Independent close of a COMM_SELF file: flush, then close."""

    __slots__ = ("f",)

    def __init__(self, f: MPIFile):
        self.f = f
        super().__init__(f.env)

    def _start(self, _v) -> None:
        self._await(self.f.fs.fsync(self.f.inode), self._synced)

    def _synced(self, _v) -> None:
        self._await(self.f.fs.close(self.f.inode), self._closed)

    def _closed(self, _v) -> None:
        self._finish(None)


def _create_or_open(fs, path: str, mode: str) -> Event:
    """Create (truncate) ``path`` for a writing mode or when it is
    missing; open it otherwise."""
    if "w" in mode or not fs.exists(path):
        return fs.create(path)
    return fs.open(path)


class _OpenAll(_Collective):
    """MPI_File_open on COMM_WORLD: the last rank creates or opens the
    file once; then each rank whose node resolves the path to a
    filesystem without it (distinct per-node local filesystems)
    materialises it there."""

    __slots__ = ("path", "mode", "fs")

    def __init__(self, ctx: RankContext, path: str, mode: str):
        self.path = path
        self.mode = mode
        super().__init__(ctx, f"fopen:{path}", mode)

    def _last(self, _modes) -> None:
        fs0 = self.ctx.world.ranks[0].node.vfs.resolve(self.path)
        self._await(_create_or_open(fs0, self.path, self.mode), self._release)

    def _tail(self, inode) -> None:
        fs = self.fs = self.ctx.node.vfs.resolve(self.path)
        if not fs.exists(self.path):
            self._await(fs.create(self.path), self._opened)
            return
        self._opened(inode)

    def _opened(self, inode) -> None:
        self._finish(MPIFile(self.ctx, self.path, inode, self.fs))


class _OpenSelf(FlatOp):
    """MPI_File_open on COMM_SELF (unique file per process)."""

    __slots__ = ("ctx", "path", "mode", "fs")

    def __init__(self, ctx: RankContext, path: str, mode: str):
        self.ctx = ctx
        self.path = path
        self.mode = mode
        super().__init__(ctx.env)

    def _start(self, _v) -> None:
        fs = self.fs = self.ctx.node.vfs.resolve(self.path)
        self._await(_create_or_open(fs, self.path, self.mode), self._opened)

    def _opened(self, inode) -> None:
        self._finish(MPIFile(self.ctx, self.path, inode, self.fs, self_comm=True))


def open_collective(ctx: RankContext, path: str, mode: str = "r") -> Event:
    """MPI_File_open on COMM_WORLD."""
    return _OpenAll(ctx, path, mode).result


def open_self(ctx: RankContext, path: str, mode: str = "r") -> Event:
    """MPI_File_open on COMM_SELF (unique file per process)."""
    return _OpenSelf(ctx, path, mode).result
