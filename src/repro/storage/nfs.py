"""Network filesystem (NFS-like) client/server model.

This is the "I/O node (global filesystem)" level of the paper's I/O
path: on both of the paper's clusters a front-end node exports a
RAID-backed ext4 filesystem over NFS to all compute nodes.

The model captures the pieces that determine the paper's NFS-level
numbers:

* every operation is an **RPC** over the data network — a request
  message, a server-side service (thread pool + the server's own
  :class:`~repro.storage.localfs.LocalFS`, with *its* page cache and
  RAID write-back behind it) and a reply message;
* bulk data moves in ``rsize``/``wsize`` chunks with a bounded slot
  table, so large transfers pipeline and approach wire speed while
  small strided operations pay per-RPC latency — the contrast behind
  BT-IO *full* vs *simple*;
* the **client-side page cache** absorbs dense writes (write-back,
  flushed on close/fsync with a COMMIT) and caches read data, so a
  re-read of a file smaller than client RAM never touches the wire
  (the paper's >100% used-percentage readings);
* many clients contend on the server's network link, thread pool,
  page cache and disks — the emergent many-to-one bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simengine import Environment, Event, FlatOp, Resource
from ..hardware.network import Network
from ..hardware.node import Node
from .base import IORequest, KiB
from .cache import CacheSpec, DirtyInsert, PageCache, ReadScan, WriteBack
from .localfs import Inode, LocalFS

__all__ = ["NFSSpec", "NFSServer", "NFSMount"]


@dataclass(frozen=True)
class NFSSpec:
    """Protocol and mount parameters."""

    rsize: int = 256 * KiB
    wsize: int = 256 * KiB
    rpc_header_bytes: int = 160
    #: concurrent in-flight RPCs per mount (Linux slot table)
    slot_table: int = 16
    server_threads: int = 8
    server_rpc_cpu_s: float = 18e-6  # per-RPC service CPU
    client_rpc_cpu_s: float = 9e-6
    getattr_s: float = 30e-6
    #: server-side VFS/ext4 service per small synchronous write — these
    #: serialise on the file's inode mutex (drives BT-IO "simple")
    server_small_op_s: float = 120e-6
    #: COMMIT flushes the server file durably (async exports skip it)
    commit_durable: bool = True
    #: fraction of client RAM used for the NFS data cache
    client_cache_fraction: float = 0.5
    #: RPC timeout before the first retransmission (mount option
    #: ``timeo``, here in seconds; Linux default 600 deciseconds over
    #: TCP — shortened to the UDP-era default so stalls are visible at
    #: simulated-run scale)
    timeo_s: float = 1.1
    #: retransmissions before a *major timeout* ("server not
    #: responding"); hard mounts then start over, so a stalled server
    #: slows clients down but never hangs them
    retrans: int = 3


@dataclass
class NFSStats:
    rpcs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    commits: int = 0
    #: RPC requests re-sent after a timeout (stalled/unresponsive server)
    retransmits: int = 0
    #: exhausted retrans cycles ("nfs: server ... not responding")
    major_timeouts: int = 0


class NFSServer:
    """The I/O node: exports one :class:`LocalFS` over a network."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        export: LocalFS,
        network: Network,
        spec: NFSSpec | None = None,
        name: str = "nfsd",
    ):
        self.env = env
        self.node = node
        self.export = export
        self.network = network
        self.spec = spec or NFSSpec()
        self.name = name
        self.threads = Resource(env, capacity=self.spec.server_threads, name=f"{name}.threads")
        self.stats = NFSStats()
        #: absolute simulated time until which the server is stalled
        #: (fault injection; see :meth:`stall`)
        self.stall_until = 0.0

    def stall(self, duration_s: float) -> None:
        """Wedge the server for ``duration_s`` seconds from now.

        Models an I/O-node brown-out (reboot, thrashing, hung export):
        granted nfsd threads sit on the wedged backend, the thread pool
        backs up, and clients retransmit until service resumes.
        """
        self.stall_until = max(self.stall_until, self.env.now + duration_s)

    @property
    def stalled(self) -> bool:
        return self.env.now < self.stall_until

    def service_op(self, work_event_factory, rpc_count: int = 1) -> Event:
        """Hold a server thread while performing backend work.

        ``work_event_factory`` is a zero-argument callable returning the
        backend event (e.g. a LocalFS submit) — created *after* the
        thread is granted, as real nfsd threads do.  The returned event
        fires with the backend event's value.
        """
        return _ServerService(self, work_event_factory, rpc_count).result


class NFSMount:
    """A client mount of an :class:`NFSServer` export on one node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        server: NFSServer,
        spec: NFSSpec | None = None,
        cache_spec: CacheSpec | None = None,
        name: str = "",
    ):
        self.env = env
        self.node = node
        self.server = server
        self.spec = spec or server.spec
        if cache_spec is None:
            cache_spec = CacheSpec(
                capacity_bytes=int(node.spec.ram_bytes * self.spec.client_cache_fraction)
            )
        self.cache = PageCache(cache_spec, name=f"{name or node.name}.nfscache")
        self.name = name or f"nfs@{node.name}"
        self.stats = NFSStats()
        self.network = server.network

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, path: str) -> Event:
        return self._meta_op(lambda: self.server.export.create(path))

    def open(self, path: str, create: bool = False) -> Event:
        if create and not self.server.export.exists(path):
            return self.create(path)
        return self._meta_op(lambda: self.server.export.open(path))

    def close(self, inode: Inode) -> Event:
        """Close-to-open consistency: flush dirty data, then COMMIT."""
        return _FlatCommit(self, inode, close=True).result

    def unlink(self, path: str) -> Event:
        def _inval():
            if self.server.export.exists(path):
                self.cache.drop_file(self.server.export.stat(path).fileid)
            return self.server.export.unlink(path)

        return self._meta_op(_inval)

    def _meta_op(self, backend_factory) -> Event:
        return _FlatMetaRpc(self, backend_factory).result

    def stat(self, path: str) -> Inode:
        return self.server.export.stat(path)

    def exists(self, path: str) -> bool:
        return self.server.export.exists(path)

    def fsync(self, inode: Inode) -> Event:
        return _FlatCommit(self, inode, close=False).result

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def submit(self, inode: Inode, req: IORequest) -> Event:
        return _NFSIO(self, inode, req).result

    def submit_direct(self, inode: Inode, req: IORequest) -> Event:
        """Uncached, synchronous access — how MPI-IO (ROMIO) drives NFS.

        ROMIO disables NFS client caching to get shared-file
        consistency, so every operation is a wire round trip:

        * dense requests still pipeline their ``rsize``/``wsize`` chunks
          inside one call (the data of a single large MPI write fills
          the slot table);
        * sparse requests serialise — each small strided operation pays
          a full RTT plus server service before the next can start,
          which is the behaviour behind the paper's NAS BT-IO *simple*
          results.
        """
        return _FlatDirect(self, inode, req).result

    def absorb(self, inode: Inode, req: IORequest) -> int:
        """Apply a direct request's state side effects analytically.

        The MPI-IO path is uncached on the client, so the state that
        matters lives server-side: delegate to the export's
        :meth:`~repro.storage.localfs.LocalFS.absorb` (file growth,
        allocation, server cache residency) and account the wire bytes.
        Advances no simulated time.
        """
        total = self.server.export.absorb(inode, req)
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(self, req.op, total)
        if req.op == "write":
            self.stats.bytes_sent += total
        else:
            self.stats.bytes_received += total
        return total

    def state_token(self, inode: Inode, req: IORequest) -> tuple:
        """Cache-regime fingerprint for the replay phase key.

        The MPI-IO direct path bypasses the client cache, so the state
        that governs a request's service time is the server export's
        — delegate to it (see
        :meth:`~repro.storage.localfs.LocalFS.state_token`).
        """
        return self.server.export.state_token(inode, req)

    # -- page-cache transport (see repro.storage.cache.CacheClient) ---------
    @property
    def _by_id(self) -> dict[int, Inode]:
        return self.server.export._by_id

    def _read_run(self, op, inode, off, nbytes, k) -> None:
        """READ-RPC a run from the server in rsize chunks."""
        rsize = self.spec.rsize

        def server_window(w, idx):
            sub = IORequest("read", off + idx * rsize, rsize, count=w)
            return self.server.export.submit(inode, sub)

        _FlatStream(self, op, max(nbytes // rsize, 1), 8, rsize, server_window, k)

    def _write_run(self, op, inode, off, nbytes, dirty, k) -> None:
        """WRITE-RPC a run to the server: wsize chunks when it is densely
        dirty, page-sized RPCs scattered over it when sparse."""
        if dirty / nbytes >= 0.5:
            size = self.spec.wsize
            nrpc = max(nbytes // size, 1)
            step, stride = size, None
        else:
            size = 4 * KiB
            nrpc = max(dirty // size, 1)
            step = stride = max(nbytes // nrpc, size)

        def server_window(w, idx):
            sub = IORequest("write", off + idx * step, size, count=w, stride=stride)
            return self.server.export.submit(inode, sub)

        _FlatStream(self, op, nrpc, size, 8, server_window, k)

    def _throttle(self, op, k) -> None:
        """Push the oldest dirty segments, up to a quarter of the cache
        (at least 8), before the writer goes on."""
        batch = self.cache.dirty_segments(limit=max(self.cache.spec.nsegments // 4, 8))
        WriteBack(self, op, batch, k)


# ----------------------------------------------------------------------
# service paths: flat state machines on the kernel calendar
# ----------------------------------------------------------------------
class _ServerService(FlatOp):
    """:meth:`NFSServer.service_op`: a granted thread sits out a stall,
    pays the per-RPC CPU, then runs the backend work."""

    __slots__ = ("srv", "factory", "rpc_count", "_req")

    def __init__(self, srv, factory, rpc_count):
        self.srv = srv
        self.factory = factory
        self.rpc_count = rpc_count
        self._req = None
        super().__init__(srv.env)

    def _start(self, _v):
        self._req = self.srv.threads.request(self._thread)

    def _thread(self, _v):
        env = self.env
        srv = self.srv
        if env._now < srv.stall_until:
            self._wake(srv.stall_until, self._unstalled)
        else:
            self._unstalled(None)

    def _unstalled(self, _v):
        self._sleep(self.srv.spec.server_rpc_cpu_s * self.rpc_count, self._cpu_done)

    def _cpu_done(self, _v):
        ev = self.factory()
        if ev is not None:
            self._await(ev, self._backend_done)
        else:
            self._backend_done(None)

    def _backend_done(self, value):
        self._release()
        self.srv.stats.rpcs += self.rpc_count
        self._finish(value)

    def _release(self):
        req = self._req
        if req is not None and req in self.srv.threads.users:
            self.srv.threads.release(req)

    def _cleanup(self):
        self._release()


class _FlatRetransmit:
    """Client-side RPC timeout handling against a stalled server.

    Runs after a request hit the wire while the server is wedged
    (``server.stall_until``): wait ``timeo``, re-send the request bytes,
    back off exponentially; after ``retrans`` unanswered re-sends log a
    *major timeout* and start over (hard-mount semantics — bounded
    slowdown, never a hang).  The loop never sleeps past the stall
    window, so the reply path resumes as soon as the server does.

    Jitter (±10% of each backoff step) comes from the seeded ``env.rng``
    streams installed by the fault injector; with no registry installed
    the backoff is exact — either way the run is deterministic for a
    fixed seed.  Like the other sub-steps below it has no calendar
    footprint of its own: it borrows the parent op's
    :meth:`FlatOp._sleep` and :meth:`FlatOp._await` and calls ``k()``
    when done.
    """

    __slots__ = ("m", "op", "payload", "count", "k", "delay", "attempt", "stall_end", "_wire")

    def __init__(self, m, op, payload_bytes, count, k):
        self.m = m
        self.op = op
        self.payload = payload_bytes
        self.count = count
        self.k = k
        self.stall_end = m.server.stall_until
        self.delay = m.spec.timeo_s
        self.attempt = 0
        self._tick()

    def _tick(self, _v=None):
        m = self.m
        if m.env._now + self.delay < self.stall_end:
            self.op._sleep(self.delay, self._resend)
            return
        self.k()

    def _resend(self, _v):
        m = self.m
        spec = m.spec
        self._wire = (self.payload + spec.rpc_header_bytes) * self.count
        self.op._await(
            m.network.transfer(
                m.node.name,
                m.server.node.name,
                self.payload + spec.rpc_header_bytes,
                count=self.count,
            ),
            self._sent,
        )

    def _sent(self, _v):
        m = self.m
        spec = m.spec
        m.stats.retransmits += self.count
        san = m.env.sanitizer
        if san is not None:
            san.note_retransmit(self._wire)
        self.attempt += 1
        if self.attempt >= spec.retrans:
            m.stats.major_timeouts += 1
            self.attempt = 0
            self.delay = spec.timeo_s
        else:
            self.delay *= 2.0
        rng = m.env.rng
        if rng is not None:
            jitter = rng.stream(f"nfs.retrans.{m.name}").random()
            self.delay *= 0.9 + 0.2 * float(jitter)
        self._tick()


class _FlatServerWindow(FlatOp):
    """One window of a stream, server side: thread-pool service of ``w``
    RPCs, then their replies over the network."""

    __slots__ = ("m", "w", "start_index", "reply_b", "factory")

    def __init__(self, m, w, start_index, reply_b, factory):
        self.m = m
        self.w = w
        self.start_index = start_index
        self.reply_b = reply_b
        self.factory = factory
        super().__init__(m.env)

    def _start(self, _v):
        m = self.m
        self._await(
            _ServerService(
                m.server, lambda: self.factory(self.w, self.start_index), self.w
            ).result,
            self._served,
        )

    def _served(self, _v):
        m = self.m
        self._await(
            m.network.transfer(
                m.server.node.name,
                m.node.name,
                self.reply_b + m.spec.rpc_header_bytes,
                count=self.w,
            ),
            self._replied,
        )

    def _replied(self, _v):
        self._finish(None)


class _FlatStream:
    """Pipelined RPC stream: windows of RPCs move over the network while
    the server digests earlier windows; continues when all replies are
    in."""

    __slots__ = ("m", "op", "count", "send_b", "reply_b", "factory", "k", "window", "sent", "done", "_w")

    def __init__(self, m, op, count, send_b, reply_b, factory, k):
        self.m = m
        self.op = op
        self.count = count
        self.send_b = send_b
        self.reply_b = reply_b
        self.factory = factory
        self.k = k
        self.window = max(m.spec.slot_table, count // 64)
        self.sent = 0
        self.done = []
        self._send_next()

    def _send_next(self, _v=None):
        m = self.m
        if self.sent < self.count:
            w = self._w = min(self.window, self.count - self.sent)
            self.op._await(
                m.network.transfer(
                    m.node.name,
                    m.server.node.name,
                    self.send_b + m.spec.rpc_header_bytes,
                    count=w,
                ),
                self._sent_window,
            )
            return
        if self.done:
            self.op._await(m.env.all_of(self.done), self._all_done)
            return
        m.stats.rpcs += self.count
        self.k()

    def _sent_window(self, _v):
        m = self.m
        if m.server.stalled:
            _FlatRetransmit(m, self.op, self.send_b, self._w, self._spawn_window)
            return
        self._spawn_window()

    def _spawn_window(self, _v=None):
        w = self._w
        self.done.append(
            _FlatServerWindow(self.m, w, self.sent, self.reply_b, self.factory).result
        )
        self.sent += w
        self._send_next()

    def _all_done(self, _v):
        self.m.stats.rpcs += self.count
        self.k()


class _FlatDirect(FlatOp):
    """:meth:`NFSMount.submit_direct`: dense requests pipeline their
    chunks in one stream; sparse requests pay strictly synchronous
    per-operation round trips, each stage charged once in bulk (with no
    pipelining the total is the sum of the per-stage times)."""

    __slots__ = ("m", "inode", "req", "total")

    def __init__(self, m, inode, req):
        self.m = m
        self.inode = inode
        self.req = req
        super().__init__(m.env)

    def _start(self, _v):
        m = self.m
        req = self.req
        total = self.total = req.total_bytes
        san = self.env.sanitizer
        if san is not None:
            san.account_fs(m, req.op, total)
        self._sleep(
            req.count * m.spec.client_rpc_cpu_s + m.node.memcpy_time(total),
            self._after_cpu,
        )

    def _after_cpu(self, _v):
        m = self.m
        req = self.req
        spec = m.spec
        total = self.total
        if req.op == "write":
            m.stats.bytes_sent += total
        else:
            m.stats.bytes_received += total

        if req.is_dense:
            chunk = spec.wsize if req.op == "write" else spec.rsize
            nrpc = max((total + chunk - 1) // chunk, 1)
            inode = self.inode

            def server_window(w, idx, _m=m, _req=req, _chunk=chunk, _inode=inode):
                sub = IORequest(_req.op, _req.offset + idx * _chunk, _chunk, count=w)
                return _m.server.export.submit(_inode, sub)

            if req.op == "write":
                _FlatStream(m, self, nrpc, chunk, 8, server_window, self._dense_done)
            else:
                _FlatStream(m, self, nrpc, 8, chunk, server_window, self._dense_done)
            return
        # Sparse: strictly synchronous per-operation round trips.
        self._sleep(req.count * 2 * m.network.spec.latency_s, self._after_latency)

    def _dense_done(self, _v=None):
        req = self.req
        if req.op == "write":
            inode = self.inode
            inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)

    def _after_latency(self, _v):
        m = self.m
        req = self.req
        send_payload = req.nbytes if req.op == "write" else 8
        self._await(
            m.network.transfer(
                m.node.name,
                m.server.node.name,
                send_payload + m.spec.rpc_header_bytes,
                count=req.count,
            ),
            self._after_send,
        )

    def _after_send(self, _v):
        m = self.m
        req = self.req
        if m.server.stalled:
            send_payload = req.nbytes if req.op == "write" else 8
            _FlatRetransmit(m, self, send_payload, req.count, self._service)
            return
        self._service()

    def _service(self, _v=None):
        m = self.m
        req = self.req
        inode = self.inode
        if req.op == "write":
            backend = lambda: m.server.export.submit_serialized_write(
                inode, req, m.spec.server_small_op_s
            )
        else:
            backend = lambda: m.server.export.submit(inode, req)
        self._await(m.server.service_op(backend, rpc_count=req.count), self._after_service)

    def _after_service(self, _v):
        m = self.m
        req = self.req
        reply_payload = 8 if req.op == "write" else req.nbytes
        self._await(
            m.network.transfer(
                m.server.node.name,
                m.node.name,
                reply_payload + m.spec.rpc_header_bytes,
                count=req.count,
            ),
            self._after_reply,
        )

    def _after_reply(self, _v):
        m = self.m
        req = self.req
        m.stats.rpcs += req.count
        if req.op == "write":
            inode = self.inode
            inode.size = max(inode.size, req.offset + req.span)
        self._finish(self.total)


class _FlatMetaRpc(FlatOp):
    """A metadata RPC: client CPU, request, thread-pool service of the
    backend operation, reply."""

    __slots__ = ("m", "factory", "_result")

    def __init__(self, m, factory):
        self.m = m
        self.factory = factory
        self._result = None
        super().__init__(m.env)

    def _start(self, _v):
        m = self.m
        self._sleep(m.spec.getattr_s + m.spec.client_rpc_cpu_s, self._after_cpu)

    def _after_cpu(self, _v):
        m = self.m
        self._await(
            m.network.transfer(m.node.name, m.server.node.name, m.spec.rpc_header_bytes),
            self._after_send,
        )

    def _after_send(self, _v):
        m = self.m
        if m.server.stalled:
            _FlatRetransmit(m, self, 0, 1, self._service)
            return
        self._service()

    def _service(self, _v=None):
        m = self.m
        self._await(m.server.service_op(self.factory), self._after_service)

    def _after_service(self, result):
        m = self.m
        self._result = result
        self._await(
            m.network.transfer(m.server.node.name, m.node.name, m.spec.rpc_header_bytes),
            self._after_reply,
        )

    def _after_reply(self, _v):
        self.m.stats.rpcs += 1
        self._finish(self._result)


class _NFSIO(FlatOp):
    """A cached read or write: client CPU, then

    * a dense write is absorbed dirty into the client cache
      (:class:`~repro.storage.cache.DirtyInsert`); dirty runs reach the
      server in wsize chunks when evicted, under throttling (the oldest
      quarter of the cache) and at fsync/close;
    * a read is served from a fully resident file or scans a dense range
      (:class:`~repro.storage.cache.ReadScan`, no readahead);
    * sparse requests stream one RPC per operation.
    """

    __slots__ = ("m", "inode", "req", "total")

    def __init__(self, m, inode, req):
        self.m = m
        self.inode = inode
        self.req = req
        super().__init__(m.env)

    def _start(self, _v):
        m = self.m
        req = self.req
        total = self.total = req.total_bytes
        self._sleep(
            req.count * m.spec.client_rpc_cpu_s + m.node.memcpy_time(total),
            self._write if req.op == "write" else self._read,
        )

    def _write(self, _v):
        m = self.m
        req = self.req
        m.stats.bytes_sent += self.total
        if req.is_dense:
            plan = m.cache.dense_plan(req.offset, req.span)
            DirtyInsert(m, self, self.inode.fileid, plan, self._written)
            return
        self._stream(req.nbytes, 8, self._written)

    def _written(self, _v=None):
        # a cached write's new size reaches the server with its next
        # flush or commit
        inode = self.inode
        inode.size = max(inode.size, self.req.offset + self.req.span)
        self._finish(self.total)

    def _read(self, _v):
        m = self.m
        req = self.req
        inode = self.inode
        m.stats.bytes_received += self.total

        span = min(req.span, max(inode.size - req.offset, 0))
        if m.cache.file_fully_resident(inode.fileid, max(inode.size, 1)):
            m.cache.touch_run(inode.fileid, m.cache.segments_of(req.offset, span))
            self._finish(self.total)
            return
        if req.is_dense:
            ReadScan(m, self, inode, m.cache.segments_of(req.offset, span), 0, self._done)
            return
        self._stream(8, req.nbytes, self._done)

    def _done(self, _v=None):
        self._finish(self.total)

    def _stream(self, send_b, reply_b, k):
        """A sparse request: one RPC per operation, pipelined."""
        m = self.m
        req = self.req
        inode = self.inode
        stride = req.op_stride(4 * KiB)

        def server_window(w, idx):
            sub = IORequest(
                req.op, req.offset + idx * stride, req.nbytes, count=w, stride=req.stride
            )
            return m.server.export.submit(inode, sub)

        _FlatStream(m, self, req.count, send_b, reply_b, server_window, k)


class _FlatCommit(FlatOp):
    """fsync / close: push the file's dirty runs, then a COMMIT round
    trip (a durable export fsyncs server-side); close adds client CPU."""

    __slots__ = ("m", "inode", "close")

    def __init__(self, m, inode, close):
        self.m = m
        self.inode = inode
        self.close = close
        super().__init__(m.env)

    def _start(self, _v):
        m = self.m
        entries = m.cache.dirty_segments(limit=None, fileid=self.inode.fileid)
        if entries:
            WriteBack(m, self, entries, self._pushed)
            return
        self._pushed()

    def _pushed(self, _v=None):
        m = self.m
        self._await(
            m.network.transfer(m.node.name, m.server.node.name, m.spec.rpc_header_bytes),
            self._sent,
        )

    def _sent(self, _v):
        m = self.m
        inode = self.inode
        if m.spec.commit_durable:
            factory = lambda: m.server.export.fsync(inode)
        else:
            factory = lambda: None
        self._await(m.server.service_op(factory), self._served)

    def _served(self, _v):
        m = self.m
        self._await(
            m.network.transfer(m.server.node.name, m.node.name, m.spec.rpc_header_bytes),
            self._replied,
        )

    def _replied(self, _v):
        m = self.m
        m.stats.commits += 1
        if self.close:
            self._sleep(m.spec.client_rpc_cpu_s, self._closed)
            return
        self._finish(None)

    def _closed(self, _v):
        self._finish(self.inode)
