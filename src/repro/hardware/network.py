"""Interconnect model: links, switch fabric, message transfers.

The paper's clusters use one or two Gigabit Ethernet networks (one for
"communication"/services, one for data).  We model a network as a
star: every node owns a full-duplex **uplink** (node→switch) and
**downlink** (switch→node); a transfer from A to B holds A's uplink
and B's downlink for its serialisation time, so hot receivers (an NFS
server under N writers) become the shared bottleneck, which is the
dominant effect in the paper's NFS-level results.

Effective bandwidth accounts for protocol framing overhead (TCP/IP
over Ethernet, ~94% of line rate), and each message pays a fixed
per-message latency (propagation, interrupt and protocol stack cost).
Bulk transfers (``count`` messages back-to-back) are pipelined: the
latency is paid once per message but overlaps with serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simengine import Environment, Event, Resource
from ..simengine.resources import FastHold

__all__ = ["LinkSpec", "Link", "Network", "GIGABIT", "TEN_GIGABIT"]

MiB = 1024 * 1024


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a network link."""

    raw_bandwidth_Bps: float = 125.0 * 1000 * 1000  # 1 Gb/s line rate
    efficiency: float = 0.94  # framing + TCP/IP overhead
    latency_s: float = 55e-6  # per-message one-way latency
    per_message_cpu_s: float = 8e-6  # stack cost per message/RPC

    def __post_init__(self) -> None:
        # the tail latency is slept on the calendar with no check of
        # its own (see _FastSend._done)
        if not self.latency_s >= 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency_s!r}")

    @property
    def bandwidth_Bps(self) -> float:
        return self.raw_bandwidth_Bps * self.efficiency


GIGABIT = LinkSpec()
TEN_GIGABIT = LinkSpec(raw_bandwidth_Bps=1250.0 * 1000 * 1000, latency_s=30e-6)


class _FastSend(FastHold):
    """One transfer across a link: wait out an outage, hold the channel
    for the serialisation time, then pay the tail message's latency."""

    __slots__ = ("link", "nbytes", "count")

    def __init__(self, link: "Link", nbytes: int, count: int, order_key=None):
        self.link = link
        self.nbytes = nbytes
        self.count = count
        super().__init__(link.env, [link.channel], order_key)

    def _start(self, _v) -> None:
        link = self.link
        env = self.env
        if env._now < link._down_until:
            # ride out the outage; re-check on wake (it may have been
            # extended meanwhile)
            env._push(link._down_until, 1, self._start)
            return
        self._acquire()

    def _granted(self) -> None:
        link = self.link
        total = link.hold_time(self.nbytes, self.count)
        link.busy_s += total
        link.bytes_carried += self.nbytes * self.count
        link.messages += self.count
        self._begin_hold(total, link.QUANTUM_S)

    def _done(self) -> None:
        # propagation latency of the tail message (pipelined with the
        # rest); never negative: LinkSpec checks the base latency and
        # spike factors are positive
        env = self.env
        env._push(env._now + self.link.effective_latency_s, 1, self._latency_done)

    def _latency_done(self, _v) -> None:
        self.result.succeed(self.nbytes * self.count)


class _FastRoute(FastHold):
    """One transfer across the fabric: the sender's uplink and the
    receiver's downlink are acquired in that fixed order (the two
    resource sets are disjoint, so no deadlock cycle can form), held
    concurrently, released in reverse order; latency is the max.  A
    flapped link delays the transfer until it is back up (TCP rides out
    short outages by retransmitting; payload accounting of those
    retransmits lives at the RPC layer, see storage.nfs)."""

    __slots__ = ("up", "down", "nbytes", "count")

    def __init__(self, up: "Link", down: "Link", nbytes: int, count: int, order_key=None):
        self.up = up
        self.down = down
        self.nbytes = nbytes
        self.count = count
        super().__init__(up.env, [up.channel, down.channel], order_key)

    def _start(self, _v) -> None:
        env = self.env
        up, down = self.up, self.down
        if env._now < up._down_until or env._now < down._down_until:
            env._push(max(up._down_until, down._down_until), 1, self._start)
            return
        self._acquire()

    def _granted(self) -> None:
        up, down = self.up, self.down
        nb = self.nbytes * self.count
        total = up.hold_time(self.nbytes, self.count)
        up.busy_s += total
        down.busy_s += total
        up.bytes_carried += nb
        down.bytes_carried += nb
        up.messages += self.count
        down.messages += self.count
        self._begin_hold(total, Link.QUANTUM_S)

    def _done(self) -> None:
        env = self.env
        env._push(
            env._now + max(self.up.effective_latency_s, self.down.effective_latency_s),
            1,
            self._latency_done,
        )

    def _latency_done(self, _v) -> None:
        self.result.succeed(self.nbytes * self.count)


class Link:
    """A single simplex link; transfers serialise FIFO on it."""

    QUANTUM_S = 0.010

    def __init__(self, env: Environment, spec: LinkSpec, name: str = "link"):
        self.env = env
        self.spec = spec
        self.name = name
        self.channel = Resource(env, capacity=1, name=name)
        self.bytes_carried = 0
        self.messages = 0
        self.busy_s = 0.0
        # fault-injection state: transfers wait out a down window, and
        # a latency spike multiplies the per-message latency until it
        # expires (see repro.faults)
        self._down_until = 0.0
        self._latency_factor = 1.0
        self._latency_until = 0.0

    # -- fault injection -------------------------------------------------
    def fail_until(self, t_s: float) -> None:
        """Take the link down until absolute simulated time ``t_s``.

        Transfers that have not yet acquired the channel wait out the
        window; a transfer already serialising completes (its frames
        were on the wire).
        """
        self._down_until = max(self._down_until, t_s)

    def spike_latency_until(self, factor: float, t_s: float) -> None:
        """Multiply the per-message latency by ``factor`` until ``t_s``."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        self._latency_factor = factor
        self._latency_until = t_s

    @property
    def down(self) -> bool:
        return self.env.now < self._down_until

    @property
    def effective_latency_s(self) -> float:
        if self.env.now < self._latency_until:
            return self.spec.latency_s * self._latency_factor
        return self.spec.latency_s

    def hold_time(self, nbytes: int, count: int = 1) -> float:
        """Serialisation time for ``count`` back-to-back messages."""
        return (
            nbytes * count / self.spec.bandwidth_Bps
            + count * self.spec.per_message_cpu_s
        )

    def transfer(self, nbytes: int, count: int = 1, order_key=None) -> Event:
        """Move ``count`` messages of ``nbytes`` each across the link."""
        if nbytes < 0 or count < 1:
            raise ValueError("invalid transfer geometry")
        return _FastSend(self, nbytes, count, order_key).result


class Network:
    """A switched star network connecting named endpoints.

    >>> env = Environment()
    >>> net = Network(env, ["n0", "n1", "server"], GIGABIT)
    >>> ev = net.transfer("n0", "server", 1 << 20)
    """

    def __init__(
        self,
        env: Environment,
        endpoints: list[str],
        spec: LinkSpec = GIGABIT,
        name: str = "net",
    ):
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("duplicate endpoint names")
        self.env = env
        self.spec = spec
        self.name = name
        self._ep_index = {n: i for i, n in enumerate(endpoints)}
        self.uplinks = {n: Link(env, spec, f"{name}.{n}.up") for n in endpoints}
        self.downlinks = {n: Link(env, spec, f"{name}.{n}.down") for n in endpoints}

    @property
    def endpoints(self) -> list[str]:
        return list(self.uplinks)

    def add_endpoint(self, node: str) -> None:
        if node in self.uplinks:
            raise ValueError(f"endpoint {node!r} already attached")
        self._ep_index[node] = len(self._ep_index)
        self.uplinks[node] = Link(self.env, self.spec, f"{self.name}.{node}.up")
        self.downlinks[node] = Link(self.env, self.spec, f"{self.name}.{node}.down")

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        count: int = 1,
        order_key=None,
    ) -> Event:
        """Event firing when the last byte reaches ``dst``.

        Cut-through switching: the sender's uplink and the receiver's
        downlink are held *concurrently* for the serialisation time, so
        a hot receiver (many-to-one traffic) bottlenecks on its
        downlink while independent pairs proceed in parallel.  Local
        transfers (``src == dst``) cost a memcpy and never touch the
        fabric.
        """
        if src not in self.uplinks or dst not in self.uplinks:
            raise KeyError(f"unknown endpoint in transfer {src!r}->{dst!r}")
        if src == dst:
            return self.env.timeout(1e-6 + nbytes * count / (2000.0 * MiB))
        return _FastRoute(
            self.uplinks[src], self.downlinks[dst], nbytes, count, order_key
        ).result

    # -- fault injection -------------------------------------------------
    def flap(self, endpoint: str, duration_s: float, direction: str = "both") -> None:
        """Take ``endpoint``'s link(s) down for ``duration_s`` from now."""
        if endpoint not in self.uplinks:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        if direction not in ("both", "up", "down"):
            raise ValueError(f"bad direction {direction!r}")
        until = self.env.now + duration_s
        if direction in ("both", "up"):
            self.uplinks[endpoint].fail_until(until)
        if direction in ("both", "down"):
            self.downlinks[endpoint].fail_until(until)

    def latency_spike(self, endpoint: str, factor: float, duration_s: float) -> None:
        """Multiply ``endpoint``'s per-message latency for ``duration_s``."""
        if endpoint not in self.uplinks:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        until = self.env.now + duration_s
        self.uplinks[endpoint].spike_latency_until(factor, until)
        self.downlinks[endpoint].spike_latency_until(factor, until)

    def estimate_point_to_point(self, nbytes: int) -> float:
        """Uncontended one-message A→B time (for cost-model callers)."""
        return (
            self.spec.latency_s
            + self.spec.per_message_cpu_s
            + nbytes / self.spec.bandwidth_Bps
        )
