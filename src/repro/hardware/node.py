"""Compute / I/O nodes and the cluster container.

A :class:`Node` bundles the per-machine hardware state: CPU (used to
convert workload "busy work" into simulated time), RAM (which bounds
the OS page cache), and an optional local block device (JBOD or RAID
array).  A :class:`Cluster` holds the nodes plus the network fabrics
that connect them — the paper's clusters have two Gigabit Ethernet
networks, one for communication and one for data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..simengine import Environment
from .network import LinkSpec, Network, GIGABIT
from .raid import RAIDArray, RAIDConfig

__all__ = ["NodeSpec", "Node", "Cluster"]

MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one machine."""

    cores: int = 2
    core_gflops: float = 4.0  # per-core double-precision rate (2011-era)
    ram_bytes: int = 2 * GiB
    memcpy_Bps: float = 2500.0 * MiB


class Node:
    """One machine in the cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        spec: NodeSpec | None = None,
        storage: Optional[RAIDConfig] = None,
    ):
        self.env = env
        self.name = name
        self.spec = spec or NodeSpec()
        self.array: Optional[RAIDArray] = (
            RAIDArray(env, storage, name=f"{name}.array") if storage else None
        )
        #: filesystem mounts are attached by the storage layer
        self.mounts: dict[str, object] = {}

    def compute_time(self, flops: float) -> float:
        """Seconds of one core's work for ``flops`` floating operations."""
        return flops / (self.spec.core_gflops * 1e9)

    def memcpy_time(self, nbytes: int) -> float:
        """In-memory copy cost (used by caches and collective buffering)."""
        return nbytes / self.spec.memcpy_Bps

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name!r} cores={self.spec.cores} ram={self.spec.ram_bytes // GiB}GiB>"


class Cluster:
    """Nodes + networks.

    ``data_network`` carries filesystem traffic; ``comm_network``
    carries MPI messages.  When a cluster has a single physical
    network, pass the same :class:`Network` for both (a paper
    configurable factor: "number and type of network — dedicated use
    or shared with the computing").
    """

    def __init__(self, env: Environment, name: str = "cluster"):
        self.env = env
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.comm_network: Optional[Network] = None
        self.data_network: Optional[Network] = None

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def set_networks(self, comm: Network, data: Optional[Network] = None) -> None:
        """Attach fabrics; ``data=None`` means a single shared network."""
        self.comm_network = comm
        self.data_network = data if data is not None else comm

    @property
    def shared_network(self) -> bool:
        """True when MPI traffic and file traffic compete on one fabric."""
        return self.comm_network is self.data_network

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name}") from None

    def compute_nodes(self) -> list[Node]:
        """All nodes except any whose name marks it as a dedicated server."""
        return [n for k, n in self.nodes.items() if not k.startswith("io")]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster {self.name!r} nodes={len(self.nodes)}>"
