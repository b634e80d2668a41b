"""Assemble full simulated systems: nodes + networks + storage + mounts.

A :class:`System` is everything the methodology operates on — the
paper's "I/O configuration": compute nodes with local filesystems, an
I/O node exporting a RAID-backed filesystem over NFS, and one or two
Gigabit Ethernet fabrics.  Every node gets a VFS with ``/local``
(its own disks) and ``/nfs`` (the shared export) so workloads choose
the access type (paper Table I: Local / Global) purely by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..simengine import Environment
from ..hardware import (
    Cluster,
    LinkSpec,
    Network,
    Node,
    NodeSpec,
    RAIDArray,
    RAIDConfig,
    GIGABIT,
)
from ..storage import LocalFS, LocalFSSpec, NFSMount, NFSServer, NFSSpec, VFS

__all__ = ["SystemConfig", "System", "build_system"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything configurable about a cluster's I/O architecture.

    These fields are exactly the paper's "configurable factors"
    (§III-B1): filesystems, networks, buffer/cache, device
    organisation, I/O node placement.
    """

    name: str = "cluster"
    n_compute: int = 8
    compute_spec: NodeSpec = NodeSpec()
    server_spec: NodeSpec = NodeSpec()
    #: device organisation of each compute node's local storage
    local_device: RAIDConfig = RAIDConfig()
    #: device organisation behind the NFS export
    server_device: RAIDConfig = RAIDConfig()
    link: LinkSpec = GIGABIT
    #: dedicated data network (False = file traffic shares the MPI fabric)
    separate_data_network: bool = True
    nfs: NFSSpec = NFSSpec()
    localfs: LocalFSSpec = LocalFSSpec()
    #: disable a node-level page cache by shrinking it (factor: cache state)
    client_cache_enabled: bool = True
    server_cache_enabled: bool = True

    def fingerprint(self) -> str:
        """Stable content hash of every configurable factor.

        Used to key the on-disk characterization cache
        (:mod:`repro.core.tablecache`): two configs with identical
        factors share cached tables, and any field change produces a
        new key.
        """
        from ..fingerprint import fingerprint

        return fingerprint(self)


class System:
    """A built, runnable I/O configuration."""

    def __init__(self, env: Environment, config: SystemConfig):
        self.env = env
        self.config = config
        self.cluster = Cluster(env, config.name)
        names = [f"n{i}" for i in range(config.n_compute)]
        server_name = "ionode"

        comm = Network(env, names + [server_name], config.link, name=f"{config.name}.comm")
        if config.separate_data_network:
            data = Network(env, names + [server_name], config.link, name=f"{config.name}.data")
        else:
            data = comm
        self.cluster.set_networks(comm, data)

        # --- I/O node -------------------------------------------------
        self.server_node = Node(env, server_name, config.server_spec, storage=config.server_device)
        self.cluster.add_node(self.server_node)
        from ..storage.cache import CacheSpec

        server_cache = None
        if not config.server_cache_enabled:
            server_cache = CacheSpec(capacity_bytes=64 * 1024 * 1024)
        self.export = LocalFS(
            env,
            self.server_node,
            self.server_node.array,
            spec=config.localfs,
            cache_spec=server_cache,
            name=f"{config.name}.export",
        )
        self.nfs_server = NFSServer(env, self.server_node, self.export, data, config.nfs)

        # --- compute nodes -------------------------------------------
        self.compute: list[Node] = []
        self.local_fs: dict[str, LocalFS] = {}
        self.nfs_mounts: dict[str, NFSMount] = {}
        for nm in names:
            node = Node(env, nm, config.compute_spec, storage=config.local_device)
            self.cluster.add_node(node)
            self.compute.append(node)
            lfs = LocalFS(env, node, node.array, spec=config.localfs, name=f"{nm}.localfs")
            client_cache = None
            if not config.client_cache_enabled:
                client_cache = CacheSpec(capacity_bytes=16 * 1024 * 1024)
            mount = NFSMount(env, node, self.nfs_server, cache_spec=client_cache)
            vfs = VFS(env, name=f"{nm}.vfs")
            vfs.mount("/local", lfs)
            vfs.mount("/nfs", mount)
            node.vfs = vfs
            self.local_fs[nm] = lfs
            self.nfs_mounts[nm] = mount
        # the I/O node sees its export as a local path too
        server_vfs = VFS(env, name=f"{server_name}.vfs")
        server_vfs.mount("/nfs", self.export)
        server_vfs.mount("/local", self.export)
        self.server_node.vfs = server_vfs

        #: replay settings applied to worlds built over this system
        #: (None = the :class:`ReplaySettings` defaults)
        self.replay_settings = None
        #: accelerator of the most recent world (its stats outlive the run)
        self.last_replay = None
        #: MPI-IO layer counters of the most recent world
        self.last_iostats = None

    # -- convenience -----------------------------------------------------
    def world(self, nprocs: int, placement: str = "block", tracer=None, io_hints=None):
        """An :class:`~repro.mpi.sim.MPIWorld` over this system."""
        from ..mpi.sim import MPIWorld

        w = MPIWorld(
            self.env, self.cluster, nprocs, placement=placement, tracer=tracer,
            io_hints=io_hints, replay_settings=self.replay_settings,
        )
        self.last_replay = w.replay
        self.last_iostats = w.iostats
        return w

    def node(self, name: str) -> Node:
        return self.cluster.node(name)

    def arrays(self) -> Iterator[tuple[str, RAIDArray]]:
        """``(owner, array)``: the I/O node's, then each compute node's."""
        yield "ionode", self.server_node.array
        for node in self.compute:
            if node.array is not None:
                yield node.name, node.array

    def hardware(self) -> Iterator[tuple[str, str, Any, Any]]:
        """The one inventory of busy-counted hardware, in a fixed order.

        Yields ``(name, kind, counters, resource)`` for every disk
        (``"ionode:ionode.array.d0"``, kind ``"disk"``), then every link
        (``"comm:n3:up"``/``"data:n3:up"``, kind ``"link"``; the data
        network only when it is separate).  ``counters.busy_s`` is the
        cumulative busy time (the disk's ``DiskStats``, the ``Link``
        itself); ``resource`` is the disk head or link channel.  The
        topology is fixed once built, so a caller may resolve this once
        and re-read only the counters.
        """
        for owner, array in self.arrays():
            for d in array.disks:
                yield f"{owner}:{d.name}", "disk", d.stats, d.head
        nets = [("comm", self.cluster.comm_network)]
        if not self.cluster.shared_network:
            nets.append(("data", self.cluster.data_network))
        for label, net in nets:
            for direction, links in (("up", net.uplinks), ("down", net.downlinks)):
                for name, link in links.items():
                    yield f"{label}:{name}:{direction}", "link", link, link.channel

    def __repr__(self) -> str:  # pragma: no cover
        c = self.config
        return (
            f"<System {c.name!r} {c.n_compute} nodes, server={c.server_device.level.value}"
            f" x{c.server_device.ndisks}, local={c.local_device.level.value}>"
        )


def build_system(env: Environment, config: SystemConfig) -> System:
    """Build a system from its configuration (the main factory)."""
    return System(env, config)

