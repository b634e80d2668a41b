"""Drive a fault schedule against a built system.

A :class:`FaultInjector` is armed on a
:class:`~repro.clusters.builder.System` *before* the application
runs: it installs the schedule's seeded
:class:`~repro.simengine.rng.RngRegistry` as ``env.rng`` (the jitter
source for NFS retransmit backoff) and spawns one simulation process
per schedule entry.  Each process sleeps to its injection time, fires
the fault against the right hardware object, and records the
resulting **fault window** (start, end, outcome) for the degraded
-mode report.

Injection processes never raise: fault *consequences* surface where
they belong — a dead array raises
:class:`~repro.hardware.raid.DataLossError` at the application's next
submit, not inside the injector.
"""

from __future__ import annotations

from typing import Any

from ..simengine.rng import RngRegistry
from .schedule import FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Injects one :class:`FaultSchedule` into one system run."""

    def __init__(self, system: Any, schedule: FaultSchedule):
        self.system = system
        self.schedule = schedule
        #: per-entry fault-window records, in injection order
        self.windows: list[dict] = []
        self._armed = False

    # -- target resolution ----------------------------------------------
    def _array(self, target: str):
        if target in ("ionode", "server"):
            return self.system.server_node.array
        node = self.system.node(target)
        if node.array is None:
            raise ValueError(f"node {target!r} has no local array")
        return node.array

    def _network(self, which: str):
        cluster = self.system.cluster
        if which == "comm" or cluster.shared_network:
            return cluster.comm_network
        return cluster.data_network

    # -- arming -----------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install the RNG registry and schedule the injection processes.

        Call once, after the system is built and before the
        application starts; entries are scheduled in time order so
        same-time faults fire in schedule order.
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        env = self.system.env
        # resolve every target NOW: a bad schedule must fail loudly at
        # arm time, not as an unwaited process failure mid-simulation
        for spec in self.schedule:
            if spec.kind == "disk_fail":
                array = self._array(spec.target)
                if not 0 <= spec.disk < array.config.ndisks:
                    raise ValueError(
                        f"disk {spec.disk} out of range for array "
                        f"{array.name!r} ({array.config.ndisks} members)"
                    )
            elif spec.kind in ("link_flap", "latency_spike"):
                net = self._network(spec.network)
                if spec.target not in net.uplinks:
                    raise ValueError(
                        f"unknown network endpoint {spec.target!r} on {net.name!r}"
                    )
        env.rng = RngRegistry(self.schedule.seed)
        for i, spec in enumerate(self.schedule):
            env.process(self._inject(i, spec), name=f"fault.{i}.{spec.kind}")
        self._armed = True
        return self

    def _inject(self, index, spec):
        env = self.system.env
        if spec.t_s > env.now:
            yield env.wake_at(spec.t_s)
        record = {
            "index": index,
            "kind": spec.kind,
            "target": spec.target,
            "t0_s": env.now,
            "t1_s": None,  # None = open until run end
            "outcome": "injected",
        }
        self.windows.append(record)

        if spec.kind == "disk_fail":
            array = self._array(spec.target)
            record["disk"] = spec.disk
            array.fail_disk(spec.disk)
            if array.data_lost:
                # unsurvivable organisation: terminal, no rebuild
                record["t1_s"] = env.now
                record["outcome"] = "data-loss"
                return
            record["outcome"] = "rebuilding"
            ev = array.start_rebuild(
                spec.disk,
                rate_Bps=spec.rebuild_rate_Bps,
                rebuild_bytes=spec.rebuild_bytes,
                hot_spare_delay_s=spec.hot_spare_delay_s,
            )
            result = yield ev
            record["t1_s"] = env.now
            record["outcome"] = result
        elif spec.kind == "nfs_stall":
            self.system.nfs_server.stall(spec.duration_s)
            record["t1_s"] = env.now + spec.duration_s
            record["outcome"] = "stalled"
        elif spec.kind == "link_flap":
            net = self._network(spec.network)
            net.flap(spec.target, spec.duration_s, direction=spec.direction)
            record["t1_s"] = env.now + spec.duration_s
            record["outcome"] = "flapped"
        elif spec.kind == "latency_spike":
            net = self._network(spec.network)
            net.latency_spike(spec.target, spec.factor, spec.duration_s)
            record["t1_s"] = env.now + spec.duration_s
            record["outcome"] = "spiked"
        else:  # pragma: no cover - schedule validation rejects these
            record["outcome"] = f"unknown kind {spec.kind!r}"
