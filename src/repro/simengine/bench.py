"""Kernel microbenchmarks: raw event throughput of the DES core.

Synthetic scenarios exercising the calendar and resource machinery in
isolation — no cluster model, no filesystems — so a regression in the
kernel hot path (heap handling, event dispatch, the FastHold rotation)
shows up directly as events/second instead of being diluted by model
code.  ``repro perf`` runs these and emits the
results as ``BENCH_kernel.json`` for ``scripts/perf_guard.py`` to gate.

Scenario mix:

* ``timeout_chain`` — one callback re-arming a ``Timeout`` back to
  back: pure calendar push/pop/dispatch cost.
* ``request_release`` — tight acquire/release cycles on a contended
  FIFO :class:`Resource`: grant/queue bookkeeping.
* ``contended_rotation`` — several ``FastHold`` holders time-slicing
  one capacity-1 resource: the quantum round-robin that dominates
  contended cluster runs.
* ``uncontended_hold`` — many holders each alone on a private
  resource: the coalesced-wake path (one entry per hold instead of
  one per quantum).
* ``coupled_rotation`` — holders split over two capacity-1 uplinks
  all contending for one shared pivot: the two-level rotation of
  client uplinks feeding one server downlink.
* ``fs_serve`` — a stream of cached reads/writes through a real
  :class:`~repro.storage.localfs.LocalFS`: the flat filesystem
  state machines (the one scenario that touches model code, because
  the flat filesystem path is what it gates).
* ``cache_churn`` — a full :class:`~repro.storage.cache.PageCache`
  streaming clean runs, dirty runs under the dirty limit (cleaned a
  few runs later, as the flusher would), re-reads and the phase-replay
  absorb walk, all through its one insertion walk, so every new
  segment evicts the LRU one: it gates the O(1) eviction that keeps
  the characterization's export and client caches cheap.

Each scenario reports wall seconds, simulated events (calendar entries
consumed, from the environment's sequence counter) and events/second.
"""

from __future__ import annotations

import time
from typing import Any

from .core import Environment, Event, Timeout
from .resources import FastHold, Resource

__all__ = ["kernel_microbench"]


class _BenchHold(FastHold):
    """Minimal concrete FastHold: hold ``total`` seconds in quanta."""

    __slots__ = ("total", "_q")

    def __init__(self, env, resources, total, quantum):
        self.total = total
        self._q = quantum
        super().__init__(env, resources)

    def _start(self, _v: None) -> None:
        self._acquire()

    def _granted(self) -> None:
        self._begin_hold(self.total, self._q)

    def _done(self) -> None:
        self.result.succeed(None)


def _timeout_chain(n: int) -> Environment:
    env = Environment()
    state = {"left": n}

    def rearm(ev: Event) -> None:
        if state["left"] > 0:
            # single self-rearming chain: no concurrent writer exists
            state["left"] -= 1
            Timeout(env, 0.001).callbacks.append(rearm)

    Timeout(env, 0.001).callbacks.append(rearm)
    return env

class _Cycler:
    """One waiter of ``request_release``: each grant queues its next
    request and releases the granted one."""

    __slots__ = ("res", "state", "req")

    def __init__(self, res, state):
        self.res = res
        self.state = state
        self.req = res.request(self.granted)

    def granted(self, _v: None) -> None:
        state = self.state
        if state["left"] > 0:
            # benchmark driver: all waiters are interchangeable, so the
            # grant order cannot change what is measured
            state["left"] -= 1
            # churn: queue this holder's next request, then hand the
            # slot to the head of the queue, until the budget runs out
            held = self.req
            self.req = self.res.request(self.granted)
            self.res.release(held)


def _request_release(cycles: int, waiters: int) -> Environment:
    env = Environment()
    res = Resource(env, capacity=1)
    state = {"left": cycles}
    for _ in range(waiters):
        _Cycler(res, state)
    return env


def _contended_rotation(holders: int, rounds: int) -> Environment:
    env = Environment()
    res = Resource(env, capacity=1)
    for _ in range(holders):
        # each hold spans ``rounds`` quanta of 20 ms
        _BenchHold(env, [res], rounds * 0.020 + 0.013, 0.020)
    return env


def _uncontended_hold(holders: int, rounds: int) -> Environment:
    env = Environment()
    for _ in range(holders):
        res = Resource(env, capacity=1)
        _BenchHold(env, [res], rounds * 0.020 + 0.013, 0.020)
    return env


def _coupled_rotation(holders: int, rounds: int, uplinks: int = 2) -> Environment:
    env = Environment()
    pivot = Resource(env, capacity=1)
    ups = [Resource(env, capacity=1) for _ in range(uplinks)]
    for i in range(holders):
        # stagger the starts so the window forms mid-rotation, like a
        # real client fan-in, instead of all holders arriving at t=0
        def go(ev, up=ups[i % uplinks], k=i):
            _BenchHold(env, [up, pivot], rounds * 0.020 + 0.013 * (k + 1), 0.020)

        if i == 0:
            go(None)
        else:
            Timeout(env, 0.001 * i).callbacks.append(go)
    return env


def _fs_serve(ops: int) -> Environment:
    # imported here, not at module top: the kernel package must stay
    # importable without the model layers, and every other scenario is
    # pure-kernel — only the filesystem gate needs a real filesystem
    from ..hardware import Node, NodeSpec, RAIDArray, RAIDConfig, RAIDLevel
    from ..hardware.disk import DiskSpec
    from ..storage.base import IORequest, KiB, MiB
    from ..storage.cache import CacheSpec
    from ..storage.localfs import LocalFS

    env = Environment()
    node = Node(env, "bench", NodeSpec(ram_bytes=64 * MiB))
    arr = RAIDArray(
        env,
        RAIDConfig(
            level=RAIDLevel.JBOD, ndisks=1, disk=DiskSpec(capacity_bytes=4096 * MiB)
        ),
    )
    fs = LocalFS(env, node, arr, cache_spec=CacheSpec(capacity_bytes=32 * MiB))
    state = {"inode": None, "i": 0}

    def step(_ev=None):
        i = state["i"]
        if i >= ops:
            return
        state["i"] = i + 1
        op = "write" if i % 2 == 0 else "read"
        offset = (i % 16) * MiB
        ev = fs.submit(state["inode"], IORequest(op, offset, 256 * KiB, count=4))
        ev.callbacks.append(step)

    def created(ev):
        state["inode"] = ev.value
        step()

    fs.create("/bench").callbacks.append(created)
    return env


def _cache_churn(runs: int) -> Environment:
    # imported here for the same reason as in _fs_serve
    from ..storage.cache import CacheSpec, PageCache

    env = Environment()
    seg = 64 * 1024
    run_segs = 64
    # a dirty run is cleaned 8 dirty runs (24 runs) after it was
    # streamed: before it reaches the LRU end of the 2,048-segment
    # cache and with at most 512 dirty segments, under the throttle
    flush_back = 24 * run_segs
    cache = PageCache(CacheSpec(capacity_bytes=2048 * seg, segment_bytes=seg))
    limit = cache.spec.dirty_limit_bytes
    state = {"i": 0}

    def step(_ev: Event) -> None:
        i = state["i"]
        if i >= runs:
            return
        # single self-rearming chain: no concurrent writer exists
        state["i"] = i + 1
        first = i * run_segs
        end = first + run_segs
        kind = i % 3
        if kind == 0:
            # stream a clean run in; the cache is full, so each new
            # segment evicts the LRU one
            s = first
            while s < end:
                s += cache.insert_run(1, s, end - s, 0, None)[0]
        elif kind == 1:
            # a dirty run under the writer's limit, the rest one
            # segment at a time as after a throttle
            done = cache.insert_run(1, first, run_segs, seg, limit)[0]
            for s in range(first + done, end):
                cache.insert_run(1, s, 1, seg, None)
            cache.mark_clean_run(1, first - flush_back, run_segs)
        else:
            # re-read the previous run (hits) and stream the next
            # range through the replay absorb walk (misses + evictions)
            cache.touch_run(1, range(first - run_segs, first))
            for s in range(first, end):
                if not cache.touch(1, s):
                    cache.insert_run(1, s, 1, 0, None)
        Timeout(env, 0.001).callbacks.append(step)

    Timeout(env, 0.001).callbacks.append(step)
    return env


#: scenario name -> zero-arg environment builder (sizes tuned so the
#: whole suite stays around a second on a laptop-class core)
_SCENARIOS = {
    "timeout_chain": lambda: _timeout_chain(150_000),
    "request_release": lambda: _request_release(60_000, 4),
    "contended_rotation": lambda: _contended_rotation(8, 2_500),
    "uncontended_hold": lambda: _uncontended_hold(64, 400),
    "coupled_rotation": lambda: _coupled_rotation(8, 1_200),
    "fs_serve": lambda: _fs_serve(4_000),
    "cache_churn": lambda: _cache_churn(2_000),
}


def kernel_microbench(repeats: int = 3) -> dict[str, Any]:
    """Run every scenario ``repeats`` times; keep the best wall time.

    Returns a JSON-safe dict: per-scenario ``{wall_s, events,
    events_per_s}`` plus aggregate ``events_per_s`` over the mix.
    """
    out: dict[str, Any] = {"scenarios": {}, "repeats": repeats}
    total_events = 0
    total_wall = 0.0
    for name, build in _SCENARIOS.items():
        best = None
        events = 0
        for _ in range(repeats):
            env = build()
            # measuring host wall time is the whole point of the
            # microbenchmark — it never runs inside a simulation
            t0 = time.perf_counter()  # simlint: ignore[wall-clock]
            env.run()
            wall = time.perf_counter() - t0  # simlint: ignore[wall-clock]
            if best is None or wall < best:
                best = wall
                events = env._seq
        rate = events / best if best > 0 else float("inf")
        out["scenarios"][name] = {
            "wall_s": round(best, 4),
            "events": events,
            "events_per_s": round(rate),
        }
        total_events += events
        total_wall += best
    out["events"] = total_events
    out["wall_s"] = round(total_wall, 4)
    out["events_per_s"] = round(total_events / total_wall) if total_wall > 0 else None
    return out
