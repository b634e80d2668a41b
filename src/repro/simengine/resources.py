"""Shared-resource primitives for the DES kernel.

These model the contention points of an I/O system: a disk head, a
network link, an NFS server thread pool, a RAID member head.  Every one
is FIFO and deterministic; waiters that arrive at the same sim-time are
ordered by their ``order_key``.

* :class:`Resource` — ``capacity`` slots, claimed by flat state
  machines: each request passes a ``waiter``, and its grant is a
  direct calendar entry that calls the waiter.  The holder must
  release.
* :class:`FastHold` — the flat state machine that holds resources for
  a service time in quanta.
* :class:`Store` — an unbounded FIFO queue of Python objects between
  processes.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, Callable

from .core import Environment, Event, SimulationError, Wake

__all__ = [
    "Request",
    "Resource",
    "Store",
    "FastHold",
]

class Request:
    """A claim on a :class:`Resource` slot, queued or held.

    A plain record, not an event: the holder learns of the grant only
    through the ``waiter`` it passed to :meth:`Resource.request`, which
    the grant pushes as a direct calendar entry and then drops.  Must
    be released exactly once via :meth:`Resource.release`.

    Requests are made only by :meth:`Resource.request`, which fills
    every slot.  ``order_key`` is a semantic tie-break among waiters
    that arrived at the *same* sim-time: requests carrying a key are
    ordered by it instead of by incidental insertion order (e.g. the
    disk head queues by starting offset, like command queueing in a
    real drive), so grant order — and therefore every downstream
    timestamp — is invariant under permutations of same-time
    scheduling order.
    """

    __slots__ = ("resource", "_order", "_released", "t_arrival", "order_key", "_waiter")


_new = object.__new__


def _tie_rank(req: "Request"):
    """Order among waiters that arrived at the same sim-time.

    Keyed requests sort by their ``order_key`` (then arrival seq);
    keyless requests keep plain arrival order after any keyed ones.
    With no keys in play this reduces exactly to FIFO, so the hot path
    is unchanged — the rank only matters inside a same-time cohort.
    """
    if req.order_key is None:
        return (1, 0, req._order)
    return (0, req.order_key, req._order)


class Resource:
    """A counted resource with FIFO queueing.

    Waiters are FIFO by arrival sim-time; *within* a set of waiters
    that arrived at the same sim-time, requests carrying an
    ``order_key`` are granted in key order rather than incidental
    insertion order (see :meth:`request`).  :attr:`queue` is kept in
    that grant order, so the next waiter is always ``queue[0]``.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if isinstance(capacity, bool) or not isinstance(capacity, Integral) or capacity < 1:
            raise ValueError(
                f"capacity of resource {name or type(self).__name__!r} must be an "
                f"integer >= 1, got {capacity!r}"
            )
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._order = 0
        self._arrival_watchers: list[Event] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(
        self, waiter: Callable[[None], None], order_key=None
    ) -> Request:
        """Claim a slot for ``waiter``, a flat state machine's
        continuation: a bound method (the kernel's direct-entry type).

        The grant calls ``waiter(None)`` from a priority-1 direct
        calendar entry at the grant time: at once if a slot is free and
        nobody queues, else at the release that frees one.  Release the
        returned request as usual.

        ``order_key`` (optional, orderable) breaks ties among waiters
        that arrive at the same sim-time; see :class:`Request`.
        """
        req = _new(Request)
        req.resource = self
        self._order += 1
        req._order = self._order
        req._released = False
        env = self.env
        now = req.t_arrival = env._now
        req.order_key = order_key
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            req._waiter = None
            env._push(now, 1, waiter)
        else:
            # taken off again by the grant (see _grant_next)
            req._waiter = waiter
            self._enqueue(req)
        return req

    def _enqueue(self, req: Request) -> None:
        # keep the queue in grant order: arrivals are in sim-time order,
        # and within the same-arrival cohort at the tail a keyed request
        # goes to its tie-rank place; a keyless one always ranks last
        queue = self.queue
        if req.order_key is None:
            queue.append(req)
        else:
            t = req.t_arrival
            rank = _tie_rank(req)
            i = len(queue)
            while i and queue[i - 1].t_arrival == t and rank < _tie_rank(queue[i - 1]):
                i -= 1
            queue.insert(i, req)
        if self._arrival_watchers:
            watchers, self._arrival_watchers = self._arrival_watchers, []
            for ev in watchers:
                ev.succeed(self)

    # -- arrival notification (coalesced holds) -------------------------
    def watch_arrival(self) -> Event:
        """A pending event fired the next time a request *queues* on
        this resource (i.e. contention appears).  Holders sleeping
        through an uncontended stretch watch this instead of waking
        every quantum."""
        ev = Event(self.env)
        self._arrival_watchers.append(ev)
        return ev

    def unwatch_arrival(self, ev: Event) -> None:
        """Deregister a watcher obtained from :meth:`watch_arrival`."""
        try:
            self._arrival_watchers.remove(ev)
        except ValueError:
            pass

    def release(self, req: Request) -> None:
        """Give the slot back and wake the next waiter.

        Misuse — releasing twice, or releasing a queued request that
        was never granted — silently corrupts the slot count, so it is
        always an error; under sanitize mode the active sanitizer
        additionally records it as a violation.
        """
        try:
            self.users.remove(req)
        except ValueError:
            if req._released:
                msg = f"double release of a request on {self.name or type(self).__name__!r}"
            elif req in self.queue:
                msg = (
                    f"releasing a queued request on "
                    f"{self.name or type(self).__name__!r} that was never granted"
                )
            else:
                msg = "releasing a request that is not held"
            san = self.env.sanitizer
            if san is not None:
                san.resource_misuse(msg)
            raise SimulationError(msg) from None
        req._released = True
        if self.queue:
            self._grant_next()

    def _grant_next(self) -> None:
        env = self.env
        queue = self.queue
        users = self.users
        while queue and len(users) < self.capacity:
            # _enqueue keeps the queue in grant order
            nxt = queue.pop(0)
            users.append(nxt)
            waiter = nxt._waiter
            # a kept waiter would close the cycle request -> bound
            # method -> holder -> request
            nxt._waiter = None
            env._push(env._now, 1, waiter)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} {len(self.users)}/{self.capacity}"
            f" queued={len(self.queue)}>"
        )


class FastHold:
    """A flat state machine that acquires resources, holds them for a
    service time in quanta, releases them and triggers :attr:`result`.

    Every model component that occupies a contention point (a disk
    head, a link, an uplink/downlink pair) is one of these — a chain of
    bound-method callbacks instead of a generator process, so a request
    costs no :class:`~repro.simengine.core.Process`, frame or ``send()``
    round trip.

    **Calendar protocol**: construction pushes one priority-0 direct
    entry (a bound method on the calendar, see
    :meth:`~repro.simengine.core.Environment._push`) that runs
    :meth:`_start`.  Resources are then requested in list order, one
    grant at a time; each grant is a priority-1 direct entry that calls
    ``_on_grant`` (``_on_regrant`` after a quantum boundary), passed as
    the ``waiter`` of :meth:`Resource.request`.  The hold sleeps one
    quantum at a time (each sleep a priority-1 direct entry) while any
    held resource has waiters, and at each boundary with waiters it
    releases every slot (reverse list order) and re-requests them (list
    order), so competitors interleave at quantum granularity.  An
    uncontended stretch is covered by a single :class:`Wake` at the time the
    per-quantum additions would reach (so timestamps equal the sliced
    ones), raced against arrival watchers; whichever fires first
    resumes the hold through one priority-1 direct entry, and an
    arrival rejoins the quantum grid at the first boundary after it.
    Completion releases the slots and ``_done`` triggers the result at
    priority 1.  The golden calendar digests of the kernel determinism
    suite pin this sequence entry for entry.

    Subclasses implement:

    * ``_start(_v)`` — the first step (priority-0 direct entry); usually
      ends in :meth:`_acquire`;
    * ``_granted()`` — runs at the grant of the last resource; must
      compute the hold time, apply the component's accounting, and call
      :meth:`_begin_hold`;
    * ``_done()`` — runs after all resources are released at
      completion; typically triggers the result event.
    """

    __slots__ = (
        "env",
        "resources",
        "reqs",
        "quantum",
        "remaining",
        "result",
        "_hold_start",
        "_wake",
        "_watchers",
        "_acq_i",
        "order_key",
    )

    def __init__(self, env: Environment, resources: list[Resource], order_key=None):
        self.env = env
        self.resources = resources
        self.order_key = order_key
        self.reqs: list[Request] = []
        self.result = Event(env)
        env._push(env._now, 0, self._start)

    # -- subclass hooks --------------------------------------------------
    def _start(self, _v: None) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _granted(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _done(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- acquisition -----------------------------------------------------
    def _acquire(self) -> None:
        """Acquire ``resources`` in list order, one grant at a time."""
        self._acq_i = 0
        self.reqs = []
        self._acquire_next()

    def _acquire_next(self) -> None:
        i = self._acq_i
        resources = self.resources
        if i == len(resources):
            self._granted()
            return
        req = resources[i].request(self._on_grant, self.order_key)
        self.reqs.append(req)

    def _on_grant(self, _v: None) -> None:
        self._acq_i += 1
        self._acquire_next()

    # -- the quantum hold loop --------------------------------------------
    def _begin_hold(self, total: float, quantum: float) -> None:
        self.remaining = total
        self.quantum = quantum
        self._hold_step()

    def _hold_step(self) -> None:
        env = self.env
        remaining = self.remaining
        if remaining <= 0:
            self._release_and_done()
            return
        quantum = self.quantum
        # the sleeps below are direct entries; ``remaining`` is positive
        # here, and a bad quantum trips the kernel's past-time check
        if remaining <= quantum:
            env._push(env._now + remaining, 1, self._final_sleep_done)
            return
        resources = self.resources
        contended = False
        for r in resources:
            if r.queue:
                contended = True
                break
        if contended:
            self.remaining = remaining - quantum
            env._push(env._now + quantum, 1, self._after_sleep)
            return
        # Replay the per-quantum addition chain to the exact time the
        # sliced loop would finish, then sleep there in one go.
        start = env._now
        end = start
        rem = remaining
        while rem > 0:
            step = rem if rem < quantum else quantum
            end += step
            rem -= step
        self._hold_start = start
        watchers = self._watchers = [r.watch_arrival() for r in resources]
        wake = self._wake = Wake(env, end)
        cb = self._coalesce_fired
        wake.callbacks.append(cb)
        for w in watchers:
            w.callbacks.append(cb)

    def _coalesce_fired(self, ev: Event) -> None:
        # the first of wake/watchers to fire schedules the resume (one
        # priority-1 direct entry), then the shared callback is pruned
        # from the others
        env = self.env
        env._push(env._now, 1, self._after_coalesce)
        cb = self._coalesce_fired
        wake = self._wake
        if wake is not ev and wake.callbacks is not None:
            try:
                wake.callbacks.remove(cb)
            except ValueError:
                pass
        for w in self._watchers:
            if w is not ev and w.callbacks is not None:
                try:
                    w.callbacks.remove(cb)
                except ValueError:
                    pass

    def _after_coalesce(self, _v: None) -> None:
        env = self.env
        wake = self._wake
        for r, w in zip(self.resources, self._watchers):
            r.unwatch_arrival(w)
        self._watchers = None
        self._wake = None
        if wake.callbacks is None:  # processed: hold ran to completion
            self._release_and_done()
            return
        # Contention arrived mid-sleep: rejoin the quantum grid at the
        # first boundary after the arrival.
        t_arr = env._now
        quantum = self.quantum
        b = self._hold_start
        rem = self.remaining
        while rem > 0 and b <= t_arr:
            step = rem if rem < quantum else quantum
            b += step
            rem -= step
        self.remaining = rem
        # b >= now: the walk stops at the first boundary past the
        # arrival, or at the wake time, which the arrival did not pass
        env._push(b, 1, self._after_sleep)

    def _after_sleep(self, _v: None) -> None:
        # quantum boundary: yield slots to queued competitors
        if self.remaining > 0:
            resources = self.resources
            for r in resources:
                if r.queue:
                    reqs = self.reqs
                    for i in range(len(resources) - 1, -1, -1):
                        resources[i].release(reqs[i])
                    self._acq_i = 0
                    self._reacquire_next()
                    return
        self._hold_step()

    def _reacquire_next(self) -> None:
        i = self._acq_i
        resources = self.resources
        if i == len(resources):
            self._hold_step()
            return
        req = resources[i].request(self._on_regrant, self.order_key)
        self.reqs[i] = req

    def _on_regrant(self, _v: None) -> None:
        self._acq_i += 1
        self._reacquire_next()

    def _final_sleep_done(self, _v: None) -> None:
        self._release_and_done()

    def _release_and_done(self) -> None:
        # release in reverse list order, guarded against a slot already
        # gone (teardown mid-hold)
        resources = self.resources
        reqs = self.reqs
        for i in range(len(resources) - 1, -1, -1):
            if reqs[i] in resources[i].users:
                resources[i].release(reqs[i])
        self._done()


class Store:
    """An unbounded FIFO object queue with blocking ``get``.

    ``put`` never blocks: its event fires at once, before that of any
    getter the item serves.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.items: list[Any] = []
        self._getters: list[Event] = []

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        self.items.append(item)
        ev.succeed(item)
        self._serve()
        return ev

    def get(self) -> Event:
        ev = Event(self.env)
        self._getters.append(ev)
        self._serve()
        return ev

    def _serve(self) -> None:
        while self._getters and self.items:
            self._getters.pop(0).succeed(self.items.pop(0))

    def __len__(self) -> int:
        return len(self.items)
