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

from .core import Environment, Event, SimulationError

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
    be released exactly once per claim via :meth:`Resource.release`.

    :meth:`Resource.request` allocates a request and claims it; a
    :class:`FastHold` re-claims its own released requests at each
    quantum boundary through the same ``Resource._claim``, which fills
    every other slot.  ``order_key`` is a semantic tie-break among
    waiters that arrived at the *same* sim-time: requests carrying a
    key are ordered by it instead of by incidental insertion order
    (e.g. the disk head queues by starting offset, like command
    queueing in a real drive), so grant order — and therefore every
    downstream timestamp — is invariant under permutations of
    same-time scheduling order.
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
        # coalesced holds told of the next arrival that queues here
        self._sleepers: list[_Sleep] = []

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
        req.order_key = order_key
        self._claim(req, waiter)
        return req

    def _claim(self, req: Request, waiter: Callable[[None], None]) -> None:
        # the one grant step, for a new request and for a released one
        # its holder claims again: an arrival with a fresh order stamp
        self._order += 1
        req._order = self._order
        req._released = False
        env = self.env
        now = req.t_arrival = env._now
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            req._waiter = None
            env._push(now, 1, waiter)
        else:
            # taken off again by the grant (see _grant_next)
            req._waiter = waiter
            self._enqueue(req)

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
        if self._sleepers:
            # contention appeared: one priority-1 entry per sleeping
            # hold, each at the key a triggered event would take
            sleepers, self._sleepers = self._sleepers, []
            env = self.env
            now = env._now
            for token in sleepers:
                env._push(now, 1, token._arrived)

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


class _Sleep:
    """One coalesced sleep of a :class:`FastHold`.

    The sleep's wake entry calls :meth:`_woke`, and an arrival that
    queues on any held resource calls :meth:`_arrived`; whichever comes
    first resumes the hold and drops the link to it, so the
    hold <-> token cycle is gone once the token has fired.
    """

    __slots__ = ("hold", "woke")

    def _arrived(self, _v: None) -> None:
        hold = self.hold
        if hold is not None:
            self.hold = None
            env = hold.env
            env._push(env._now, 1, hold._after_coalesce)

    def _woke(self, _v: None) -> None:
        self.woke = True
        self._arrived(None)


class FastHold:
    """A flat state machine that acquires resources, holds them for a
    service time in quanta, releases them and triggers :attr:`result`.

    Every model component that occupies a contention point (a disk
    head, a link, an uplink/downlink pair) is one of these — a chain of
    bound-method callbacks instead of a generator process, so a request
    costs no :class:`~repro.simengine.core.Process`, frame or ``send()``
    round trip, and a quantum step allocates nothing.

    **Calendar protocol**: construction pushes one priority-0 direct
    entry (a bound method on the calendar, see
    :meth:`~repro.simengine.core.Environment._push`) that runs
    :meth:`_start`.  Resources are then claimed in list order, one
    grant at a time; each grant is a priority-1 direct entry that calls
    ``_on_grant``, passed as the ``waiter`` of the claim.  The hold
    sleeps one quantum at a time (each sleep a priority-1 direct entry)
    while any held resource has waiters, and at each boundary with
    waiters it releases every slot (reverse list order) and re-claims
    the same :class:`Request` records (list order), so competitors
    interleave at quantum granularity.  An uncontended stretch is
    covered by one :class:`_Sleep` token: its wake is a priority-1
    direct entry at the time the per-quantum additions would reach (so
    timestamps equal the sliced ones), and an arrival that queues on a
    held resource pushes the token's other entry at once; whichever
    pops first resumes the hold through one priority-1 direct entry,
    and an arrival rejoins the quantum grid at the first boundary after
    it.  Completion releases the slots and ``_done`` triggers the
    result at priority 1.  The golden calendar digests of the kernel
    determinism suite pin this sequence entry for entry.

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
        "_sleep",
        "_acq_i",
        "order_key",
    )

    def __init__(self, env: Environment, resources: list[Resource], order_key=None):
        self.env = env
        self.resources = resources
        self.order_key = order_key
        self.reqs: list[Request] = []
        # None until _begin_hold: tells _on_grant a first acquisition
        # from a re-claim
        self.remaining: float | None = None
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
        key = self.order_key
        reqs = self.reqs = []
        for r in self.resources:
            req = _new(Request)
            req.resource = r
            req.order_key = key
            reqs.append(req)
        self._acq_i = -1
        self._on_grant(None)

    def _on_grant(self, _v: None) -> None:
        # one continuation for the first acquisition and for the
        # re-claim at each quantum boundary: claim the next resource,
        # or go on once the last is granted
        i = self._acq_i = self._acq_i + 1
        resources = self.resources
        if i < len(resources):
            resources[i]._claim(self.reqs[i], self._on_grant)
        elif self.remaining is None:
            self._granted()
        else:
            self._hold_step()

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
        for r in resources:
            if r.queue:
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
        token = self._sleep = _new(_Sleep)
        token.hold = self
        token.woke = False
        for r in resources:
            r._sleepers.append(token)
        env._push(end, 1, token._woke)

    def _after_coalesce(self, _v: None) -> None:
        env = self.env
        token = self._sleep
        self._sleep = None
        for r in self.resources:
            sleepers = r._sleepers
            if token in sleepers:
                sleepers.remove(token)
        if token.woke:  # the wake popped: hold ran to completion
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
        # quantum boundary: yield slots to queued competitors, then
        # re-claim the same requests
        if self.remaining > 0:
            resources = self.resources
            for r in resources:
                if r.queue:
                    reqs = self.reqs
                    for i in range(len(resources) - 1, -1, -1):
                        resources[i].release(reqs[i])
                    self._acq_i = 0
                    resources[0]._claim(reqs[0], self._on_grant)
                    return
        self._hold_step()

    def _final_sleep_done(self, _v: None) -> None:
        self._release_and_done()

    def _release_and_done(self) -> None:
        # release in reverse list order, skipping a slot already given
        # back (teardown mid-hold)
        resources = self.resources
        reqs = self.reqs
        for i in range(len(resources) - 1, -1, -1):
            req = reqs[i]
            if not req._released:
                resources[i].release(req)
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
