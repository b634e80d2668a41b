"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: MPI ranks and daemons
are *processes* (Python generators) that yield events to an
:class:`Environment`; disks, links and filesystem operations are flat
callback state machines (:class:`FlatOp`,
:class:`~repro.simengine.resources.FastHold`) on the same calendar.
The design follows the classic process-interaction style (as
popularised by SimPy) but is self-contained, deterministic, and tuned
for the access patterns this project needs:

* a binary-heap event calendar keyed on ``(time, priority, seq)`` so
  same-time events fire in schedule order — simulations are exactly
  reproducible run-to-run;
* two kinds of calendar entry: an :class:`Event`, which runs its
  callback list, and a *direct entry* — a bare bound method, called as
  ``fn(None)`` — for a wait that has exactly one continuation and
  nothing else to observe (a flat state machine's start, sleep,
  wake-up or resource grant — see the ``waiter`` of
  :meth:`~repro.simengine.resources.Resource.request`).  Both go
  through the one funnel :meth:`Environment._push` and take the same
  ``(time, priority, seq)`` key, so converting a single-callback
  event to a direct entry leaves the calendar unchanged entry for
  entry;
* generator-based processes with ``yield env.timeout(dt)``,
  ``yield other_event`` and the join :class:`AllOf`;
* failure propagation: an event failed with an exception re-raises the
  exception inside every waiting process.

Simulated time is a ``float`` in **seconds**.  Wall-clock time never
enters the simulation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Wake",
    "Process",
    "FlatOp",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. triggering an event twice)."""


PENDING = object()  #: sentinel value of an untriggered event


class Event:
    """A happening that processes can wait for.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is scheduled on
    the calendar and, when processed, runs its callbacks (resuming any
    processes that yielded it).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # inlined Environment._schedule: succeed is the hottest trigger
        if self._scheduled:
            raise SimulationError(f"{self!r} scheduled twice")
        self._scheduled = True
        env = self.env
        env._push(env._now, 1, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on the event will see ``exception`` raised
        at its ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._value is PENDING else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        # Timeouts are created triggered-and-scheduled; bypassing
        # Event.__init__ and the _schedule re-schedule guard saves
        # two attribute round trips on the kernel's most common event.
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._scheduled = True
        env._push(env._now + delay, 1, self)


class Wake(Event):
    """An event firing at an *absolute* simulated time.

    Unlike ``Timeout(delay)`` the calendar entry is exactly ``at``,
    with no ``now + delay`` float round trip — coalesced resource
    holds use this to land on the same timestamps the quantum-sliced
    path produces (sums of per-quantum additions).
    """

    __slots__ = ()

    def __init__(self, env: "Environment", at: float, value: Any = None):
        if not at >= env._now:  # also rejects NaN
            raise ValueError(f"wake_at({at!r}) is in the past (now={env._now!r})")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        env._push(at, 1, self)


class Initialize(Event):
    """Internal: first resume of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        # Like Timeout, created triggered-and-scheduled in one step.
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._scheduled = True
        env._push(env._now, 0, self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The value of the event is the generator's return value; if the
    generator raises, the process event fails with that exception and
    the exception propagates to any process waiting on it (or crashes
    the simulation if nobody is waiting).
    """

    __slots__ = ("generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # inlined Event.__init__: processes are created on the serve
        # hot paths, so the extra frame is measurable
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        send = self.generator.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = self.generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                if not self._failure_handled(exc):
                    raise
                return

            try:
                callbacks = target.callbacks
            except AttributeError:
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                self.generator.throw(exc)
                raise exc
            if callbacks is not None:
                # Target still pending or scheduled: wait for it.
                callbacks.append(self._resume)
                return
            # Target already processed: resume immediately with its value.
            event = target

    def _failure_handled(self, exc: BaseException) -> bool:
        """Fail this process event; return True if somebody is waiting."""
        self._ok = False
        self._value = exc
        self.env._schedule(self)
        return bool(self.callbacks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class FlatOp:
    """A flat, callback-driven service operation: the filesystem and
    MPI-IO counterpart of :class:`~repro.simengine.resources.FastHold`.

    An operation is a chain of bound-method callbacks instead of a
    generator process, so it costs no :class:`Process` object, frame or
    ``send()`` round trip per event.

    **Calendar protocol**: construction pushes one priority-0 direct
    entry that runs :meth:`_start`.  Each wait on another operation's
    event is one :meth:`_await`: it appends one callback to a pending
    event, or continues synchronously — with no calendar entry — when
    the target was already processed.  A plain delay is one
    :meth:`_sleep` and a sleep until an absolute time one :meth:`_wake`:
    each pushes the continuation itself as a priority-1 direct entry,
    the same calendar key a ``Timeout``/``Wake`` would take.  The
    terminal :meth:`_finish` triggers :attr:`result` at priority 1.
    The golden calendar digests of the kernel determinism suite pin
    this sequence entry for entry.

    Sub-steps with no calendar footprint of their own are plain helper
    objects that call a continuation when done and route failures to
    :meth:`_fail`.

    Subclasses implement ``_start(event)`` (the first step) and may
    override ``_cleanup()`` — it runs once if an awaited event fails,
    before the failure propagates to :attr:`result`.
    """

    __slots__ = ("env", "result", "_k")

    def __init__(self, env: "Environment"):
        self.env = env
        self.result = Event(env)
        env._push(env._now, 0, self._start)

    def _start(self, _v: None) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _sleep(self, delay: float, k: Callable[[None], None]) -> None:
        """Call ``k(None)`` ``delay`` simulated seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        env = self.env
        env._push(env._now + delay, 1, k)

    def _wake(self, at: float, k: Callable[[None], None]) -> None:
        """Call ``k(None)`` at the absolute simulated time ``at``."""
        env = self.env
        if not at >= env._now:  # also rejects NaN
            raise ValueError(f"wake_at({at!r}) is in the past (now={env._now!r})")
        env._push(at, 1, k)

    def _await(self, ev: Event, k: Callable[[Any], None]) -> None:
        """Wait for ``ev``, then call ``k(ev.value)``."""
        callbacks = ev.callbacks
        if callbacks is not None:
            self._k = k
            callbacks.append(self._on)
        elif ev._ok:
            # target already processed: continue immediately (no
            # calendar entry), like Process._resume's inner loop
            k(ev._value)
        else:
            self._fail(ev._value)

    def _on(self, ev: Event) -> None:
        # consume the continuation: a stored bound method of this op
        # would keep the op in a reference cycle after it completes
        k = self._k
        self._k = None
        if ev._ok:
            k(ev._value)
        else:
            self._fail(ev._value)

    def _cleanup(self) -> None:
        """Release what the operation holds when an awaited event fails."""

    def _fail(self, exc: BaseException) -> None:
        self._cleanup()
        # a failed Event with no waiters surfaces in step(), like an
        # unhandled process failure
        self.result.fail(exc)

    def _finish(self, value: Any = None) -> None:
        self.result.succeed(value)


class AllOf(Event):
    """Fires when *all* given events have fired; value is a list of values.

    Fails fast if any constituent fails.
    """

    __slots__ = ("_events", "_remaining", "_cb")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._remaining = 0
        # intern the bound callback once instead of materialising a new
        # bound method per child append (and per removal on failure)
        cb = self._cb = self._on_child
        for ev in self._events:
            if ev.callbacks is None:
                if not ev._ok:
                    # Already failed: mirror the failure immediately.
                    self.fail(ev._value)
                    return
                continue
            self._remaining += 1
            ev.callbacks.append(cb)
        if self._remaining == 0 and self._value is PENDING:
            self.succeed([ev._value for ev in self._events])

    def _on_child(self, ev: Event) -> None:
        if self._value is not PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            # detach from the still-pending children, so the failed join
            # (and its values) is collectible instead of lingering in
            # their callback lists until they eventually fire
            cb = self._cb
            for other in self._events:
                if other is not ev and other.callbacks is not None:
                    try:
                        other.callbacks.remove(cb)
                    except ValueError:
                        pass
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class Environment:
    """The simulation clock and event calendar."""

    #: active :class:`repro.analysis.sanitizer.SimSanitizer`, if any.
    #: A class-level ``None`` keeps the disabled-mode check on the hot
    #: paths to a single attribute read; an attached sanitizer shadows
    #: it with an instance attribute (and overrides ``step`` the same
    #: way — ``run`` rebinds ``step`` per call, so the
    #: instance override takes effect).
    sanitizer = None

    #: active :class:`repro.simengine.rng.RngRegistry`, if any — same
    #: class-attribute pattern as ``sanitizer``.  Stochastic model
    #: elements (NFS retransmit jitter under fault injection) draw
    #: from ``env.rng`` streams when one is installed and fall back to
    #: their deterministic default (no jitter) when it is ``None``.
    rng = None

    #: registered creation hooks — each new environment is passed to
    #: every callable here right after ``__init__`` finishes.  Empty in
    #: normal operation (one falsy check on the construction path); the
    #: schedule-race probe registers itself here so that *every*
    #: environment built during a captured run (characterization builds
    #: many) is instrumented from its first calendar insert.
    _init_hooks: list = []

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Union[Event, MethodType]]] = []
        self._seq = 0
        if Environment._init_hooks:
            for hook in Environment._init_hooks:
                hook(self)

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """A fresh pending event; trigger it with ``.succeed()``/``.fail()``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def wake_at(self, at: float, value: Any = None) -> Wake:
        """An event firing at the absolute simulated time ``at``."""
        return Wake(self, at, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _push(self, when: float, priority: int, item: Union[Event, MethodType]) -> None:
        """Insert one calendar entry — the single scheduling funnel.

        ``item`` is an :class:`Event`, whose callbacks run when it is
        popped, or a bound method, which is called as ``item(None)``
        (a direct entry).  Every entry (``Timeout``/``Wake``/
        ``Initialize`` construction, ``succeed``/``fail`` triggering,
        the direct entries of the flat serve paths) lands here, so an
        attached sanitizer can interpose on the instance to observe
        every scheduled entry.
        """
        self._seq += 1
        heappush(self._queue, (when, priority, self._seq, item))

    def _schedule(self, event: Event) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._push(self._now, 1, event)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next calendar entry."""
        when, _prio, _seq, event = heappop(self._queue)
        if not when >= self._now:  # also rejects NaN
            raise SimulationError("event scheduled in the past")
        self._now = when
        if type(event) is MethodType:
            event(None)
            return
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody waited for: surface the error.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to calendar exhaustion), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires; its value is returned).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:  # also rejects NaN
                raise ValueError("cannot run until a time in the past")

        queue = self._queue
        if "step" in self.__dict__:
            # an instance-level override (attached sanitizer) replaces
            # the inlined loop below with the instrumented step
            step = self.step
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if stop_time is not None and queue[0][0] > stop_time:
                    break
                step()
        else:
            # inlined step(): the per-event method call, property reads
            # and heappop lookup add up over O(10^5) events per run
            pop = heappop
            method = MethodType
            while queue:
                if stop_event is not None:
                    if stop_event.callbacks is None:
                        break
                elif stop_time is not None and queue[0][0] > stop_time:
                    break
                when, _prio, _seq, event = pop(queue)
                if not when >= self._now:  # also rejects NaN
                    raise SimulationError("event scheduled in the past")
                self._now = when
                if type(event) is method:
                    event(None)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not callbacks and not isinstance(event, Process):
                    # A failed event nobody waited for: surface the error.
                    raise event._value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the calendar before the event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time is not None:
            self._now = stop_time
        return None
