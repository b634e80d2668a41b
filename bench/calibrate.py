"""Host seconds scaled to a reference host speed.

The host this benchmark runs on shares its CPU with other machines.
Its speed drifts by 10-30% over minutes and also swings within a
second, in process CPU time as well as in wall time, so raw host
seconds from two runs of the same code can differ by more than any
useful regression bound.

``Gauge`` measures the drift where it happens.  While the timed code
runs, an interval timer interrupts it every ``INTERVAL_S`` host seconds
and times one ``reference()``: a fixed discrete-event loop of generator
processes over a binary heap, the interpreter work of a simulator's hot
path.  Its working set is a few kilobytes, so the cache lines the timed
code leaves behind barely move it, and it imports nothing from
``repro``, so no change to the simulator moves it either.  The time the
interruptions take is left out of the timed code's wall time.  Wall
time times the mean sampled speed, ``REFERENCE_S`` over the sampled
reference time, is the time the code would have taken at the reference
host's speed (``scaled``).
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: seconds one ``reference()`` takes on the reference host: 2-core
#: x86-64 Linux VM (Intel Xeon), Python 3.11.7, in a quiet period
REFERENCE_S = 0.0015
#: host seconds between samples; one sample takes about REFERENCE_S
INTERVAL_S = 0.05

_PROCS = 32
_EVENTS = 2000
_STATIONS = 64


@dataclass
class Timing:
    """The timed code's wall time and the reference times sampled in it."""

    wall_s: float = 0.0
    samples: list[float] = field(default_factory=list)


def scaled(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` host seconds at the reference host's speed.

    ``samples`` are the reference times sampled while those seconds
    ran; pooling the samples of several timings scales a timing too
    short to be sampled by the speed around it.  Each sample gives the
    host's relative speed at its moment, ``REFERENCE_S / sample``.  The
    samples are evenly spaced in time, so their mean is the average
    speed over ``wall_s``, and the work done is ``wall_s`` times it.  A
    sample the scheduler cut in two counts as one slow moment: its speed
    cannot fall below zero.
    """
    if not samples:
        raise ValueError("no reference samples: time more work or sample more often")
    return wall_s * statistics.fmean(REFERENCE_S / s for s in samples)


class _Station:
    __slots__ = ("busy", "served", "last")

    def __init__(self):
        self.busy = 0.0
        self.served = 0
        self.last = 0.0


class Gauge:
    """Samples the host's speed while timed code runs (main thread only)."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._stations = [_Station() for _ in range(_STATIONS)]
        self._tally: dict[int, int] = {}
        self._timing: Timing | None = None
        self._spent = 0.0

    def _process(self, pid: int):
        """A client that visits stations; receives the clock, yields a delay."""
        k = pid
        while True:
            i = k % _STATIONS
            station = self._stations[i]
            now = yield 0.5 + (k % 1000) / 1000.0
            station.busy += now - station.last
            station.last = now
            station.served += 1
            self._tally[i] = self._tally.get(i, 0) + 1
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF

    def reference(self) -> float:
        """Run the fixed reference work once; returns its host seconds.

        The garbage collector is off meanwhile: a collection started
        here would walk the timed code's heap, not the reference's.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            procs = [self._process(pid) for pid in range(_PROCS)]
            heap = [(next(p), seq, p) for seq, p in enumerate(procs)]
            heapq.heapify(heap)
            seq = len(heap)
            for _ in range(_EVENTS):
                now, _, proc = heapq.heappop(heap)
                heapq.heappush(heap, (now + proc.send(now), seq, proc))
                seq += 1
            for p in procs:
                p.close()
            return time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        if self._timing is None:
            return
        t0 = time.perf_counter()
        self._timing.samples.append(self.reference())
        self._spent += time.perf_counter() - t0

    @contextmanager
    def timing(self):
        """Time the ``with`` block; yields a ``Timing`` filled in on exit."""
        timing = Timing()
        self._timing, self._spent = timing, 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a tick already pending is ignored from here on
            self._timing = None
            timing.wall_s = time.perf_counter() - t0 - self._spent
            signal.signal(signal.SIGALRM, previous)
