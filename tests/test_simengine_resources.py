"""Unit tests for Resource / Store."""

import gc
from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.simengine import Environment, FlatOp, Resource, SimulationError, Store
from repro.simengine.core import Event
from repro.simengine.bench import _BenchHold
from repro.simengine.resources import FastHold, Request, _Sleep, _tie_rank


class _Waiter:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def granted(self, _v):
        self.log.append(self.tag)


def _request(res, log, tag):
    return res.request(_Waiter(log, tag).granted)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []
    r1, r2, r3 = (_request(res, log, tag) for tag in (1, 2, 3))
    env.run(until=0)
    assert log == [1, 2] and res.users == [r1, r2] and res.queue == [r3]
    assert res.count == 2


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    r1 = _request(res, log, 1)
    r2 = _request(res, log, 2)
    assert res.users == [r1] and res.queue == [r2]
    res.release(r1)
    env.run()
    assert log == [1, 2] and res.users == [r2]


def test_request_is_a_record_and_needs_a_waiter():
    res = Resource(Environment(), capacity=1)
    with pytest.raises(TypeError):
        res.request()
    req = _request(res, [], "a")
    assert type(req) is Request and not isinstance(req, Event)


class _Worker:
    """Hold the resource for ``hold`` seconds, then log the tag."""

    def __init__(self, env, res, tag, hold, order):
        self.env = env
        self.res = res
        self.tag = tag
        self.hold = hold
        self.order = order
        self.req = res.request(self._granted)

    def _granted(self, _v):
        self.env._push(self.env.now + self.hold, 1, self._done)

    def _done(self, _v):
        self.res.release(self.req)
        self.order.append(self.tag)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []
    for tag in "abc":
        _Worker(env, res, tag, 1.0, order)
    env.run()
    assert order == ["a", "b", "c"]
    assert env.now == 3.0


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = _request(res, [], "a")
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def _record_pushes(env):
    """Interpose on the env._push funnel the way the sanitizer and the
    race probe do; returns the list of (when, priority, event) seen."""
    seen = []
    down = env._push

    def push(when, priority, event):
        seen.append((when, priority, event))
        down(when, priority, event)

    env._push = push
    return seen


def test_uncontended_grant_is_one_push():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = _record_pushes(env)
    log = []
    w = _Waiter(log, "a")
    req = res.request(w.granted)
    assert seen == [(0.0, 1, w.granted)] and res.users == [req]
    env.run()
    assert log == ["a"]


def test_grant_at_release_is_one_push():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    first = _request(res, log, "a")
    env.run(until=1.0)
    seen = _record_pushes(env)
    w = _Waiter(log, "b")
    waiter = res.request(w.granted)
    assert seen == [] and res.queue == [waiter]
    res.release(first)
    assert seen == [(1.0, 1, w.granted)]
    assert res.users == [waiter] and not res.queue


def test_waiter_grant_is_one_direct_entry():
    # the grant pushes the waiter itself, and the request drops it (no
    # request -> waiter -> holder cycle)
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    seen = _record_pushes(env)
    w = _Waiter(log, "a")
    req = res.request(w.granted)
    assert seen == [(0.0, 1, w.granted)] and req._waiter is None
    env.run(until=1.0)
    assert log == ["a"]
    # granted at a release
    queued = _request(res, log, "b")
    assert queued._waiter is not None and len(seen) == 1
    res.release(req)
    assert seen[1][:2] == (1.0, 1) and type(seen[1][2]) is MethodType
    assert queued._waiter is None and res.users == [queued]
    env.run()
    assert log == ["a", "b"]
    res.release(queued)
    assert queued._released and not res.users


def test_flat_op_start_is_one_direct_entry():
    class Op(FlatOp):
        def _start(self, _v):
            self._finish("done")

    env = Environment()
    seen = _record_pushes(env)
    op = Op(env)
    assert seen == [(0.0, 0, op._start)]
    entry = seen[0][2]
    assert type(entry) is MethodType and entry.__self__ is op
    assert env.run(op.result) == "done"
    assert [p for _w, p, _e in seen] == [0, 1] and seen[1][2] is op.result


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Environment(), capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), 1.5, 2.0, True, -1, "2", None])
def test_resource_rejects_non_integer_capacity(capacity):
    # NaN used to queue every request forever and 1.5 acted as 2
    with pytest.raises(ValueError, match="'disk0.head'.*integer >= 1"):
        Resource(Environment(), capacity=capacity, name="disk0.head")


def test_resource_accepts_integral_capacity():
    import numpy as np

    assert Resource(Environment(), capacity=np.int64(3)).capacity == 3
    assert Resource(Environment(), capacity=2).capacity == 2


class _ScanResource(Resource):
    """The former queue discipline: append every arrival, and at each
    grant pick the minimum ``_tie_rank`` of the leading same-arrival
    cohort."""

    def _enqueue(self, req):
        self.queue.append(req)

    def _grant_next(self):
        # a release frees one slot, so the grant takes one waiter:
        # move the scan's pick to the head of the queue first
        queue = self.queue
        t0 = queue[0].t_arrival
        best = 0
        best_rank = _tie_rank(queue[0])
        for i in range(1, len(queue)):
            req = queue[i]
            if req.t_arrival != t0:
                break
            rank = _tie_rank(req)
            if rank < best_rank:
                best, best_rank = i, rank
        queue.insert(0, queue.pop(best))
        super()._grant_next()


def _grant_log(cls, capacity, batches):
    """Play ``batches`` (one per sim-second) of requests and releases;
    return the grant order as request tags."""
    env = Environment()
    res = cls(env, capacity=capacity)
    log = []
    tag = 0
    for t, ops in enumerate(batches):
        env.run(until=float(t))
        for op in ops:
            if op[0] == "rel":
                if res.users:
                    res.release(res.users[op[1] % len(res.users)])
                continue
            _, key = op
            res.request(_Waiter(log, tag).granted, key)
            tag += 1
    while res.users:
        env.run()
        res.release(res.users[0])
    env.run()
    assert not res.queue
    return log


_op = st.one_of(
    st.tuples(st.just("req"), st.one_of(st.none(), st.integers(0, 3))),
    st.tuples(st.just("rel"), st.integers(0, 3)),
)
_batches = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_batches, st.sampled_from([1, 2]))
def test_cohort_insertion_grants_in_scan_order(batches, capacity):
    assert _grant_log(Resource, capacity, batches) == _grant_log(_ScanResource, capacity, batches)


# ---------------------------------------------------------------------------
# FastHold: re-claimed requests and coalesced-sleep tokens


def _cyclic_garbage(scenario):
    """Run ``scenario`` and return the names of the hold-protocol
    objects it left for the cyclic collector (reference cycles that
    plain reference counting cannot free)."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        scenario()
        gc.collect()
        return [
            type(o).__name__ for o in gc.garbage if isinstance(o, (_Sleep, Request, FastHold))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _coalesced(res, hold):
    """The token ``hold`` sleeps on: exactly one, registered on ``res``."""
    assert hold.remaining is not None and res._sleepers == [hold._sleep]
    assert hold._sleep.hold is hold
    return hold._sleep


def test_coalesced_hold_woken_leaves_no_cycles():
    def woken():
        env = Environment()
        res = Resource(env, capacity=1)
        hold = _BenchHold(env, [res], 0.1, 0.01)
        env.run(until=0.05)
        token = _coalesced(res, hold)
        env.run()
        assert token.woke and token.hold is None and hold._sleep is None
        assert hold.result.processed and env.now == pytest.approx(0.1)
        assert res._sleepers == [] and not res.users

    assert _cyclic_garbage(woken) == []


def test_coalesced_hold_interrupted_leaves_no_cycles():
    def interrupted():
        env = Environment()
        res = Resource(env, capacity=1)
        first = _BenchHold(env, [res], 0.1, 0.01)
        env.run(until=0.035)
        token = _coalesced(res, first)
        # an arrival queues: the sleep rejoins the grid at 0.04, and the
        # two holds then rotate, re-claiming their requests
        second = _BenchHold(env, [res], 0.05, 0.01)
        env.run(until=0.036)
        assert not token.woke and token.hold is None and first._sleep is None
        env.run()
        assert first.result.processed and second.result.processed
        assert env.now == pytest.approx(0.15)
        assert res._sleepers == [] and not res.users and not res.queue

    assert _cyclic_garbage(interrupted) == []


def test_reclaimed_request_still_refuses_misuse():
    env = Environment()
    res = Resource(env, capacity=1)
    first = _BenchHold(env, [res], 0.1, 0.01)
    second = _BenchHold(env, [res], 0.1, 0.01)
    env.run(until=0)
    req = first.reqs[0]
    # the holds rotate every quantum: ``first`` gives its slot up and
    # re-claims the same record at 0.01, 0.03 and 0.05
    env.run(until=0.055)
    assert first.reqs[0] is req and req._order == 7
    assert res.queue == [req] and res.users == [second.reqs[0]]
    with pytest.raises(SimulationError, match="queued request .* never granted"):
        res.release(req)
    env.run(until=0.065)  # granted again at 0.06
    assert res.users == [req]
    res.release(req)
    with pytest.raises(SimulationError, match="double release"):
        res.release(req)


def test_store_fifo():
    env = Environment()
    s = Store(env)
    env.run(s.put("x"))
    env.run(s.put("y"))
    assert env.run(s.get()) == "x"
    assert env.run(s.get()) == "y"


def test_store_get_blocks_until_put():
    env = Environment()
    s = Store(env)
    got = s.get()
    assert not got.triggered

    def producer():
        yield env.timeout(2)
        yield s.put("late")

    env.process(producer())
    env.run()
    assert got.value == "late"


def test_store_put_fires_before_the_getter_it_serves():
    env = Environment()
    s = Store(env)
    got = s.get()
    seen = _record_pushes(env)
    put = s.put("x")
    assert [ev for _w, _p, ev in seen] == [put, got]
    assert put.value == got.value == "x" and len(s) == 0
