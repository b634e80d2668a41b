"""Unit tests for Resource / Store."""

from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.simengine import Environment, FlatOp, Resource, SimulationError, Store
from repro.simengine.resources import _tie_rank


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run(until=0)
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2
    assert len(res.queue) == 1


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert r1.triggered and not r2.triggered
    res.release(r1)
    env.run()
    assert r2.triggered


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag, hold):
        req = res.request()
        yield req
        yield env.timeout(hold)
        res.release(req)
        order.append(tag)

    for i, tag in enumerate("abc"):
        env.process(worker(tag, 1.0))
    env.run()
    assert order == ["a", "b", "c"]
    assert env.now == 3.0


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
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
    req = res.request()
    assert seen == [(0.0, 1, req)]
    assert req.triggered and req.value is req and res.users == [req]
    env.run()
    assert req.processed


def test_grant_at_release_is_one_push():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    env.run(until=1.0)
    seen = _record_pushes(env)
    waiter = res.request()
    assert seen == [] and not waiter.triggered
    res.release(first)
    assert seen == [(1.0, 1, waiter)]
    assert waiter.value is waiter and res.users == [waiter] and not res.queue


def test_released_request_drops_its_value():
    # the grant's value is the request itself only while the slot is
    # held: a released request no longer refers to itself
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    assert req.value is req
    res.release(req)
    assert req.triggered and req.value is None


class _Waiter:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def granted(self, _v):
        self.log.append(self.tag)


def test_waiter_grant_is_one_direct_entry():
    # the grant pushes the waiter itself at the request's own key, and
    # the request drops it (no request -> waiter -> holder cycle)
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    seen = _record_pushes(env)
    w = _Waiter(log, "a")
    req = res.request(waiter=w.granted)
    assert seen == [(0.0, 1, w.granted)] and req._waiter is None
    assert req.value is req and res.users == [req]
    env.run(until=1.0)
    assert log == ["a"]
    # granted at a release, like a queued Request event
    queued = res.request(waiter=_Waiter(log, "b").granted)
    assert queued._waiter is not None and len(seen) == 1
    res.release(req)
    assert seen[1][:2] == (1.0, 1) and type(seen[1][2]) is MethodType
    assert queued._waiter is None and res.users == [queued]
    env.run()
    assert log == ["a", "b"]
    # the request never fires as an event
    assert not req.processed and not queued.processed
    res.release(queued)
    assert queued.value is None


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


def test_granted_request_cannot_be_triggered_again():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    with pytest.raises(SimulationError):
        req.succeed(req)
    queued = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        queued.fail(RuntimeError("late"))


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

    def _pop_next(self):
        queue = self.queue
        if len(queue) > 1 and queue[1].t_arrival == queue[0].t_arrival:
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
            return queue.pop(best)
        return queue.pop(0)


def _grant_log(cls, capacity, batches):
    """Play ``batches`` (one per sim-second) of requests and releases;
    return the grant order as request tags.  Even tags wait through a
    ``waiter``, odd ones through the request event's callbacks."""
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
            if tag % 2 == 0:
                res.request(key, _Waiter(log, tag).granted)
            else:
                req = res.request(key)
                req.callbacks.append(lambda _ev, tag=tag: log.append(tag))
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
