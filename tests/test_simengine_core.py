"""Unit tests for the DES kernel: events, processes, combinators, clock."""

import pytest

from repro.simengine import AllOf, Environment, Event, FlatOp, SimulationError


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.run(env.timeout(2.5))
    assert env.now == 2.5


def test_timeout_value_returned():
    env = Environment()
    assert env.run(env.timeout(1.0, value="done")) == "done"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_returns_value():
    env = Environment()

    def prog():
        yield env.timeout(1)
        return 42

    assert env.run(env.process(prog())) == 42


def test_process_sequences_timeouts():
    env = Environment()

    def prog():
        yield env.timeout(1)
        yield env.timeout(2)
        return env.now

    assert env.run(env.process(prog())) == 3.0


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return (result, env.now)

    assert env.run(env.process(parent())) == ("child-result", 3.0)


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()

    def waiter():
        val = yield ev
        return val

    def trigger():
        yield env.timeout(1)
        ev.succeed("payload")

    env.process(trigger())
    assert env.run(env.process(waiter())) == "payload"


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def _trigger(ev, how, tag):
    if how == "succeed":
        ev.succeed(tag)
    else:
        ev.fail(RuntimeError(tag))


@pytest.mark.parametrize("first", ["succeed", "fail"])
@pytest.mark.parametrize("second", ["succeed", "fail"])
def test_second_trigger_raises_and_schedules_nothing(first, second):
    """Any second succeed/fail is a SimulationError that leaves the
    first outcome and its single calendar entry untouched."""
    env = Environment()
    ev = env.event()
    ev.callbacks.append(lambda _ev: None)  # a waiter: a failure is handled
    _trigger(ev, first, "first")
    assert len(env._queue) == 1
    with pytest.raises(SimulationError, match="already triggered"):
        _trigger(ev, second, "second")
    assert len(env._queue) == 1
    assert ev.ok is (first == "succeed")
    value = ev.value
    assert (value if first == "succeed" else str(value)) == "first"


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()

    class Boom(Exception):
        pass

    def waiter():
        try:
            yield ev
        except Boom:
            return "caught"
        return "missed"

    def trigger():
        yield env.timeout(1)
        ev.fail(Boom())

    env.process(trigger())
    assert env.run(env.process(waiter())) == "caught"


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as e:
            return str(e)

    assert env.run(env.process(parent())) == "inner"


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def prog():
        yield env.timeout(1)
        raise ValueError("unhandled")

    ev = env.process(prog())
    with pytest.raises(ValueError, match="unhandled"):
        env.run(ev)


def test_all_of_waits_for_all():
    env = Environment()
    values = env.run(env.all_of([env.timeout(1, "a"), env.timeout(3, "b"), env.timeout(2, "c")]))
    assert values == ["a", "b", "c"]
    assert env.now == 3.0


def test_all_of_empty_fires_immediately():
    env = Environment()
    assert env.run(env.all_of([])) == []
    assert env.now == 0.0


def test_run_until_time_stops_clock():
    env = Environment()
    env.timeout(10)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_time_rejected():
    env = Environment(10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def prog(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(prog(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_non_event_raises():
    env = Environment()

    def prog():
        yield 42

    with pytest.raises(SimulationError):
        env.run(env.process(prog()))


def test_run_until_event_exhaustion_raises():
    env = Environment()
    never = env.event()
    env.timeout(1)
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_immediate_resume_on_processed_event():
    """Yielding an already-processed event resumes without deadlock."""
    env = Environment()
    ev = env.timeout(1, value="x")
    env.run(ev)

    def prog():
        val = yield ev
        return val

    assert env.run(env.process(prog())) == "x"


def test_nested_all_any_composition():
    env = Environment()
    inner = env.all_of([env.timeout(2, 1), env.timeout(1, 2)])
    value = env.run(env.all_of([inner, env.timeout(3, "late")]))
    assert value == [[1, 2], "late"]
    assert env.now == 3.0


# ----------------------------------------------------------------------
# join callback pruning and absolute-time wake-ups
# ----------------------------------------------------------------------
def test_allof_failfast_prunes_pending_callbacks():
    """AllOf that fails fast detaches from the events still pending."""
    env = Environment()
    bad = env.event()
    slow = env.timeout(100)
    all_ev = env.all_of([bad, slow])
    bad.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        env.run(all_ev)
    assert all(cb != all_ev._on_child for cb in slow.callbacks)


def test_wake_at_absolute_time():
    from repro.simengine import Wake

    env = Environment()
    ev = env.wake_at(3.5, value="tick")
    assert isinstance(ev, Wake)
    assert env.run(ev) == "tick"
    assert env.now == 3.5


def test_wake_at_past_time_rejected():
    env = Environment()
    env.run(env.timeout(2))
    with pytest.raises(ValueError):
        env.wake_at(1.0)


def test_run_until_time_sets_clock_exactly_once():
    """Regression: run(until=t) with an empty calendar must assign the
    clock once (it used to set it both in the loop epilogue and in a
    duplicated final assignment)."""
    sets = []

    class Probe(Environment):
        def __setattr__(self, name, value):
            if name == "_now":
                sets.append(value)
            object.__setattr__(self, name, value)

    env = Probe()
    sets.clear()  # drop the constructor's initial assignment
    env.run(until=4.0)
    assert sets == [4.0]
    assert env.now == 4.0


def test_run_until_time_with_events_sets_clock_once_per_step():
    sets = []

    class Probe(Environment):
        def __setattr__(self, name, value):
            if name == "_now":
                sets.append(value)
            object.__setattr__(self, name, value)

    env = Probe()
    env.timeout(1)
    env.timeout(2)
    sets.clear()
    env.run(until=5.0)
    # one assignment per processed event, plus exactly one for the stop time
    assert sets == [1.0, 2.0, 5.0]


# ----------------------------------------------------------------------
# direct calendar entries and time validation
# ----------------------------------------------------------------------
NAN = float("nan")


class _Probe(FlatOp):
    """A flat op whose steps record when they ran and with what."""

    __slots__ = ("log",)

    def __init__(self, env):
        self.log = []
        super().__init__(env)

    def _start(self, _v):
        self.log.append(("start", self.env.now, _v))

    def step(self, _v):
        self.log.append(("step", self.env.now, _v))


def test_direct_entry_is_called_with_none():
    env = Environment()
    op = _Probe(env)
    env._push(2.0, 1, op.step)
    env.run()
    assert op.log == [("start", 0.0, None), ("step", 2.0, None)]
    # the single-step path dispatches direct entries the same way
    env._push(3.0, 1, op.step)
    env.step()
    assert op.log[-1] == ("step", 3.0, None) and env.now == 3.0


def test_direct_entries_and_events_share_one_order():
    env = Environment()
    op = _Probe(env)
    env.run()

    def on_event(_ev):
        op.log.append(("event", env.now, None))

    env.timeout(1.0).callbacks.append(on_event)
    env._push(1.0, 1, op.step)
    env.timeout(1.0).callbacks.append(on_event)
    env._push(1.0, 0, op.step)
    env.run()
    # priority first, then push order across both kinds of entry
    assert [name for name, _t, _v in op.log[1:]] == ["step", "event", "step", "event"]


def test_flat_sleep_and_wake_land_on_the_calendar():
    env = Environment()
    op = _Probe(env)
    env.run()
    op._sleep(0.5, op.step)
    op._wake(2.0, op.step)
    env.run()
    assert op.log[1:] == [("step", 0.5, None), ("step", 2.0, None)]


@pytest.mark.parametrize(
    "schedule",
    [
        lambda env, op: env.timeout(NAN),
        lambda env, op: env.wake_at(NAN),
        lambda env, op: op._sleep(NAN, op.step),
        lambda env, op: op._wake(NAN, op.step),
        lambda env, op: op._sleep(-1.0, op.step),
        lambda env, op: op._wake(0.5, op.step),
        lambda env, op: env.run(until=NAN),
    ],
    ids=["timeout-nan", "wake_at-nan", "sleep-nan", "wake-nan",
         "sleep-negative", "wake-past", "run-until-nan"],
)
def test_bad_times_rejected_and_clock_intact(schedule):
    env = Environment()
    op = _Probe(env)
    env.run(until=1.0)
    queued = len(env._queue)
    with pytest.raises(ValueError):
        schedule(env, op)
    assert len(env._queue) == queued
    env.run()
    assert env.now == 1.0


def test_nan_entry_smuggled_past_the_guards_is_refused():
    # the pop-time check catches a NaN key that bypassed every
    # constructor guard instead of letting it corrupt the clock
    env = Environment()
    op = _Probe(env)
    env.run()
    env._push(NAN, 1, op.step)
    with pytest.raises(SimulationError, match="in the past"):
        env.run()
    assert env.now == 0.0
