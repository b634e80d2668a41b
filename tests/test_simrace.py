"""simrace: runtime probe, minimizer, and pinned tie-order fixes.

Two layers under test, mirroring the module:

* dynamic — the tie-group recorder finds a synthetic race, a seeded
  reversal reproduces the divergence, and delta-debugging reduces it
  to a single irreducible flip group;
* differential — a quick race matrix over BT-IO comes back clean with
  identical table hashes.

The last two classes pin tie-order behaviour this detector surfaced:
the disk head serving same-arrival cohorts by offset (issue-order
invariance), and a keyed foreign request arriving mid-rotation queuing
behind the members the rotation re-admits first.  The golden cells'
tie-order gate is ``tests/test_tie_order.py``.
"""

from contextlib import contextmanager

from repro.analysis.simrace import run_race_matrix
from repro.hardware.disk import READ, Disk, DiskSpec
from repro.hardware.network import GIGABIT, Network
from repro.simengine import Environment
from repro.simengine.core import Timeout
from repro.simengine.resources import FastHold, Resource
from repro.simengine.schedule import (
    Perturber,
    PopRecorder,
    TieGroupRecorder,
    capture,
    minimize_flips,
    reverse_plans,
)
from repro.storage.base import KiB, MiB


# ---------------------------------------------------------------------------
# runtime probe + minimizer on a synthetic known race
# ---------------------------------------------------------------------------


@contextmanager
def _null():
    yield


def _race_scenario(hook=None):
    """Two same-(time, priority) callbacks from different executions
    RMW a shared value non-commutatively: base order yields (1*2)+3=5,
    the flipped order (1+3)*2=8."""
    state = {"value": 1}
    with capture(hook) if hook is not None else _null():
        env = Environment()

        def cb_double(ev):
            state["value"] = state["value"] * 2

        def cb_add(ev):
            state["value"] = state["value"] + 3

        def parent_a(ev):
            Timeout(env, 0.02).callbacks.append(cb_double)

        def parent_b(ev):
            Timeout(env, 0.01).callbacks.append(cb_add)

        Timeout(env, 0.01).callbacks.append(parent_a)
        Timeout(env, 0.02).callbacks.append(parent_b)
        env.run()
    return state["value"]


def test_recorder_finds_tie_group():
    rec = TieGroupRecorder()
    assert _race_scenario(rec) == 5
    groups = rec.groups()
    assert len(groups) == 1
    ((key, members),) = groups.items()
    assert key[1] == 0.03  # the contested instant
    assert len(members) == 2


def test_reversal_reproduces_divergence():
    rec = TieGroupRecorder()
    base = _race_scenario(rec)
    flipped = _race_scenario(Perturber(reverse_plans(rec.groups())))
    assert (base, flipped) == (5, 8)


def test_minimizer_reduces_to_single_flip_group():
    rec = TieGroupRecorder()
    base = _race_scenario(rec)
    groups = list(rec.groups())

    def diverges(subset):
        return _race_scenario(Perturber(reverse_plans(subset))) != base

    subset, _runs, irreducible = minimize_flips(groups, diverges)
    assert len(subset) == 1
    assert irreducible


def test_clean_scenario_survives_reversal():
    def clean(hook=None):
        out = []
        with capture(hook) if hook is not None else _null():
            env = Environment()
            for i in range(3):
                Timeout(env, 0.01).callbacks.append(
                    lambda ev, i=i: out.append(i)
                )
            env.run()
        return sorted(out)

    rec = TieGroupRecorder()
    base = clean(rec)
    assert clean(Perturber(reverse_plans(rec.groups()))) == base


def test_pop_recorder_names_direct_entries():
    # events are named by type, direct entries by the method they call,
    # so a first divergence points at the state-machine step that moved
    rec = PopRecorder()
    with capture(rec):
        env = Environment()
        Network(env, ["a", "b"], GIGABIT).transfer("a", "b", 1000)
        env.run()
    assert [name for _env, _when, _prio, name in rec.pops] == [
        "_FastRoute._start",
        "FastHold._on_grant",  # the sender's uplink
        "FastHold._on_grant",  # the receiver's downlink
        "FastHold._final_sleep_done",
        "_FastRoute._latency_done",
        "Event",
    ]


# ---------------------------------------------------------------------------
# quick differential matrix over BT-IO
# ---------------------------------------------------------------------------


def test_quick_race_matrix_is_clean():
    from repro.workloads.apps import BTIOApplication
    from repro.workloads.btio import BTIOConfig

    app = BTIOApplication(BTIOConfig(clazz="S", nprocs=4))
    report = run_race_matrix(
        app,
        sanitize=(False,),
        seeds=(0,),
        block_sizes=(256 * KiB, 1 * MiB),
        char_file_bytes=8 * MiB,
        ior_file_bytes=64 * MiB,
    )
    assert report["schema"] == "repro.race-report/1"
    assert report["ok"] is True
    assert report["findings"] == []
    cells = report["cells"]
    assert len(cells) == 1
    assert all(c["tables"] == cells[0]["tables"] for c in cells)


# ---------------------------------------------------------------------------
# pinned fix: disk head resolves same-arrival cohorts by offset
# ---------------------------------------------------------------------------


def _disk_completions(order):
    env = Environment()
    d = Disk(env, DiskSpec())
    log = []
    d.submit(READ, 0, 4 * KiB)  # occupies the head; contenders queue
    for off in order:
        ev = d.submit(READ, off, 256 * KiB)
        ev.callbacks.append(lambda e, off=off: log.append((env._now, off)))
    env.run()
    return log


def test_disk_head_is_issue_order_invariant():
    near_first = _disk_completions([64 * MiB, 512 * MiB])
    far_first = _disk_completions([512 * MiB, 64 * MiB])
    assert near_first == far_first
    assert [off for _, off in near_first] == [64 * MiB, 512 * MiB]


# ---------------------------------------------------------------------------
# pinned fix: a keyed foreign request does not jump a rotation cohort
# ---------------------------------------------------------------------------


class _KeyedHold(FastHold):
    __slots__ = ("total", "_q", "label", "log")

    def __init__(self, env, resources, total, quantum, order_key, label, log):
        self.total = total
        self._q = quantum
        self.label = label
        self.log = log
        super().__init__(env, resources, order_key)

    def _start(self, event):
        self._acquire()

    def _granted(self):
        self.log.append((round(self.env._now, 9), self.label))
        self._begin_hold(self.total, self._q)

    def _done(self):
        self.log.append((round(self.env._now, 9), self.label + ":done"))
        self.result.succeed(None)


def _rotation_grant_log():
    """Three keyed holds rotate on one resource; a keyed foreign request
    lands mid-slice.  Its key sorts before a member's, but it arrived
    later than the members already queued, so it must wait its turn."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    for key, label, total in (
        (10, "A", 0.203),
        (20, "B", 0.205),
        (30, "C", 0.207),
    ):
        _KeyedHold(env, [res], total, 0.02, key, label, log)

    class Foreign:
        def got(self, _v):
            log.append((round(env._now, 9), "foreign"))
            Timeout(env, 0.005).callbacks.append(lambda e: res.release(self.req))

    def arrive(ev):
        foreign = Foreign()
        foreign.req = res.request(foreign.got, order_key=15)

    Timeout(env, 0.07).callbacks.append(arrive)
    env.run()
    return log


def test_keyed_foreign_request_waits_behind_rotation():
    log = _rotation_grant_log()
    assert _rotation_grant_log() == log
    # the foreign keyed request queues behind the member that the
    # rotation re-admitted first — it must not jump the cohort
    labels = [label for _, label in log]
    assert labels.index("foreign") > labels.index("C")
