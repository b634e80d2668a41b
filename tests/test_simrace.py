"""simrace: static rules, runtime probe, minimizer, and pinned tie-order fixes.

Three layers under test, mirroring the module:

* static — each race rule fires on a synthetic known-race fixture and
  stays quiet on clean/suppressed/unreachable variants, and the real
  tree itself lints clean;
* dynamic — the tie-group recorder finds the synthetic race, a seeded
  reversal reproduces the divergence, and delta-debugging reduces it
  to a single irreducible flip group;
* differential — a quick race matrix over BT-IO comes back clean with
  identical table hashes.

The last two classes pin tie-order behaviour this detector surfaced:
the disk head serving same-arrival cohorts by offset (issue-order
invariance), and a keyed foreign request arriving mid-rotation queuing
behind the members the rotation re-admits first.
"""

import ast
import textwrap
from contextlib import contextmanager
from pathlib import Path

import repro.simengine.resources as resources_mod
from repro.analysis.simrace import (
    RACE_RULES,
    _reachable_callbacks,
    lint_race_paths,
    lint_race_source,
    run_race_matrix,
)
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


def findings(src, path="src/repro/simengine/fixture.py", **kw):
    return lint_race_source(textwrap.dedent(src), path, **kw)


def rules_of(fs):
    return [f.rule for f in fs]


# ---------------------------------------------------------------------------
# layer 1: static rules
# ---------------------------------------------------------------------------

# two callbacks registered on events, both read-modify-writing the same
# state path with non-commutative updates — the canonical schedule race
KNOWN_RACE = """
    def wire(env, ev_a, ev_b, state):
        def on_a(ev):
            state["value"] = state["value"] * 2

        def on_b(ev):
            state["value"] = state["value"] + 3

        ev_a.callbacks.append(on_a)
        ev_b.callbacks.append(on_b)
"""


def test_tie_order_rmw_fires_on_known_race():
    fs = findings(KNOWN_RACE)
    # the multiplicative update is flagged; the `+ 3` is additive and
    # commutes, so it rides the additive exemption
    assert "tie-order-rmw" in rules_of(fs)
    assert all(f.rule in RACE_RULES for f in fs)


def test_rules_filter_narrows_output():
    assert findings(KNOWN_RACE, rules=["unordered-callback-iter"]) == []


def test_unreachable_function_not_flagged():
    # same RMW bodies, but never registered as callbacks — out of scope
    assert (
        findings(
            """
            def on_a(ev, state):
                state["value"] = state["value"] * 2

            def on_b(ev, state):
                state["value"] = state["value"] + 3
            """
        )
        == []
    )


def test_additive_rmw_is_exempt():
    # += on a shared counter commutes across tie order; only flagged
    # when some reachable callback branches on the same path
    assert (
        findings(
            """
            def wire(ev, state):
                def on_done(e):
                    state["count"] += 1

                ev.callbacks.append(on_done)
            """
        )
        == []
    )


def test_additive_rmw_flagged_when_branch_observed():
    # the counter's intermediate value gates a branch in the same
    # callback, so the additive exemption no longer applies
    fs = findings(
        """
        def wire(ev, state):
            def on_done(e):
                state["count"] += 1
                if state["count"] == state["want"]:
                    state["mode"] = "done"

            ev.callbacks.append(on_done)
        """
    )
    assert "tie-order-rmw" in rules_of(fs)


def test_push_registered_callback_is_reachable():
    # a direct calendar entry is a callback too: the bound method handed
    # to _push is a root, like an Event.callbacks registration
    fs = findings(
        """
        class Op:
            def arm(self, env):
                env._push(env._now, 1, self._fire)

            def _fire(self, _v):
                s = self.shared
                s["v"] = s["v"] * 2
        """
    )
    assert "tie-order-rmw" in rules_of(fs)


def test_sleep_continuation_is_reachable():
    fs = findings(
        """
        class Op:
            def _start(self, _v):
                self._sleep(0.1, self._after)

            def _after(self, _v):
                self.fs.stats.level = self.fs.stats.level * 2
        """
    )
    assert "tie-order-rmw" in rules_of(fs)


def test_request_waiter_is_reachable():
    # a grant calls the waiter of request(): by keyword or as the first
    # positional argument, it is a root like a _push callable
    for call in ("res.request(waiter=self._granted)", "res.request(self._granted, 7)"):
        fs = findings(
            f"""
            class Op:
                def _start(self, _v):
                    res = self.res
                    self.req = {call}

                def _granted(self, _v):
                    s = self.shared
                    s["v"] = s["v"] * 2
            """
        )
        assert "tie-order-rmw" in rules_of(fs), call


def test_substep_continuation_is_reachable():
    # a flat sub-step calls its continuation (or a journaled op its
    # effect) from a calendar step: by keyword or position it is a root
    for call in (
        "WriteBack(self.c, self, [], self._after)",
        "_RoundTrip(m, self, 1, 0, 0, None, k=self._after)",
        "_LocalJournaled(self, 0.1, lambda: self._after(None))",
    ):
        fs = findings(
            f"""
            class Op:
                def _start(self, _v):
                    m = self.m
                    {call}

                def _after(self, _v):
                    s = self.shared
                    s["v"] = s["v"] * 2
            """
        )
        assert "tie-order-rmw" in rules_of(fs), call


def test_storage_substep_continuations_are_reachable():
    # the NFS round trip's callers finish in their continuations, and
    # the journaled LocalFS op's effects run from its journal step
    from repro.storage import localfs, nfs

    for mod, names in (
        (nfs, {"_after_reply", "_replied", "_pushed"}),
        (localfs, {"_created", "_unlinked", "_flushed", "_batch_done"}),
    ):
        tree = ast.parse(Path(mod.__file__).read_text())
        reachable = {getattr(fn, "name", None) for fn in _reachable_callbacks(tree)}
        assert names <= reachable, mod.__name__


def test_fasthold_grant_steps_are_reachable():
    tree = ast.parse(Path(resources_mod.__file__).read_text())
    reachable = {getattr(fn, "name", None) for fn in _reachable_callbacks(tree)}
    assert {"_on_grant", "_on_regrant", "_acquire_next", "_granted"} <= reachable


def _method_qualnames(tree):
    """``id(def) -> "Class.method"`` for the methods of top-level classes,
    plus the names of the FlatOp subclasses among those classes."""
    names, flat_ops = {}, set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(isinstance(b, ast.Name) and b.id == "FlatOp" for b in cls.bases):
            flat_ops.add(cls.name)
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                names[id(fn)] = f"{cls.name}.{fn.name}"
    return names, flat_ops


def test_roots_reach_definitions_in_other_files():
    # FlatOp._start is pushed by the kernel (simengine/core.py) and the
    # _Collective hooks are called from mpi/sim.py: their overrides in
    # other files are calendar callbacks too
    src = Path(resources_mod.__file__).parents[1]
    trees = {f: ast.parse(f.read_text()) for f in sorted(src.rglob("*.py"))}
    qualnames, starts = {}, set()
    for f, tree in trees.items():
        names, flat_ops = _method_qualnames(tree)
        rel = f.relative_to(src).as_posix()
        qualnames.update((k, f"{rel}:{v}") for k, v in names.items())
        starts |= {f"{rel}:{c}._start" for c in flat_ops if f"{c}._start" in names.values()}
    reachable = {
        qualnames[id(fn)] for fn in _reachable_callbacks(*trees.values()) if id(fn) in qualnames
    }
    hooks = {
        "mpi/io.py:_CollectiveIO._last",
        "mpi/io.py:_CollectiveIO._tail",
        "mpi/io.py:_OpenAll._last",
        "mpi/io.py:_OpenAll._tail",
    }
    assert len(starts) > 10
    assert starts | hooks <= reachable, sorted((starts | hooks) - reachable)


def test_finding_reported_in_the_file_that_holds_it(tmp_path):
    (tmp_path / "kernel.py").write_text(
        textwrap.dedent(
            """
            class Op:
                def __init__(self, env):
                    env._push(0.0, 0, self._start)
            """
        )
    )
    (tmp_path / "model.py").write_text(
        textwrap.dedent(
            """
            class Double(Op):
                def _start(self, _v):
                    s = self.shared
                    s["v"] = s["v"] * 2
            """
        )
    )
    # alone, model.py has no calendar root
    assert lint_race_source((tmp_path / "model.py").read_text()) == []
    fs = lint_race_paths([tmp_path])
    assert [(Path(f.path).name, f.rule) for f in fs] == [("model.py", "tie-order-rmw")]


MAX_UPDATE = """
    class Op:
        def _start(self, _v):
            self._sleep(0.1, self._grow)

        def _grow(self, _v):
            inode = self.inode
            inode.size = {update}
            if {gate}:
                self.big = True
"""


def test_max_self_update_is_exempt():
    # max/min of the path and another value commutes across tie order
    for update in ("max(inode.size, self.end)", "min(self.end, inode.size)"):
        assert findings(MAX_UPDATE.format(update=update, gate="self.end > 4096")) == []


def test_max_self_update_flagged_when_branch_observed():
    fs = findings(
        MAX_UPDATE.format(update="max(inode.size, self.end)", gate="inode.size > 4096")
    )
    assert "tie-order-rmw" in rules_of(fs)


def test_max_reading_path_twice_is_flagged():
    fs = findings(
        MAX_UPDATE.format(update="max(inode.size, inode.size * 2)", gate="self.end > 4096")
    )
    assert "tie-order-rmw" in rules_of(fs)


def test_pragma_suppresses():
    fs = findings(
        """
        def wire(ev_a, ev_b, state):
            def on_a(ev):
                state["value"] = state["value"] * 2  # simlint: ignore[tie-order-rmw]

            def on_b(ev):
                state["value"] = state["value"] + 3  # simlint: ignore[tie-order-rmw]

            ev_a.callbacks.append(on_a)
            ev_b.callbacks.append(on_b)
        """
    )
    assert fs == []


def test_unordered_callback_iter_fires():
    fs = findings(
        """
        def wire(ev, state):
            waiters = set()

            def on_done(e):
                for w in waiters:
                    w.succeed(None)

            ev.callbacks.append(on_done)
        """
    )
    assert "unordered-callback-iter" in rules_of(fs)


def test_seq_dependent_branch_fires():
    fs = findings(
        """
        def wire(ev, other):
            def on_done(e):
                if e._seq < other._seq:
                    return "first"
                return "second"

            ev.callbacks.append(on_done)
        """
    )
    assert "seq-dependent-branch" in rules_of(fs)


def test_tree_is_race_clean():
    # the repo's own simulation code carries no unsuppressed findings
    assert lint_race_paths(["src"]) == []


# ---------------------------------------------------------------------------
# layer 2: runtime probe + minimizer on the synthetic known race
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
# layer 3: quick differential matrix over BT-IO
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
