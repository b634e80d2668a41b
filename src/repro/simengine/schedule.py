"""Schedule perturbation probes: find order-sensitive tie-breaks.

The calendar orders events by ``(when, priority, seq)``; ``seq`` is the
insertion counter, so events scheduled for the same instant at the same
priority fire in *push order*.  That order is an implementation
accident, not a modelled quantity — correct simulation results must not
depend on it.  This module makes the accident adjustable so the race
detector (:mod:`repro.analysis.simrace`) can prove, run by run, that
results are invariant under every admissible tie-break order:

* :class:`TieGroupRecorder` — interposes ``Environment._push`` and
  ``step`` on every environment created while attached, recording for
  each ``(env, when, priority)`` key which *pop execution* pushed each
  entry.  Keys fed from two or more distinct executions are **tie
  groups**: their blocks are genuinely concurrent (no program order
  relates them) and may legally fire in any block order.
* :class:`Perturber` — replays a run with chosen block orders by
  rewriting the heap tie-break from ``seq`` to ``(rank, seq)``.
  Pushes from one execution keep their relative (program) order;
  only inter-block order changes, which is exactly the freedom a
  conforming scheduler has.
* :class:`PopRecorder` — captures the pop stream of a run so two runs
  can be diffed down to the first divergent event.
* :func:`capture` — installs any of the above on every
  :class:`~repro.simengine.core.Environment` built inside the ``with``
  block, via ``Environment._init_hooks``.

Plans are deterministic: reversal needs no randomness and shuffles draw
from a named :class:`~repro.simengine.rng.RngRegistry` stream, so a
divergence found under ``seed=7`` is reproducible forever.
"""

from __future__ import annotations

import contextlib
import heapq
from types import MethodType
from typing import Any, Callable, Iterable, Iterator, Optional

from .core import Environment
from .rng import RngRegistry

__all__ = [
    "TieGroupRecorder",
    "Perturber",
    "PopRecorder",
    "capture",
    "block_plan",
    "reverse_plans",
    "shuffle_plans",
    "minimize_flips",
]

#: a tie-group key: (environment index, event time, priority)
Key = tuple[int, float, int]


class TieGroupRecorder:
    """Records, per ``(env, when, priority)`` key, the pushing execution
    id of every calendar insert.

    An *execution* is one event pop plus the callback cascade it runs;
    all pushes it performs are program-ordered and form one *block*.
    A key whose pushes came from two or more executions is a tie group:
    the kernel broke the tie by insertion order, but no causal order
    exists between the blocks.
    """

    def __init__(self) -> None:
        #: key -> execution id of each push, in push order
        self.execs: dict[Key, list[int]] = {}
        self._env_idx = -1

    def attach(self, env: Environment) -> None:
        self._env_idx += 1
        idx = self._env_idx
        execs = self.execs
        # executions count from 1; id 0 is "before the first pop"
        # (process start-up scheduling done outside any event callback)
        state = {"exec": 0}

        def push(when: float, priority: int, event: Any, _env: Environment = env) -> None:
            key = (idx, when, priority)
            lst = execs.get(key)
            if lst is None:
                execs[key] = [state["exec"]]
            else:
                lst.append(state["exec"])
            _env._seq += 1
            heapq.heappush(_env._queue, (when, priority, _env._seq, event))

        def step(_env: Environment = env) -> None:
            state["exec"] += 1
            Environment.step(_env)

        env._push = push  # type: ignore[method-assign]
        env.step = step  # type: ignore[method-assign]

    def groups(self) -> dict[Key, list[int]]:
        """The tie groups: keys pushed from >= 2 distinct executions."""
        out: dict[Key, list[int]] = {}
        for key, eids in self.execs.items():
            if len(eids) >= 2 and len(set(eids)) >= 2:
                out[key] = eids
        return out


def block_plan(eids: list[int], block_perm: Iterable[int]) -> tuple[int, ...]:
    """An occurrence->rank plan from a permutation of block indices.

    ``eids`` is a key's push-ordered execution-id list; blocks are the
    distinct ids in first-seen order.  The returned tuple maps the i-th
    push to its rank under the new order: blocks laid out in
    ``block_perm`` order, pushes inside a block keeping their relative
    (program) order.
    """
    order: list[int] = []
    seen: dict[int, int] = {}
    for e in eids:
        if e not in seen:
            seen[e] = len(order)
            order.append(e)
    by_block: dict[int, list[int]] = {b: [] for b in range(len(order))}
    for i, e in enumerate(eids):
        by_block[seen[e]].append(i)
    rank = [0] * len(eids)
    pos = 0
    for b in block_perm:
        for i in by_block[b]:
            rank[i] = pos
            pos += 1
    return tuple(rank)


def reverse_plans(groups: dict[Key, list[int]]) -> dict[Key, tuple[int, ...]]:
    """Plans firing every tie group's blocks in reverse push order —
    the single most adversarial deterministic perturbation."""
    plans = {}
    for key, eids in groups.items():
        nb = len(set(eids))
        plans[key] = block_plan(eids, range(nb - 1, -1, -1))
    return plans


def shuffle_plans(groups: dict[Key, list[int]], seed: int) -> dict[Key, tuple[int, ...]]:
    """Plans permuting every group's blocks by a seeded draw.

    Draws come from one :class:`RngRegistry` stream keyed by the seed,
    iterating groups in sorted key order, so a plan is a pure function
    of ``(groups, seed)`` and any divergence it exposes replays."""
    rng = RngRegistry(seed=seed).stream("simrace.perturb")
    plans = {}
    for key in sorted(groups):
        eids = groups[key]
        nb = len(set(eids))
        perm = rng.permutation(nb)
        plans[key] = block_plan(eids, (int(b) for b in perm))
    return plans


class Perturber:
    """Replays a run under chosen tie-break plans.

    For each ``(env, when, priority)`` key with a plan, the i-th push
    gets heap tie-break ``(plan[i], seq)`` instead of ``seq``; pushes
    beyond the recorded length, and keys with no plan, keep their
    arrival rank (identity).  Every entry pushed while attached gets a
    tuple tie-break so heap comparisons stay type-consistent.
    """

    def __init__(self, plans: dict[Key, tuple[int, ...]]):
        self.plans = plans
        self._counts: dict[Key, int] = {}
        self._env_idx = -1

    def attach(self, env: Environment) -> None:
        self._env_idx += 1
        idx = self._env_idx
        counts = self._counts
        plans = self.plans

        def push(when: float, priority: int, event: Any, _env: Environment = env) -> None:
            key = (idx, when, priority)
            occ = counts.get(key, 0)
            counts[key] = occ + 1
            plan = plans.get(key)
            rank = plan[occ] if plan is not None and occ < len(plan) else occ
            _env._seq += 1
            heapq.heappush(_env._queue, (when, priority, (rank, _env._seq), event))

        env._push = push  # type: ignore[method-assign]


class PopRecorder(Perturber):
    """A :class:`Perturber` that also records the pop stream.

    Each pop appends ``(env_idx, when, priority, name)`` to
    :attr:`pops`, where ``name`` is the event's type name or, for a
    direct entry, the method's qualified name (e.g.
    ``_FastSend._latency_done``); diffing two streams localizes the
    first entry whose firing position moved — the earliest observable
    effect of a flip.
    """

    def __init__(self, plans: Optional[dict[Key, tuple[int, ...]]] = None):
        super().__init__(plans or {})
        self.pops: list[tuple[int, float, int, str]] = []

    def attach(self, env: Environment) -> None:
        super().attach(env)
        idx = self._env_idx
        pops = self.pops

        def step(_env: Environment = env) -> None:
            if _env._queue:
                head = _env._queue[0]
                item = head[3]
                if type(item) is MethodType:
                    name = item.__qualname__
                else:
                    name = type(item).__name__
                pops.append((idx, head[0], head[1], name))
            Environment.step(_env)

        env.step = step  # type: ignore[method-assign]


@contextlib.contextmanager
def capture(hook: Any) -> Iterator[Any]:
    """Attach ``hook`` to every Environment created in this block."""
    attach = hook.attach
    Environment._init_hooks.append(attach)
    try:
        yield hook
    finally:
        Environment._init_hooks.remove(attach)


def minimize_flips(
    groups: list[Key],
    diverges: Callable[[list[Key]], bool],
    max_runs: int = 64,
) -> tuple[list[Key], int, bool]:
    """Reduce a diverging flip set to a small reproducing subset.

    ``diverges(subset)`` re-runs the scenario with only ``subset``
    reversed and reports whether the result still differs from the
    baseline.  Greedy ddmin-style reduction: try each half, then fall
    back to dropping quarters.  Returns ``(subset, runs_used,
    irreducible)`` where ``irreducible`` means no further single-chunk
    removal preserved the divergence (for a true two-party race the
    subset reaches a single group; interacting-contention conspiracies
    plateau larger and are reported as such).
    """
    cur = list(groups)
    runs = 0
    while len(cur) > 1 and runs < max_runs:
        half = len(cur) // 2
        a, b = cur[:half], cur[half:]
        runs += 1
        if diverges(a):
            cur = a
            continue
        if runs >= max_runs:
            break
        runs += 1
        if diverges(b):
            cur = b
            continue
        reduced = False
        quarter = max(1, len(cur) // 4)
        for i in range(0, len(cur), quarter):
            if runs >= max_runs:
                break
            cand = cur[:i] + cur[i + quarter:]
            if not cand:
                continue
            runs += 1
            if diverges(cand):
                cur = cand
                reduced = True
                break
        if not reduced:
            return cur, runs, True
    return cur, runs, len(cur) == 1
