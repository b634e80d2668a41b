"""Phase-aware replay acceleration for the evaluation phase.

The paper's key observation (§III-A2) is that scientific applications
are *repetitive*: "m phases will exist in the application", each phase
a pattern repeated many times with an identical signature.  Full
evaluation therefore re-simulates the same I/O phase occurrence after
occurrence — BT-IO class C issues the same collective write 40 times,
MADbench2 the same 162 MB read/write 8 times per function.

:class:`PhaseReplayAccelerator` exploits that repetition *online*
while the application model runs.  Three callers ask it before every
repeated step — independent and collective MPI-IO
(:mod:`repro.mpi.io`) and :meth:`~repro.mpi.sim.RankContext.replay_region`
— each naming the step's phase *key*, the *group* of sibling phases on
other ranks, and the *scope* of groups that contend on the same
resources.  A key — the event signature used by
:class:`~repro.tracing.phases.PhaseDetector` plus the rank's barrier
epoch, so MADbench2's S-writes and W-writes stay separate phases
exactly like the paper's S_w/W_w columns — goes through three states:

1. **warm-up** — the first occurrences run through the full DES
   (cache warm-up, allocation, contention all simulated);
2. **verified** — once at least :data:`WARMUP` occurrences ran *and*
   :data:`CONFIRM` consecutive pairs agree within :data:`REL_TOL`, the
   phase is steady: its per-occurrence cost is known;
3. **extrapolated** — remaining occurrences are closed analytically:
   the caller charges the steady duration with a single calendar
   entry and applies the state side effects (file growth, cache
   residency) without simulating the transfer.

Extrapolation is decided per group *round* and frozen, so sibling
ranks take the same action for the same occurrence, and one round in
every :data:`RECHECK` is simulated to revalidate.  Phases whose
occurrences keep disagreeing past :data:`MAX_WARMUP` (contention
drift, throttling oscillation), or drift at a revalidation, fall back
to full replay — correctness degrades to speed, never the other way
around.

The one switch is ``enabled``: ``System.phase_fastpath`` on a built
system, ``phase_fastpath=False`` on
:meth:`~repro.core.methodology.Methodology.evaluate`,
``--no-phase-fastpath`` on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ReplayStats",
    "PhaseReplayAccelerator",
]

#: minimum fully simulated occurrences per phase (the paper's K)
WARMUP = 2
#: keep simulating past ``WARMUP`` until the phase verifies, up to this
#: many occurrences; then give up on the phase
MAX_WARMUP = 8
#: consecutive agreeing occurrence *pairs* required before the phase
#: counts as steady — one lucky pair early in a drifting phase (cache
#: still filling, flusher ramping) must not lock in a wrong steady value
CONFIRM = 2
#: simulate one round after this many extrapolated ones and verify it
#: still agrees with the steady value; on disagreement the phase's
#: group falls back to full replay
RECHECK = 8
#: relative tolerance for "two occurrences agree".  Occurrence timings
#: of a steady phase are not bit-identical in a contended DES —
#: background flusher scheduling and network slot alignment wobble
#: them at the sub-percent level — so the tolerance admits that
#: wobble; the locked steady value is the *mean* of the verification
#: window, cancelling it.
REL_TOL = 0.02


@dataclass
class ReplayStats:
    """What the accelerator did during one application run."""

    simulated: int = 0  # occurrences run through the full DES
    extrapolated: int = 0  # occurrences closed analytically
    fallback_phases: int = 0  # phases that never went steady
    phases: int = 0  # distinct phase keys seen
    #: simulated seconds spent inside fully simulated occurrences
    simulated_sim_s: float = 0.0
    #: simulated seconds charged analytically for extrapolated ones —
    #: the time the DES did *not* have to step through event by event
    extrapolated_sim_s: float = 0.0

    @property
    def total(self) -> int:
        return self.simulated + self.extrapolated

    @property
    def extrapolated_fraction(self) -> float:
        return self.extrapolated / self.total if self.total else 0.0

    def estimated_saved_wall_s(self, wall_s: float) -> float:
        """Estimated wall-clock seconds extrapolation saved a run that
        took ``wall_s`` to execute.

        Scales the run's measured cost per *simulated* second of
        fully simulated phase time onto the extrapolated phase time —
        an estimate (extrapolated occurrences still pay bookkeeping,
        and non-phase time is attributed pro rata), not a measurement.
        """
        if wall_s <= 0 or self.simulated_sim_s <= 0 or self.extrapolated_sim_s <= 0:
            return 0.0
        return wall_s * self.extrapolated_sim_s / self.simulated_sim_s

    def as_dict(self) -> dict:
        return {
            "phases": self.phases,
            "simulated": self.simulated,
            "extrapolated": self.extrapolated,
            "fallback_phases": self.fallback_phases,
            "extrapolated_fraction": round(self.extrapolated_fraction, 4),
            "simulated_sim_s": round(self.simulated_sim_s, 6),
            "extrapolated_sim_s": round(self.extrapolated_sim_s, 6),
        }


class _PhaseState:
    """Per-phase-key state machine: warm-up -> verified | fallback."""

    __slots__ = (
        "last",
        "prev",
        "seen",
        "steady",
        "disabled",
        "streak",
        "occ",
        "window",
    )

    def __init__(self):
        self.last: Optional[float] = None
        self.prev: Optional[float] = None
        self.seen = 0
        self.steady: Optional[float] = None
        self.disabled = False
        #: consecutive agreeing occurrence pairs so far
        self.streak = 0
        #: total occurrences of this key (simulated + extrapolated) —
        #: the member's *round* index inside its group
        self.occ = 0
        #: the last few simulated durations — the verification window
        #: whose mean becomes the steady value
        self.window: list = []


class _GroupState:
    """Shared state of sibling phases (same pattern, different ranks).

    Ranks execute the occurrences of one application phase
    concurrently, so each rank's steady duration embeds the mutual
    contention.  Extrapolating one rank's occurrences while a sibling
    still simulates would remove that rank's load from the sibling's
    run — the sibling would observe durations full replay never
    produces.  Worse, for rendezvous regions (boundary exchanges) a
    rank that extrapolates never sends, so a sibling that simulates
    deadlocks on the matching receive.

    The group therefore decides extrapolation *per round*: the first
    member to reach occurrence round ``r`` freezes the verdict in
    ``decisions[r]`` — extrapolate only when every member of every
    group in the same *scope* is steady — and every member follows the
    frozen verdict for its own round ``r`` even if the group is
    poisoned meanwhile.  Revalidation is a whole round decided to
    simulate; a member whose revalidation occurrence disagrees falls
    back and poisons the group for all future rounds.
    """

    __slots__ = ("members", "rounds_extrapolated", "decisions")

    def __init__(self):
        # insertion-ordered dict used as an ordered set: membership is
        # iterated when deciding rounds, and that decision order must
        # not depend on tuple hashing
        self.members: dict = {}
        #: extrapolated rounds since the last synchronized revalidation
        self.rounds_extrapolated = 0
        #: frozen per-round verdicts: round index -> extrapolate?
        self.decisions: dict = {}


class PhaseReplayAccelerator:
    """Online per-phase occurrence verifier and extrapolator.

    One accelerator serves one application run (one
    :class:`~repro.mpi.sim.MPIWorld`); state never leaks across runs.
    Keys, groups and scopes are opaque hashable tuples built by the
    callers from the :meth:`~repro.tracing.events.IOEvent.signature`
    geometry plus the rank's barrier epoch.  With ``enabled=False``
    every occurrence is simulated (full replay) and only counted.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._phases: dict[tuple, _PhaseState] = {}
        self._groups: dict[tuple, _GroupState] = {}
        #: scope key -> groups whose phases run concurrently (same
        #: barrier epoch, same contended resources).  A group may only
        #: extrapolate while every group in its scope is fully steady:
        #: MADbench2's W function interleaves reads and writes — if the
        #: write group extrapolated while the read group still
        #: simulated, the simulated reads would run without the
        #: concurrent write load full replay has.
        self._scopes: dict[tuple, dict] = {}
        self.stats = ReplayStats()

    # ------------------------------------------------------------------
    def steady(self, key: tuple, group: tuple, scope: tuple) -> Optional[float]:
        """The steady per-occurrence duration, or ``None`` while the
        phase still needs full simulation.  Counts the occurrence.

        ``group`` ties sibling phases of concurrent ranks together:
        extrapolation is decided per occurrence *round* and frozen, so
        every member takes the same action for the same round (see
        :class:`_GroupState`).  ``scope`` ties *groups* whose phases
        contend on the same resources: no group in a scope
        extrapolates while any of them is unsteady.
        """
        if not self.enabled:
            return None
        st = self._phases.get(key)
        if st is None:
            return None
        g = self._groups.get(group)
        if g is None:
            return None
        r = st.occ
        d = g.decisions.get(r)
        if d is None:
            d = self._decide(g, scope)
            g.decisions[r] = d
            if len(g.decisions) > 256:
                # what is kept depends only on the newest round r, not
                # on which member decided it
                g.decisions = {
                    i: v for i, v in g.decisions.items() if i >= r - 128
                }
        if not d:
            return None
        # honour the frozen verdict even if the member lost its steady
        # value since the round was decided (a sibling's revalidation
        # poisoned the group): breaking the round here would desync the
        # members — for rendezvous regions, a deadlock.  ``last`` is the
        # member's most recent fully simulated duration.
        val = st.steady if st.steady is not None else st.last
        if val is None:  # pragma: no cover - members always simulated once
            return None
        # a phase key names one rank's (or one collective call site's)
        # occurrences, which run one after another: no two same-time
        # callbacks advance one phase's state
        st.occ += 1
        self.stats.extrapolated += 1
        self.stats.extrapolated_sim_s += val
        return val

    def _decide(self, g: _GroupState, scope: tuple) -> bool:
        """Freeze the extrapolate-or-simulate verdict for a new round."""
        peers = [self._groups[gk] for gk in self._scopes.get(scope, ())]
        if g not in peers:
            peers.append(g)
        # a member that fell back never has a steady value again, so it
        # keeps its group — and every group of its scope — simulating.
        # (observe() creates a group together with its first member.)
        for p in peers:
            if any(self._phases[k].steady is None for k in p.members):
                return False
        if g.rounds_extrapolated >= RECHECK:
            g.rounds_extrapolated = 0
            return False
        # only the member that freezes a round's verdict gets here
        g.rounds_extrapolated += 1
        return True

    def observe(self, key: tuple, duration: float, group: tuple, scope: tuple) -> None:
        """Record a fully simulated occurrence's duration and advance
        the phase's state machine."""
        g = self._groups.get(group)
        if g is None:
            g = self._groups[group] = _GroupState()
        g.members[key] = None
        self._scopes.setdefault(scope, {})[group] = None
        st = self._phases.get(key)
        if st is None:
            st = self._phases[key] = _PhaseState()
            self.stats.phases += 1
        self.stats.simulated += 1
        self.stats.simulated_sim_s += duration
        st.prev, st.last = st.last, duration
        # one phase's occurrences run one after another (see steady())
        st.seen += 1
        st.occ += 1
        if not self.enabled or st.disabled:
            return
        st.window.append(duration)
        if len(st.window) > CONFIRM + 1:
            del st.window[0]
        if st.steady is not None:
            # a revalidation occurrence: the phase stays steady only
            # while real occurrences keep agreeing with the locked
            # value — a drifted phase falls back permanently and
            # poisons its group
            if not self._agree(st.steady, duration):
                st.steady = None
                st.disabled = True
                self.stats.fallback_phases += 1
            return
        if st.seen >= WARMUP and st.prev is not None:
            if self._agree(st.prev, st.last):
                # one phase's state, like st.seen above
                st.streak += 1
                if st.streak >= CONFIRM:
                    # lock the mean of the verified window: occurrence
                    # wobble (flusher/slot alignment) cancels, so the
                    # extrapolated total tracks full replay closer than
                    # any single occurrence would
                    st.steady = sum(st.window) / len(st.window)
                return
            st.streak = 0
            if st.seen >= MAX_WARMUP:
                # a sibling that cannot verify poisons the group:
                # extrapolating around it would strip its load from
                # the simulated occurrences it still runs
                st.disabled = True
                self.stats.fallback_phases += 1

    @staticmethod
    def _agree(a: float, b: float) -> bool:
        if a == b:
            return True
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))

    # ------------------------------------------------------------------
    def observability(self) -> dict:
        """The replay section of a run report: aggregate stats, the
        switch and verification tolerance in force, and a JSON-safe
        per-phase breakdown of fully replayed vs extrapolated
        occurrences."""
        detail = [
            {
                "key": repr(key),
                "simulated": st.seen,
                "extrapolated": st.occ - st.seen,
                "steady_s": st.steady,
                "fallback": st.disabled,
            }
            for key, st in self._phases.items()
        ]
        return {
            **self.stats.as_dict(),
            "enabled": self.enabled,
            "rel_tol": REL_TOL,
            "phases_fully_simulated": sum(
                1 for p in detail if p["extrapolated"] == 0
            ),
            "phases_extrapolated": sum(1 for p in detail if p["extrapolated"] > 0),
            "phase_detail": detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"<PhaseReplayAccelerator phases={s.phases} simulated={s.simulated}"
            f" extrapolated={s.extrapolated}>"
        )
