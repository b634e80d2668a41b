"""Runtime sim-sanitizer: invariant checks over a live simulation.

simlint (the static half of :mod:`repro.analysis`) catches the
*sources* of nondeterminism and leaks; this module catches the
*symptoms* at runtime.  A :class:`SimSanitizer` attaches to a built
:class:`~repro.clusters.builder.System` and verifies, while the
simulation runs and at teardown:

* **event-time monotonicity** — no event is *scheduled* before the
  current clock or at a NaN time (checked at insert: every calendar
  entry, whether from ``Timeout``/``Wake``/``Initialize``
  construction, ``succeed``/``fail`` triggering or a flat state
  machine's direct entry, funnels through ``Environment._push``, which
  the sanitizer interposes) and the calendar never pops one scheduled
  before the clock;
* **deterministic tie-breaking** — heap pop keys ``(time, priority,
  seq)`` strictly increase whenever no new event was scheduled since
  the previous pop (a callback may legitimately insert an
  earlier-sorting same-timestamp event); a non-increasing key with an
  untouched calendar means the heap order itself is corrupt, i.e.
  same-timestamp events no longer fire in schedule order;
* **utilization ∈ [0, 1]** — no disk head or network link accrues
  more busy seconds than elapsed simulated seconds (over-accounting
  would fabricate bottlenecks in the evaluation verdicts);
* **byte conservation across the I/O path** — bytes the MPI-IO layer
  reports equal bytes entering the filesystem boundary (NFS mounts +
  compute-local filesystems), corrected for two known, explicitly
  accounted re-shapings: collective file domains cover only the union
  of the requests (overlap gap) and data sieving over-fetches;
* **resource-leak detection** — once the calendar is empty at run
  end, no disk head, link channel, NFS server thread or inode lock may
  still be held or queued.

Violations are *recorded* (and surfaced through the run report, see
:mod:`repro.obs.runreport`) rather than raised mid-run — except
resource misuse (double release / release-without-acquire, reported
by :mod:`repro.simengine.resources`), which raises
:class:`SanitizerError` at the offending call.

Enable with ``REPRO_SANITIZE=1`` or ``repro evaluate --sanitize``.
Disabled (the default), the only residual cost is a ``None``-check on
``env.sanitizer`` at the accounting hooks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..simengine.core import Environment, SimulationError

__all__ = [
    "SanitizerError",
    "Violation",
    "SimSanitizer",
    "sanitize_enabled",
]

#: checks a sanitized run performs, in report order
CHECKS: tuple[str, ...] = (
    "monotonicity",
    "tie-break",
    "utilization",
    "conservation",
    "leak",
    "resource",
)

#: slack for utilization float comparisons (busy times are sums of
#: many float durations; conservation uses exact integers instead)
_REL_EPS = 1e-9
_ABS_EPS = 1e-9


def sanitize_enabled() -> bool:
    """Is sanitize mode requested via ``REPRO_SANITIZE``?"""
    return os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "yes", "on")


class SanitizerError(SimulationError):
    """A sanitizer invariant was violated at the offending call site."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    check: str
    message: str
    t_s: float

    def as_dict(self) -> dict[str, Any]:
        return {"check": self.check, "message": self.message, "t_s": self.t_s}

    def render(self) -> str:
        return f"[{self.check}] t={self.t_s:.6f}s: {self.message}"


def _zero_ledger() -> dict[str, int]:
    return {"write": 0, "read": 0}


class SimSanitizer:
    """Invariant checker attached to one system's environment.

    Usage::

        sanitizer = SimSanitizer(system)
        sanitizer.attach()
        ... run the workload ...
        report = sanitizer.finish()   # runs end-of-run checks
        sanitizer.detach()

    The instrumented layers (:mod:`repro.simengine.resources`,
    :mod:`repro.mpi.io`, :mod:`repro.storage`) find the active
    sanitizer through ``env.sanitizer`` (``None`` when detached) so
    they carry no dependency on this package.
    """

    def __init__(self, system: Any):
        self.system = system
        self.env: Environment = system.env
        self.violations: list[Violation] = []
        self.events_checked = 0
        self.events_scheduled = 0
        self._attached = False
        self._last_key: Optional[tuple[float, int, int]] = None
        self._last_seq: Optional[int] = None
        # byte-conservation ledgers (exact integers, per op)
        self.iolib_bytes = _zero_ledger()
        self.fs_bytes = _zero_ledger()
        self.gap_bytes = _zero_ledger()
        self.overfetch_bytes = _zero_ledger()
        # fault-mode overhead ledgers: RAID rebuild traffic and RPC
        # retransmits never pass the MPI-IO boundary, so they live
        # outside the conservation identity — tracked separately for
        # the degraded-mode report rather than folded into fs_bytes
        # (which would fabricate conservation violations under faults)
        self.rebuild_bytes = _zero_ledger()
        self.retransmit_bytes = 0
        #: id() of every filesystem object forming the MPI-IO boundary:
        #: compute-node NFS mounts and local filesystems.  The server
        #: export is *behind* the mounts (its traffic would double
        #: count) and MPI ranks are placed on compute nodes only.
        self._boundary = frozenset(
            [id(m) for m in system.nfs_mounts.values()]
            + [id(l) for l in system.local_fs.values()]
        )
        self._t0 = 0.0
        self._busy0: dict[str, float] = {}

    # -- attach / detach ---------------------------------------------------
    def attach(self) -> "SimSanitizer":
        """Install the step/push interceptors and the hook handle.

        Chains through any instance-level ``step``/``_push``
        already installed on the environment (e.g. a
        :class:`~repro.simengine.schedule.TieGroupRecorder` or
        :class:`~repro.simengine.schedule.Perturber` installed at
        creation through :func:`~repro.simengine.schedule.capture`), so
        instrumentation layers compose instead of silently disabling
        each other.
        """
        env = self.env
        if getattr(env, "sanitizer", None) is not None:
            raise SanitizerError("a sanitizer is already attached to this environment")
        self._prev_overrides = {
            attr: env.__dict__.get(attr) for attr in ("step", "_push")
        }
        prev_push = self._prev_overrides["_push"]
        self._push_down = prev_push or (
            lambda when, priority, event: Environment._push(env, when, priority, event)
        )
        prev_step = self._prev_overrides["step"]
        self._step_down = prev_step or (lambda: Environment.step(env))
        env.sanitizer = self
        env.step = self._checked_step  # type: ignore[method-assign]
        # the single scheduling funnel: interposing here observes every
        # calendar insert
        env._push = self._checked_push  # type: ignore[method-assign]
        self._attached = True
        self._rebaseline()
        return self

    def detach(self) -> None:
        """Remove every interceptor, returning the environment to the
        state it was in before :meth:`attach` (previously chained
        instance overrides are restored, not dropped)."""
        self.env.__dict__.pop("sanitizer", None)
        prev = getattr(self, "_prev_overrides", None) or {}
        for attr in ("step", "_push"):
            restored = prev.get(attr)
            if restored is not None:
                self.env.__dict__[attr] = restored
            else:
                self.env.__dict__.pop(attr, None)
        self._attached = False

    def _rebaseline(self) -> None:
        self._t0 = self.env.now
        self._last_key = None
        self._last_seq = None
        self._busy0 = {name: c.busy_s for name, _kind, c, _res in self.system.hardware()}
        for ledger in (
            self.iolib_bytes,
            self.fs_bytes,
            self.gap_bytes,
            self.overfetch_bytes,
            self.rebuild_bytes,
        ):
            ledger["write"] = ledger["read"] = 0
        self.retransmit_bytes = 0

    # -- calendar interception ---------------------------------------------
    def _checked_push(self, when: float, priority: int, event: Any) -> None:
        env = self.env
        if not when >= env._now:  # also NaN
            self._record(
                "monotonicity",
                f"{event!r} scheduled at t={when!r}, before the clock "
                f"reached t={env._now!r}",
            )
        self.events_scheduled += 1
        self._push_down(when, priority, event)

    def _checked_step(self) -> None:
        env = self.env
        queue = env._queue
        if queue:
            head = queue[0]
            key = (head[0], head[1], head[2])
            if not key[0] >= env._now:  # also NaN
                self._record(
                    "monotonicity",
                    f"event at t={key[0]!r} popped after the clock reached "
                    f"t={env._now!r}",
                )
            elif (
                self._last_key is not None
                and env._seq == self._last_seq
                and key <= self._last_key
            ):
                # nothing was scheduled since the previous pop, so this
                # head already sat in the heap then and must sort after it
                self._record(
                    "tie-break",
                    f"pop key {key!r} does not strictly follow {self._last_key!r}"
                    " — same-timestamp events are firing out of schedule order",
                )
            self._last_key = key
            # snapshot BEFORE executing the event: its callback's own
            # pushes must disarm the gate for the next pop
            self._last_seq = env._seq
            self.events_checked += 1
        self._step_down()

    # -- hooks called by instrumented layers --------------------------------
    def resource_misuse(self, message: str) -> None:
        """Record a resource-protocol violation and raise at the call.

        Called by :meth:`repro.simengine.resources.Resource.release` on
        double release / release-without-acquire.
        """
        self._record("resource", message)
        raise SanitizerError(message)

    def account_iolib(self, op: str, nbytes: int) -> None:
        """Bytes one MPI-IO operation reported (traced) at the library."""
        self.iolib_bytes[op] += nbytes

    def account_fs(self, fs: Any, op: str, nbytes: int) -> None:
        """Bytes entering a filesystem object via the MPI-IO access
        paths (``submit_direct`` / ``absorb``); only boundary
        filesystems count (see ``_boundary``)."""
        if id(fs) in self._boundary:
            self.fs_bytes[op] += nbytes

    def note_gap(self, op: str, nbytes: int) -> None:
        """Overlap gap of one collective call: requested bytes minus the
        union the aggregator file domains actually cover."""
        self.gap_bytes[op] += nbytes

    def note_overfetch(self, op: str, nbytes: int) -> None:
        """Extra bytes a data-sieving plan fetches beyond the request."""
        self.overfetch_bytes[op] += nbytes

    def note_rebuild(self, read_bytes: int, written_bytes: int) -> None:
        """RAID rebuild traffic (reconstruction reads + spare writes).

        Accounted as overhead: it competes with foreground I/O for the
        array but originates below the filesystem boundary, so it never
        enters the conservation identity.
        """
        self.rebuild_bytes["read"] += read_bytes
        self.rebuild_bytes["write"] += written_bytes

    def note_retransmit(self, nbytes: int) -> None:
        """Wire bytes of re-sent RPC requests against a stalled server.

        Duplicate requests carry no new payload past the filesystem
        boundary — overhead, not a conservation violation.
        """
        self.retransmit_bytes += nbytes

    # -- checks -------------------------------------------------------------
    def _record(self, check: str, message: str) -> None:
        self.violations.append(Violation(check, message, self.env.now))

    def _resource_walk(self) -> Iterator[tuple[str, Any]]:
        """Every leak-checkable resource, deterministically ordered."""
        system = self.system
        for name, kind, _counters, resource in system.hardware():
            yield (f"{name}.head" if kind == "disk" else name), resource
        yield f"{system.nfs_server.name}.threads", system.nfs_server.threads
        for fs in [system.export] + [
            system.local_fs[n] for n in sorted(system.local_fs)
        ]:
            for fileid in sorted(fs._inode_locks):
                yield f"{fs.name}.ilock{fileid}", fs._inode_locks[fileid]

    def check_leaks(self) -> None:
        """Flag held or queued slots once the calendar is drained.

        Only meaningful on an empty calendar: an in-flight background
        flusher legitimately holds a disk head mid-run.
        """
        if self.env._queue:
            return
        for name, resource in self._resource_walk():
            if resource.users:
                self._record(
                    "leak",
                    f"{name}: {len(resource.users)} slot(s) still held at "
                    "finish with an empty calendar",
                )
            if resource.queue:
                self._record(
                    "leak",
                    f"{name}: {len(resource.queue)} request(s) still queued "
                    "at finish with an empty calendar",
                )

    def check_utilization(self) -> None:
        """No resource may be busier than the elapsed interval.

        Busy time is charged at hold *start*, so a resource whose hold
        is still in flight can legitimately exceed the interval — those
        (current holders) are skipped.
        """
        interval = self.env.now - self._t0
        limit = interval * (1.0 + _REL_EPS) + _ABS_EPS
        for name, _kind, counters, resource in self.system.hardware():
            if resource.users:
                continue
            delta = counters.busy_s - self._busy0.get(name, 0.0)
            if delta > limit:
                self._record(
                    "utilization",
                    f"{name}: {delta:.9f}s busy within a {interval:.9f}s "
                    "interval (utilization > 1)",
                )

    def check_conservation(self) -> None:
        """Bytes leaving MPI-IO must arrive at the filesystem boundary.

        Exactly (integer bytes, per op)::

            fs == iolib - collective_overlap_gap + sieving_overfetch
        """
        for op in ("write", "read"):
            expected = (
                self.iolib_bytes[op] - self.gap_bytes[op] + self.overfetch_bytes[op]
            )
            if self.fs_bytes[op] != expected:
                self._record(
                    "conservation",
                    f"{op}: filesystem boundary saw {self.fs_bytes[op]} B but "
                    f"MPI-IO submitted {self.iolib_bytes[op]} B "
                    f"(- {self.gap_bytes[op]} B collective overlap "
                    f"+ {self.overfetch_bytes[op]} B sieving overfetch "
                    f"= {expected} B expected)",
                )

    # -- reporting ----------------------------------------------------------
    def finish(self) -> dict[str, Any]:
        """Run the end-of-run checks and return the report dict."""
        self.check_leaks()
        self.check_utilization()
        self.check_conservation()
        return self.report()

    def report(self) -> dict[str, Any]:
        """JSON-safe summary (embedded in the obs run report)."""
        return {
            "enabled": True,
            "checks": list(CHECKS),
            "events_checked": self.events_checked,
            "events_scheduled": self.events_scheduled,
            "violations": [v.as_dict() for v in self.violations],
            "counters": {
                "iolib_bytes": dict(self.iolib_bytes),
                "fs_bytes": dict(self.fs_bytes),
                "gap_bytes": dict(self.gap_bytes),
                "overfetch_bytes": dict(self.overfetch_bytes),
                "rebuild_bytes": dict(self.rebuild_bytes),
                "retransmit_bytes": self.retransmit_bytes,
            },
        }

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.clean:
            return (
                f"sanitizer: clean ({self.events_checked} events checked, "
                "0 violations)"
            )
        lines = [
            f"sanitizer: {len(self.violations)} violation(s) over "
            f"{self.events_checked} events:"
        ]
        lines.extend("  " + v.render() for v in self.violations)
        return "\n".join(lines)
