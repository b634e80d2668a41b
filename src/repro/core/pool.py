"""The process pool: every fan-out in the repo runs here.

``Methodology.characterize``/``evaluate`` map their independent units
(one per (configuration, level), one per configuration) through
:func:`map_ordered`; ``repro sweep`` drives :class:`SweepRunner`
directly for open-ended config x workload x fault campaigns.  The
runner's design center is robustness:

* **dispatch** — the parent hands one task at a time to idle workers
  over per-worker pipes (work-stealing behaviour: a fast worker drains
  the queue while a slow one chews), so the parent always knows which
  worker owns which task — the precondition for targeted kills;
* **per-task wall-clock timeout** — a shard that exceeds its budget
  is SIGKILLed and the task rescheduled on a respawned worker;
* **seeded exponential backoff** — retry ``k`` of a task waits
  ``base * 2^(k-1) * (0.5 + u)`` seconds with ``u`` drawn from an RNG
  seeded by ``(seed, fingerprint, attempt)``: a deterministic retry
  *schedule* without synchronised stampedes.  Backoff only shapes
  wall time; results are pure functions of the task;
* **poison quarantine** — after ``max_attempts`` failures of any kind
  the task is handed to ``on_quarantine`` with its failure history and
  the sweep moves on;
* **graceful pool degradation** — worker loss (crash, OOM kill, stale
  heartbeat) consumes a respawn from a bounded budget; when the
  budget runs dry the pool *shrinks* instead of aborting, and only a
  pool that shrinks to zero with work remaining raises
  :class:`PoolExhaustedError` (the WAL makes that resumable);
* **heartbeat hang detection** — each worker runs a daemon thread
  stamping a shared timestamp slot; a worker that stops beating (D
  state, swap thrash, silent death) is treated as lost well before a
  long task timeout would fire.

Workers are daemonic and exit when the parent's pipe closes, so a
SIGKILLed orchestrator leaves no immortal orphans.  Deadlines,
heartbeats and backoff read the host wall clock (marked for simlint);
no result depends on it.  Callers import this module only when they
fan out, so ``import repro`` never loads :mod:`multiprocessing`.
"""

from __future__ import annotations

import heapq
import logging
import math
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Optional, Sequence

__all__ = ["TaskFailure", "RunnerStats", "PoolExhaustedError", "SweepRunner", "map_ordered"]

log = logging.getLogger(__name__)

#: seconds between heartbeat stamps inside a worker
HEARTBEAT_INTERVAL_S = 0.2
#: attempts per unit in :func:`map_ordered` before the parent recomputes it
MAP_MAX_ATTEMPTS = 2
#: backoff base (seconds) before a :func:`map_ordered` unit's retry
MAP_BACKOFF_S = 0.25


class PoolExhaustedError(RuntimeError):
    """Every worker died and the respawn budget is spent.

    The WAL already holds every completed task, so the remedy is
    ``repro sweep --resume RUNDIR`` once the host recovers.
    """


@dataclass
class TaskFailure:
    """One failed attempt at a task."""

    kind: str  # "error" | "timeout" | "crash" | "lost-heartbeat"
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class RunnerStats:
    completed: int = 0
    quarantined: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    lost_heartbeats: int = 0
    respawns: int = 0
    peak_workers: int = 0
    final_workers: int = 0
    failures: dict = field(default_factory=dict)  # fp -> [failure dicts]

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "lost_heartbeats": self.lost_heartbeats,
            "respawns": self.respawns,
            "peak_workers": self.peak_workers,
            "final_workers": self.final_workers,
        }


def backoff_s(seed: int, fp: str, attempt: int, base_s: float) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt``."""
    import hashlib
    import random

    digest = hashlib.sha256(f"{seed}:{fp}:{attempt}".encode()).digest()
    u = random.Random(digest).random()
    return base_s * (2.0 ** (attempt - 1)) * (0.5 + u)


def _worker_main(conn, hb_array, slot: int, worker_fn) -> None:
    """Worker loop: receive a task payload, reply with its outcome.

    A daemon heartbeat thread stamps ``hb_array[slot]`` even while the
    main thread is buried in a long simulation, so the parent can tell
    a *busy* worker from a *gone* one.  The same thread watches for
    orchestrator death: fork()ed siblings inherit each other's parent-
    side pipe ends, so a SIGKILLed orchestrator never delivers EOF to
    ``conn.recv()`` — the reparenting check is what actually guarantees
    "no immortal orphans".
    """
    import threading

    ppid = os.getppid()

    def beat() -> None:
        while True:
            if os.getppid() != ppid:
                os._exit(0)  # orchestrator is gone; don't linger
            hb_array[slot] = time.time()  # simlint: ignore[wall-clock]
            time.sleep(HEARTBEAT_INTERVAL_S)

    threading.Thread(target=beat, daemon=True, name="pool-heartbeat").start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone (or told us to stop): exit quietly
        if msg is None:
            return
        fp, payload = msg
        try:
            result = worker_fn(payload)
            reply = (fp, "ok", result)
        except BaseException:
            reply = (fp, "error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Worker:
    proc: Any
    conn: Any
    slot: int
    current: Optional[tuple[str, Any]] = None  # (fp, payload)
    started_at: float = 0.0


class SweepRunner:
    """Run ``(fp, payload)`` tasks through ``worker_fn`` robustly."""

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        n_jobs: int = 1,
        timeout_s: float = 300.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.5,
        seed: int = 0,
        heartbeat_timeout_s: float = 10.0,
        max_respawns: Optional[int] = None,
        on_result: Optional[Callable[[str, Any, Any], None]] = None,
        on_quarantine: Optional[Callable[[str, Any, list], None]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.worker_fn = worker_fn
        self.n_jobs = n_jobs
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.seed = seed
        self.heartbeat_timeout_s = max(
            heartbeat_timeout_s, 10 * HEARTBEAT_INTERVAL_S
        )
        self.max_respawns = (
            max_respawns if max_respawns is not None else max(8, 2 * n_jobs)
        )
        self.on_result = on_result
        self.on_quarantine = on_quarantine
        self.progress = progress or (lambda msg: None)

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[tuple[str, Any]]) -> RunnerStats:
        stats = RunnerStats()
        if not tasks:
            return stats
        pending: list[tuple[str, Any]] = list(tasks)
        pending.reverse()  # pop() serves the plan in order
        delayed: list[tuple[float, int, str, Any]] = []  # (ready_at, tie, ...)
        attempts: dict[str, int] = {}
        failures: dict[str, list[TaskFailure]] = {}
        outstanding = len(pending)
        tie = 0

        ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
        # lock=False: one writer per slot, and a locked Array would let
        # a SIGKILLed orchestrator die holding the semaphore — wedging
        # every worker's heartbeat (and orphan-detection) thread forever
        hb_array = ctx.Array("d", self.n_jobs, lock=False)
        workers: dict[int, _Worker] = {}
        respawns_left = self.max_respawns

        def spawn(slot: int) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, hb_array, slot, self.worker_fn),
                daemon=True,
                name=f"pool-worker-{slot}",
            )
            hb_array[slot] = time.time()  # simlint: ignore[wall-clock]
            proc.start()
            child_conn.close()
            workers[slot] = _Worker(proc=proc, conn=parent_conn, slot=slot)
            stats.peak_workers = max(stats.peak_workers, len(workers))

        def reap(w: _Worker, kill: bool) -> None:
            if kill and w.proc.is_alive():
                w.proc.kill()
            w.proc.join(timeout=5.0)
            try:
                w.conn.close()
            except OSError:
                pass
            workers.pop(w.slot, None)

        def respawn_or_shrink(slot: int) -> None:
            nonlocal respawns_left
            if respawns_left > 0:
                respawns_left -= 1
                stats.respawns += 1
                spawn(slot)
            elif workers:
                self.progress(
                    f"respawn budget exhausted; pool shrinks to "
                    f"{len(workers)} worker(s)"
                )
            # an empty pool with no budget raises in the main loop

        def record_failure(fp: str, payload: Any, failure: TaskFailure) -> None:
            nonlocal outstanding, tie
            attempts[fp] = attempts.get(fp, 0) + 1
            failures.setdefault(fp, []).append(failure)
            counter = {
                "timeout": "timeouts",
                "crash": "crashes",
                "lost-heartbeat": "lost_heartbeats",
            }.get(failure.kind)
            if counter:
                setattr(stats, counter, getattr(stats, counter) + 1)
            if attempts[fp] >= self.max_attempts:
                stats.quarantined += 1
                stats.failures[fp] = [f.as_dict() for f in failures[fp]]
                outstanding -= 1
                self.progress(
                    f"quarantined {fp} after {attempts[fp]} attempt(s) "
                    f"({failure.kind})"
                )
                if self.on_quarantine is not None:
                    self.on_quarantine(fp, payload, failures[fp])
            else:
                stats.retries += 1
                delay = backoff_s(self.seed, fp, attempts[fp], self.backoff_base_s)
                tie += 1
                heapq.heappush(delayed, (time.time() + delay, tie, fp, payload))  # simlint: ignore[wall-clock]
                self.progress(
                    f"retrying {fp} in {delay:.2f}s "
                    f"(attempt {attempts[fp] + 1}/{self.max_attempts}, "
                    f"after {failure.kind})"
                )

        def fail_worker(w: _Worker, kind: str, detail: str, kill: bool) -> None:
            """Charge the worker's current task (if any) and replace it."""
            if w.current is not None:
                fp, payload = w.current
                w.current = None
                record_failure(fp, payload, TaskFailure(kind, detail))
            reap(w, kill=kill)
            respawn_or_shrink(w.slot)

        def handle_reply(w: _Worker, reply) -> None:
            nonlocal outstanding
            if w.current is None:
                return  # stray reply from an already-failed assignment
            fp, payload = w.current
            r_fp, status, body = reply
            if r_fp != fp:  # protocol desync: treat as a worker fault
                fail_worker(
                    w, "crash", f"reply for {r_fp}, expected {fp}", kill=True
                )
                return
            w.current = None
            if status == "ok":
                stats.completed += 1
                outstanding -= 1
                if self.on_result is not None:
                    self.on_result(fp, payload, body)
            else:
                record_failure(fp, payload, TaskFailure("error", str(body)))

        try:
            free = list(range(self.n_jobs - 1, -1, -1))
            for _ in range(min(self.n_jobs, outstanding)):
                spawn(free.pop())

            while outstanding > 0:
                now = time.time()  # simlint: ignore[wall-clock]
                while delayed and delayed[0][0] <= now:
                    _, _, fp, payload = heapq.heappop(delayed)
                    pending.append((fp, payload))

                for w in list(workers.values()):
                    if pending and w.current is None:
                        fp, payload = pending.pop()
                        w.current = (fp, payload)
                        w.started_at = now
                        try:
                            w.conn.send((fp, payload))
                        except (BrokenPipeError, OSError):
                            w.current = None
                            pending.append((fp, payload))
                            reap(w, kill=True)
                            respawn_or_shrink(w.slot)

                if not workers:
                    raise PoolExhaustedError(
                        f"all workers lost with {outstanding} task(s) "
                        "outstanding; resume the sweep to continue"
                    )

                # sleep until the next thing that can happen: a reply, a
                # task deadline, a ripe retry, or a heartbeat check
                busy = [w for w in workers.values() if w.current is not None]
                deadlines = [w.started_at + self.timeout_s for w in busy]
                if delayed:
                    deadlines.append(delayed[0][0])
                wait_s = min(
                    max(0.01, min(deadlines) - now) if deadlines else 0.25,
                    self.heartbeat_timeout_s / 2,
                )
                if busy:
                    for conn in conn_wait([w.conn for w in busy], timeout=wait_s):
                        w = next(x for x in workers.values() if x.conn is conn)
                        try:
                            reply = conn.recv()
                        except (EOFError, OSError):
                            continue  # death is handled by is_alive below
                        handle_reply(w, reply)
                else:
                    time.sleep(wait_s)

                now = time.time()  # simlint: ignore[wall-clock]
                for w in list(workers.values()):
                    if not w.proc.is_alive():
                        fail_worker(
                            w, "crash",
                            f"worker exited with code {w.proc.exitcode} mid-task",
                            kill=False,
                        )
                    elif (
                        w.current is not None
                        and now - w.started_at > self.timeout_s
                    ):
                        fail_worker(
                            w, "timeout",
                            f"exceeded {self.timeout_s:.1f}s wall-clock budget",
                            kill=True,
                        )
                    elif (
                        w.current is not None
                        and now - hb_array[w.slot] > self.heartbeat_timeout_s
                    ):
                        fail_worker(
                            w, "lost-heartbeat",
                            f"no heartbeat for {now - hb_array[w.slot]:.1f}s",
                            kill=True,
                        )
            stats.final_workers = len(workers)
        finally:
            for w in list(workers.values()):
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for w in list(workers.values()):
                reap(w, kill=w.current is not None)
        return stats


def map_ordered(fn: Callable[[Any], Any], items: Sequence[Any], n_jobs: int = 1) -> list:
    """``[fn(it) for it in items]`` in input order, over ``n_jobs`` workers.

    ``n_jobs=0`` means one per CPU.  One worker (after capping at
    ``len(items)``) runs in-process, as does a host where the pool
    cannot start.  A unit that fails in a worker (raises, or its process
    dies) is retried once; units still missing are recomputed in the
    parent, where a genuine error propagates with the workers' failure
    history as its ``__cause__``.  Units are pure functions of their
    items, so the result is bit-identical to a serial run.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    items = list(items)
    jobs = min(n_jobs or os.cpu_count() or 1, len(items))
    if jobs <= 1:
        return [fn(it) for it in items]

    results: dict[int, Any] = {}
    failures: dict[int, list[TaskFailure]] = {}
    runner = SweepRunner(
        fn,
        n_jobs=jobs,
        timeout_s=math.inf,
        max_attempts=MAP_MAX_ATTEMPTS,
        backoff_base_s=MAP_BACKOFF_S,
        on_result=lambda fp, _item, result: results.__setitem__(int(fp), result),
        on_quarantine=lambda fp, _item, fails: failures.__setitem__(int(fp), fails),
        progress=log.warning,
    )
    try:
        runner.run([(str(i), it) for i, it in enumerate(items)])
    except (PoolExhaustedError, OSError, ImportError, NotImplementedError) as exc:
        log.warning("process pool stopped early: %s", exc)
    missing = [i for i in range(len(items)) if i not in results]
    if missing:
        log.warning("recomputing %d unit(s) in the parent", len(missing))
    for i in missing:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            if i not in failures:
                raise
            history = "\n".join(f"[{f.kind}] {f.detail}" for f in failures[i])
            raise exc from RuntimeError(f"unit {i} failed in the pool:\n{history}")
    return [results[i] for i in range(len(items))]
