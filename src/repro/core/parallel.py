"""Process-parallel fan-out for embarrassingly parallel methodology work.

Characterization builds a fresh :class:`~repro.simengine.Environment`
per (configuration, level) unit and evaluation builds one per
configuration, so the units share no state and each one is a pure
function of picklable inputs.  :func:`run_tasks` maps a worker over
such units with a :class:`~concurrent.futures.ProcessPoolExecutor`,
preserving input order so parallel results merge exactly like serial
ones.

Job count resolution (first match wins):

1. an explicit ``n_jobs`` argument,
2. the ``REPRO_JOBS`` environment variable,
3. serial (``1``).

Serial is the deliberate default — on a single-core host (or under
pytest) worker processes only add fork/pickle overhead, and serial
execution needs no picklability at all.  Anything > 1 fans out;
``n_jobs=0`` means "one worker per CPU".

If the pool itself cannot start (restricted environments: no ``fork``,
no semaphores, no ``/dev/shm``) the map silently degrades to serial —
the result is identical, only slower.

Worker failures self-heal rather than killing the whole fan-out: a
shard that raises (or whose worker process dies, breaking the pool)
is retried once in a fresh pool after a short backoff, and if the
retry fails too the surviving shards are recomputed serially in the
parent — where a genuine error finally propagates unchanged.  Because
every unit is a pure function of its inputs, the healed result is
bit-identical to an undisturbed parallel (or serial) run.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Callable, Optional, Sequence, TypeVar

__all__ = ["resolve_jobs", "run_tasks"]

log = logging.getLogger(__name__)

#: seconds to wait before retrying failed shards in a fresh pool
RETRY_BACKOFF_S = 0.25

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Effective worker count for a fan-out (see module docstring)."""
    if n_jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            n_jobs = int(env)
        except ValueError:
            n_jobs = -1
        if n_jobs < 0:
            raise ValueError(f"REPRO_JOBS must be a non-negative integer, got {env!r}")
    if n_jobs == 0:
        return os.cpu_count() or 1
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    return n_jobs


def run_tasks(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: Optional[int] = None,
) -> list[R]:
    """``[fn(it) for it in items]``, possibly across worker processes.

    Results are returned in input order regardless of completion
    order, so callers can merge them deterministically.  ``fn`` and
    every item must be picklable when more than one job is requested.
    """
    items = list(items)
    jobs = min(resolve_jobs(n_jobs), len(items))
    if jobs <= 1:
        return [fn(it) for it in items]

    results: dict[int, R] = {}
    errors: dict[int, Exception] = {}

    def attempt(indices: list[int]) -> list[int]:
        """One pool pass over ``indices``; returns the shards that failed.

        A worker exception (including a :class:`BrokenProcessPool`
        when the worker process itself died) fails only its shard —
        completed shards keep their results.  The exception is kept in
        ``errors`` so the serial fallback can chain the original shard
        failure if it fails too.
        """
        from concurrent.futures import ProcessPoolExecutor

        failed: list[int] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as executor:
            futures = {i: executor.submit(fn, items[i]) for i in indices}
            for i, fut in futures.items():
                try:
                    results[i] = fut.result()
                except Exception as exc:
                    log.warning("parallel shard %d failed: %r", i, exc)
                    errors[i] = exc
                    failed.append(i)
        return failed

    pending = list(range(len(items)))
    try:
        pending = attempt(pending)
    except (OSError, ImportError, NotImplementedError):
        # Pool start-up failure (sandboxed host): same answer, serially.
        return [fn(it) for it in items]
    if pending:
        # Retry crashed shards once in a fresh pool — a wedged or
        # OOM-killed worker poisons its whole pool, not the inputs.
        log.warning(
            "retrying %d failed shard(s) in a fresh pool after %.2fs",
            len(pending),
            RETRY_BACKOFF_S,
        )
        time.sleep(RETRY_BACKOFF_S)
        try:
            pending = attempt(pending)
        except (OSError, ImportError, NotImplementedError):
            pass  # fall through to the serial path below
    if pending:
        # Last resort: recompute the stragglers serially in the
        # parent.  If the shard fails here too, chain the original
        # parallel-worker exception as the cause — the pool round
        # saw the failure first, and its traceback (often a pickled
        # remote one) is the primary evidence.
        log.warning("serial fallback for %d shard(s)", len(pending))
        for i in pending:
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                raise exc from errors.get(i)
    return [results[i] for i in range(len(items))]
