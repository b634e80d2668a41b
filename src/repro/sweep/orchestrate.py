"""The sweep orchestrator: plan → manifest → pool → WAL → report.

``run_sweep`` ties the package together.  A **fresh** run writes the
manifest (the full plan, atomically) before the first task executes,
then streams completions into the WAL; a **resume** re-reads the
manifest, replays the WAL, and dispatches only the fingerprints with
no durable outcome.  Because every result record is a pure function of
its task, a sweep killed and resumed any number of times converges on
exactly the records an uninterrupted run writes.

The orchestrator is deliberately the only WAL writer — workers return
results over pipes and never touch the run directory (except the
shared table cache, whose atomic fingerprint-keyed writes are already
concurrency-safe), so an orchestrator SIGKILL leaves at most one torn
tail to recover and any orphaned daemon workers exit on their own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from .plan import SweepTask
from .report import build_sweep_report, write_sweep_report
from .runner import PoolExhaustedError, RunnerStats, SweepRunner
from .store import (
    MANIFEST_SCHEMA,
    QUARANTINE_SCHEMA,
    RECORD_SCHEMA,
    ResultStore,
    StoreError,
)
from .worker import run_sweep_task

__all__ = ["DEFAULT_PARAMS", "SweepOutcome", "run_sweep"]

#: runner knobs persisted in the manifest so a resume inherits them
DEFAULT_PARAMS = {
    "n_jobs": 1,
    "timeout_s": 300.0,
    "max_attempts": 3,
    "backoff_base_s": 0.5,
    "seed": 0,
    "heartbeat_timeout_s": 10.0,
}


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` invocation did and how it ended."""

    report: dict
    report_path: Path
    stats: RunnerStats = field(default_factory=RunnerStats)
    exit_code: int = 0
    error: Optional[str] = None


def _manifest_for(tasks: Sequence[SweepTask], params: dict) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "params": params,
        "tasks": [{"fp": t.fp, "task": t.payload} for t in tasks],
    }


def run_sweep(
    rundir: "Path | str",
    tasks: Optional[Sequence[SweepTask]] = None,
    params: Optional[dict] = None,
    *,
    resume: bool = False,
    verify_only: bool = False,
    retry_quarantined: bool = False,
    cache_root: Optional[str] = None,
    fsync: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Execute (or resume, or just verify) a sweep run directory.

    Fresh runs require ``tasks`` and refuse a directory that already
    has a manifest (that is what ``resume=True`` is for).  Resumes take
    their plan and runner parameters from the manifest; ``params`` then
    acts as an override for host-bound knobs (``n_jobs``, timeouts) —
    task identity lives in the plan, so overrides cannot change *what*
    is computed, only how patiently.
    """
    rundir = Path(rundir)
    progress = progress or (lambda msg: None)
    stats = RunnerStats()
    error: Optional[str] = None

    with ResultStore(rundir, fsync=fsync) as store:
        if resume or verify_only:
            manifest = store.read_manifest()
            run_params = {
                **DEFAULT_PARAMS,
                **manifest.get("params", {}),
                **(params or {}),
            }
        else:
            if store.has_manifest():
                raise StoreError(
                    f"{rundir} already holds a sweep manifest; "
                    "use resume to continue it"
                )
            if not tasks:
                raise ValueError("a fresh sweep needs a non-empty task plan")
            run_params = {**DEFAULT_PARAMS, **(params or {})}
            manifest = _manifest_for(tasks, run_params)
            store.write_manifest(manifest)

        plan: dict[str, dict] = {t["fp"]: t["task"] for t in manifest["tasks"]}
        total = len(plan)

        if not verify_only:
            todo = [
                (fp, plan[fp])
                for fp in store.missing(list(plan), retry_quarantined)
            ]
            if todo:
                progress(
                    f"sweep: {total} planned, {len(store.results)} already "
                    f"durable, {len(todo)} to run"
                )

                def on_result(fp: str, task: dict, body: dict) -> None:
                    store.append_result(
                        {
                            "schema": RECORD_SCHEMA,
                            "fp": fp,
                            "task": task,
                            "result": body["result"],
                        }
                    )
                    progress(
                        f"[{len(store.results)}/{total}] {task['config']}"
                        f" x {task['workload_label']}"
                        f" [{task['fault_label']}] ok"
                    )

                def on_quarantine(fp: str, task: dict, failures: list) -> None:
                    store.append_quarantine(
                        {
                            "schema": QUARANTINE_SCHEMA,
                            "fp": fp,
                            "task": task,
                            "attempts": len(failures),
                            "failures": [f.as_dict() for f in failures],
                        }
                    )

                runner = SweepRunner(
                    functools.partial(
                        run_sweep_task,
                        cache_root=cache_root or str(rundir / "cache"),
                    ),
                    n_jobs=int(run_params["n_jobs"]),
                    timeout_s=float(run_params["timeout_s"]),
                    max_attempts=int(run_params["max_attempts"]),
                    backoff_base_s=float(run_params["backoff_base_s"]),
                    seed=int(run_params["seed"]),
                    heartbeat_timeout_s=float(run_params["heartbeat_timeout_s"]),
                    on_result=on_result,
                    on_quarantine=on_quarantine,
                    progress=progress,
                )
                try:
                    stats = runner.run(todo)
                except PoolExhaustedError as exc:
                    # everything durable so far is kept; report what we
                    # have and signal the caller to resume later
                    error = str(exc)
                    progress(f"sweep aborted: {exc}")

        report = build_sweep_report(store, manifest)
        report["runner"] = stats.as_dict()
        report_path = write_sweep_report(rundir, report)

    if error is not None:
        exit_code = 2
    elif not report["integrity"]["ok"] or report["quarantine"]:
        exit_code = 1
    else:
        exit_code = 0
    return SweepOutcome(
        report=report,
        report_path=report_path,
        stats=stats,
        exit_code=exit_code,
        error=error,
    )
