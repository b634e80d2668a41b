"""Crash-safe fleet sweeps: config × workload × fault.

The sweep subsystem scales the single-evaluation methodology to whole
parameter-space campaigns without giving up its determinism:

* :mod:`.plan` enumerates and fingerprint-dedupes the combination
  space into self-contained task payloads;
* :mod:`.store` is the append-only CRC-framed WAL that makes a run
  directory survive orchestrator SIGKILL with at most one torn tail;
* :mod:`.runner` is the fault-tolerant process pool (timeouts,
  seeded backoff, poison quarantine, heartbeat hang detection,
  graceful pool shrink);
* :mod:`.worker` executes one combo as a pure function of its task;
* :mod:`.report` verifies WAL integrity end-to-end and distills the
  population into the ``repro.sweep-report/1`` document;
* :mod:`.orchestrate` ties them into ``repro sweep`` /
  ``repro sweep --resume``.
"""

from .orchestrate import DEFAULT_PARAMS, SweepOutcome, run_sweep
from .plan import (
    TASK_SCHEMA,
    PlanError,
    SweepTask,
    build_plan,
    char_params,
    collect_faults,
    collect_workloads,
)
from .report import (
    SWEEP_REPORT_SCHEMA,
    build_sweep_report,
    render_sweep_report,
    verify_run,
)
from .runner import PoolExhaustedError, RunnerStats, SweepRunner, TaskFailure
from .store import (
    MANIFEST_SCHEMA,
    QUARANTINE_SCHEMA,
    RECORD_SCHEMA,
    ResultStore,
    StoreError,
    record_line,
)
from .worker import run_sweep_task

__all__ = [
    "DEFAULT_PARAMS",
    "SweepOutcome",
    "run_sweep",
    "TASK_SCHEMA",
    "PlanError",
    "SweepTask",
    "build_plan",
    "char_params",
    "collect_faults",
    "collect_workloads",
    "SWEEP_REPORT_SCHEMA",
    "build_sweep_report",
    "render_sweep_report",
    "verify_run",
    "PoolExhaustedError",
    "RunnerStats",
    "SweepRunner",
    "TaskFailure",
    "MANIFEST_SCHEMA",
    "QUARANTINE_SCHEMA",
    "RECORD_SCHEMA",
    "ResultStore",
    "StoreError",
    "record_line",
    "run_sweep_task",
]
