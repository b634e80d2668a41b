"""The sweep task executor: one combo in, one pure result payload out.

``run_sweep_task`` is a module-level function of (payload, cache_root)
so it pickles into worker processes.  It rebuilds everything from the
payload alone — configuration by name, workload from its inlined
descriptor, fault schedule from its inlined dict — characterizes
through the shared :class:`~repro.core.tablecache.TableCache` (atomic
writes make concurrent workers safe; the fingerprint key dedupes the
expensive phase across every task sharing a configuration), evaluates,
and reduces the report to a JSON payload that is a **pure function of
the task**: simulated-time quantities only, no wall clocks, no worker
identity, no host paths.  That purity is what makes kill-resume
byte-identity achievable at all.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.methodology import Methodology
from ..fingerprint import workload_fingerprint
from ..obs.runreport import summarize_run
from .plan import descriptor_app, resolve_config

__all__ = ["run_sweep_task", "result_payload"]


def _used_cells(report) -> dict:
    """Byte-weighted used%% per (level, op) — the comparison surface."""
    out: dict[str, dict[str, float]] = {}
    for level in report.used.levels():
        for op in ("write", "read"):
            cell = report.used.cell(level, op)
            if cell is not None:
                out.setdefault(level, {})[op] = cell
    return out


def _faults_summary(f: Optional[dict]) -> Optional[dict]:
    """The deterministic core of a degraded-mode report."""
    if f is None:
        return None
    out = {
        "verdict": f.get("verdict"),
        "degraded_s": f.get("degraded_s"),
        "run_end_s": f.get("run_end_s"),
        "bandwidth_ratio": f.get("bandwidth_ratio", {}),
    }
    if f.get("data_loss"):
        out["data_loss"] = f["data_loss"]
    return out


def result_payload(report, app) -> dict:
    """Reduce one :class:`EvaluationReport` to the stored result dict."""
    result: dict[str, Any] = summarize_run(report)
    result["workload_fingerprint"] = workload_fingerprint(app)
    result["verdicts"] = {
        "write": report.write_bottleneck(),
        "read": report.read_bottleneck(),
    }
    result["used"] = _used_cells(report)
    faults = _faults_summary(report.faults)
    if faults is not None:
        result["faults"] = faults
    if report.sanitizer is not None:
        violations = report.sanitizer.get("violations", [])
        if violations:
            # a sanitizer violation is a failed task, not a result
            raise RuntimeError(
                f"sanitizer reported {len(violations)} violation(s): "
                f"{violations[0]}"
            )
        result["sanitized"] = True
    return result


def run_sweep_task(payload: dict, cache_root: Optional[str] = None) -> dict:
    """Execute one planned combination; returns the full record payload.

    The returned dict is exactly what the orchestrator appends to the
    WAL: ``{"schema", "fp"?, "task", "result"}`` — the orchestrator
    stamps ``fp`` from its plan, keeping workers unable to corrupt the
    identity they are keyed under.
    """
    task = payload
    char = task["char"]
    config = resolve_config(task["config"])
    name = task["config"]
    app = descriptor_app(task["workload"])
    faults = task.get("faults")
    if faults is not None:
        from ..faults import FaultSchedule

        faults = FaultSchedule.from_dict(faults)

    m = Methodology(
        {name: config},
        block_sizes=tuple(char["block_sizes"]),
        char_file_bytes=char.get("char_file_bytes"),
        ior_nprocs=char.get("ior_nprocs", 8),
        ior_file_bytes=char.get("ior_file_bytes"),
    )
    m.characterize(n_jobs=1, cache=cache_root)
    report = m.evaluate(
        app,
        names=[name],
        n_jobs=1,
        phase_fastpath=bool(task.get("phase_fastpath", True)),
        sanitize=bool(task.get("sanitize", False)),
        faults=faults,
    )[name]
    return {"task": task, "result": result_payload(report, app)}
