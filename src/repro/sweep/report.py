"""End-of-run integrity verification and the sweep-report document.

``verify_run`` replays the WAL the hard way — re-reading the raw
files, re-checking every CRC, and reconciling what it finds against
the manifest's plan — so the summary a sweep hands back is backed by
bytes on disk, not by the orchestrator's in-memory bookkeeping (which
a kill-resume cycle has possibly rebuilt several times over).

``build_sweep_report`` then turns the verified records into the
``repro.sweep-report/1`` document: completion counts, per-level
used-percentage and run-metric **distributions** (min / median / p95
— the first slice of the statistics layer ROADMAP item 3 calls for,
following the IO500-analysis playbook of characterizing a population
of runs instead of point estimates), and simple factor correlations
(Pearson, over numeric task factors vs run metrics).
"""

from __future__ import annotations

import json
from math import sqrt
from pathlib import Path
from typing import Optional

from .store import ResultStore, parse_record

__all__ = [
    "SWEEP_REPORT_SCHEMA",
    "verify_run",
    "build_sweep_report",
    "render_sweep_report",
    "write_sweep_report",
]

SWEEP_REPORT_SCHEMA = "repro.sweep-report/1"


# ----------------------------------------------------------------------
# integrity verification
# ----------------------------------------------------------------------
def _scan_file(path: Path) -> dict:
    """Raw re-scan of one WAL file: CRC every line from disk."""
    out = {"records": 0, "bad_records": 0, "torn_tail": False}
    if not path.exists():
        return out
    raw = path.read_bytes()
    pos = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl == -1:
            out["torn_tail"] = True
            break
        line = raw[pos : nl + 1]
        if line.strip():
            if parse_record(line) is None:
                out["bad_records"] += 1
            else:
                out["records"] += 1
        pos = nl + 1
    return out


def verify_run(store: ResultStore, manifest: dict) -> dict:
    """Replay the WAL and reconcile it against the manifest's plan."""
    plan_fps = [t["fp"] for t in manifest.get("tasks", [])]
    results = set(store.results)
    quarantined = set(store.quarantine)
    planned = set(plan_fps)
    missing = [fp for fp in plan_fps if fp not in results and fp not in quarantined]
    unplanned = sorted((results | quarantined) - planned)
    scan_results = _scan_file(store.results_path)
    scan_quarantine = _scan_file(store.quarantine_path)
    ok = (
        not missing
        and not store.duplicate_mismatches
        and scan_results["bad_records"] == 0
        and not scan_results["torn_tail"]
        and not scan_quarantine["torn_tail"]
    )
    return {
        "ok": ok,
        "planned": len(plan_fps),
        "completed": len(results & planned),
        "quarantined": len((quarantined - results) & planned),
        "missing": missing,
        "unplanned": unplanned,
        "duplicate_mismatches": sorted(set(store.duplicate_mismatches)),
        "wal": {
            "results": scan_results,
            "quarantine": scan_quarantine,
            "recovered": dict(store.recovery),
        },
    }


# ----------------------------------------------------------------------
# distributions + correlations
# ----------------------------------------------------------------------
def _dist(values: list[float]) -> Optional[dict]:
    if not values:
        return None
    xs = sorted(values)
    n = len(xs)

    def q(p: float) -> float:
        if n == 1:
            return xs[0]
        i = p * (n - 1)
        lo = int(i)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (i - lo) * (xs[hi] - xs[lo])

    return {
        "n": n,
        "min": xs[0],
        "median": q(0.5),
        "p95": q(0.95),
        "max": xs[-1],
        "mean": sum(xs) / n,
    }


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    n = len(xs)
    if n < 3:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx <= 0 or syy <= 0:
        return None  # a constant factor correlates with nothing
    return sxy / sqrt(sxx * syy)


def _task_factors(task: dict, result: dict) -> dict[str, float]:
    """Numeric factor encoding of one record, for correlations."""
    wl = task.get("workload", {})
    nprocs = wl.get("nprocs", wl.get("doc", {}).get("nprocs", 0))
    return {
        "nprocs": float(nprocs or 0),
        "bytes_total": float(
            result.get("bytes_read", 0) + result.get("bytes_written", 0)
        ),
        "faulted": 0.0 if task.get("faults") is None else 1.0,
    }


def build_sweep_report(store: ResultStore, manifest: dict) -> dict:
    """The ``repro.sweep-report/1`` document for a (possibly partial) run."""
    verify = verify_run(store, manifest)
    records = [
        store.results[t["fp"]]
        for t in manifest.get("tasks", [])
        if t["fp"] in store.results
    ]

    metrics: dict[str, list[float]] = {
        "execution_time_s": [],
        "io_time_s": [],
        "io_fraction": [],
        "throughput_Bps": [],
    }
    used: dict[str, dict[str, list[float]]] = {}
    factor_rows: list[dict[str, float]] = []
    for rec in records:
        result = rec.get("result", {})
        for key, bucket in metrics.items():
            value = result.get(key)
            if isinstance(value, (int, float)):
                bucket.append(float(value))
        for level, ops in result.get("used", {}).items():
            for op, cell in ops.items():
                used.setdefault(level, {}).setdefault(op, []).append(float(cell))
        factor_rows.append(_task_factors(rec.get("task", {}), result))

    correlations: dict[str, dict[str, Optional[float]]] = {}
    if factor_rows:
        factor_names = sorted(factor_rows[0])
        for metric in ("io_time_s", "throughput_Bps"):
            ys = metrics[metric]
            if len(ys) != len(factor_rows):
                continue
            correlations[metric] = {
                f: _pearson([row[f] for row in factor_rows], ys)
                for f in factor_names
            }

    quarantined = [
        {
            "fp": fp,
            "config": q.get("task", {}).get("config"),
            "workload": q.get("task", {}).get("workload_label"),
            "attempts": q.get("attempts"),
            "failures": [f.get("kind") for f in q.get("failures", [])],
            "last_error": (q.get("failures") or [{}])[-1].get("detail", "")[-2000:],
        }
        for fp, q in sorted(store.quarantine.items())
    ]

    return {
        "schema": SWEEP_REPORT_SCHEMA,
        "plan": {
            "planned": verify["planned"],
            "completed": verify["completed"],
            "quarantined": verify["quarantined"],
            "missing": len(verify["missing"]),
        },
        "integrity": verify,
        "distributions": {
            "run": {k: _dist(v) for k, v in metrics.items()},
            "used_pct": {
                level: {op: _dist(vals) for op, vals in ops.items()}
                for level, ops in used.items()
            },
        },
        "correlations": correlations,
        "quarantine": quarantined,
    }


def write_sweep_report(rundir: "Path | str", report: dict) -> Path:
    """Atomically publish ``sweep_report.json`` in the run directory."""
    import os

    rundir = Path(rundir)
    target = rundir / "sweep_report.json"
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return target


def render_sweep_report(report: dict) -> str:
    """Human-readable summary printed at the end of ``repro sweep``."""
    plan = report["plan"]
    integrity = report["integrity"]
    lines = [
        f"sweep: {plan['completed']}/{plan['planned']} completed, "
        f"{plan['quarantined']} quarantined, {plan['missing']} missing "
        f"({'OK' if integrity['ok'] else 'INCOMPLETE'})",
    ]
    wal = integrity["wal"]
    if wal["recovered"]["truncated_bytes"] or wal["recovered"]["corrupt_records"]:
        lines.append(
            f"  wal recovery: truncated {wal['recovered']['truncated_bytes']} "
            f"torn byte(s), dropped {wal['recovered']['corrupt_records']} "
            "corrupt record(s)"
        )
    if integrity["duplicate_mismatches"]:
        lines.append(
            "  DETERMINISM: duplicate records differ for "
            + ", ".join(integrity["duplicate_mismatches"])
        )
    run_dist = report["distributions"]["run"]
    header = f"  {'metric':<18}{'n':>5}{'min':>12}{'median':>12}{'p95':>12}"
    rows = []
    for key, d in run_dist.items():
        if d is None:
            continue
        rows.append(
            f"  {key:<18}{d['n']:>5}{d['min']:>12.4g}{d['median']:>12.4g}"
            f"{d['p95']:>12.4g}"
        )
    if rows:
        lines.append(header)
        lines.extend(rows)
    for level, ops in sorted(report["distributions"]["used_pct"].items()):
        for op, d in sorted(ops.items()):
            if d is None:
                continue
            lines.append(
                f"  used%[{level}/{op}]{'':<{max(0, 4 - len(op))}}"
                f"{d['n']:>5}{d['min']:>12.4g}{d['median']:>12.4g}{d['p95']:>12.4g}"
            )
    corr = report.get("correlations", {})
    for metric, factors in sorted(corr.items()):
        body = "  ".join(
            f"{name}={value:+.3f}" for name, value in sorted(factors.items())
            if value is not None
        )
        if body:
            lines.append(f"  corr[{metric}]: {body}")
    for q in report["quarantine"]:
        lines.append(
            f"  QUARANTINED {q['fp']}: {q['config']} x {q['workload']} "
            f"after {q['attempts']} attempt(s) ({', '.join(q['failures'])})"
        )
    return "\n".join(lines)
