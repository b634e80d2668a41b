"""Degraded-mode report: what a fault did to the I/O path.

:func:`build_degraded_report` condenses a faulted evaluation run into
a JSON-safe dict answering the three questions the methodology asks
of a configuration under failure:

* **what happened** — the fault windows the injector recorded, each
  with the transfer rates the application achieved *inside* the
  window versus the healthy remainder of the run;
* **where the time went** — utilization re-attribution: for each
  fault window, the sampled observability windows it overlaps and
  their hottest resource (rebuild traffic shows up here as member
  disks saturating while application throughput drops), plus the
  rebuild / retransmit overhead counters;
* **how gracefully the configuration degraded** — the degraded-to-
  healthy bandwidth ratio per operation and a verdict
  (``graceful`` / ``degraded`` / ``data-loss``), with the degraded
  rates additionally compared level-by-level against the
  characterized tables (the paper's used-percentage view, Figs.
  10/11, recomputed for the fault windows).

The healthy baseline comes from a **fault-free twin run** of the same
configuration when one is supplied (the methodology always runs one
for a faulted evaluation): the degraded rate inside each fault window
is compared against the *same simulated-time span* of the twin, so
the workload's own phase mix (write-heavy start, read-back tail)
cancels out instead of masquerading as degradation.  Without a twin
the baseline falls back to the faulted run's own out-of-window
remainder.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["build_degraded_report"]

#: a configuration keeping at least this fraction of its healthy
#: bandwidth inside fault windows degrades "gracefully"
GRACEFUL_THRESHOLD = 0.5


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _window_bytes(events, t0: float, t1: float) -> dict[str, int]:
    """Bytes each op moved within [t0, t1], attributing each traced
    event proportionally to its overlap with the window."""
    out = {"read": 0, "write": 0}
    for e in events:
        if e.op not in out:
            continue
        d = e.duration
        if d <= 0:
            share = 1.0 if t0 <= e.t_start < t1 else 0.0
        else:
            share = _overlap(e.t_start, e.t_end, t0, t1) / d
        if share > 0:
            out[e.op] += int(e.total_bytes * share)
    return out


def _merge_windows(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping [t0, t1) spans."""
    merged: list[tuple[float, float]] = []
    for t0, t1 in sorted(spans):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def build_degraded_report(
    config_name: str,
    system: Any,
    schedule: Any,
    fault_windows: list[dict],
    tracer: Any,
    profile: Any,
    tables: Optional[dict],
    utilization: Any = None,
    threshold: float = GRACEFUL_THRESHOLD,
    data_loss: Optional[str] = None,
    healthy_events: Optional[list] = None,
    healthy_end: Optional[float] = None,
) -> dict:
    """Assemble the degraded-mode report for one faulted run.

    ``fault_windows`` is :attr:`FaultInjector.windows`; ``utilization``
    the run's :class:`~repro.core.utilization.UtilizationReport` (its
    sampled windows feed the re-attribution section, absent when the
    run was not instrumented); ``data_loss`` the message of a
    :class:`~repro.hardware.raid.DataLossError` that terminated the
    run, if one did.  ``healthy_events``/``healthy_end`` are the traced
    events and end time of a fault-free twin run used as the healthy
    baseline (see the module docstring).
    """
    run_end = system.env.now
    events = list(tracer.events) if tracer is not None else []
    data_events = [e for e in events if e.op in ("read", "write")]

    # -- per-fault windows, clamped to the run -------------------------
    windows_out: list[dict] = []
    spans: list[tuple[float, float]] = []
    for rec in fault_windows:
        t0 = min(rec["t0_s"], run_end)
        t1 = rec["t1_s"] if rec["t1_s"] is not None else run_end
        t1 = min(t1, run_end)
        width = max(t1 - t0, 0.0)
        moved = _window_bytes(data_events, t0, t1)
        entry = {
            "index": rec["index"],
            "kind": rec["kind"],
            "target": rec["target"],
            "t0_s": t0,
            "t1_s": t1,
            "outcome": rec["outcome"],
            "bytes": moved,
            "rate_Bps": {
                op: (moved[op] / width if width > 0 else 0.0)
                for op in ("read", "write")
            },
        }
        if "disk" in rec:
            entry["disk"] = rec["disk"]
        if utilization is not None and getattr(utilization, "windows", None):
            attributed = []
            for w in utilization.windows:
                if _overlap(w.t0_s, w.t1_s, t0, t1) <= 0:
                    continue
                hot = w.hottest(n=1)
                name, util = hot[0] if hot else (None, 0.0)
                attributed.append(
                    {
                        "t0_s": w.t0_s,
                        "t1_s": w.t1_s,
                        "hottest": name,
                        "utilization": util,
                        "bottleneck": w.bottleneck(),
                    }
                )
            entry["utilization_windows"] = attributed
        windows_out.append(entry)
        if width > 0:
            spans.append((t0, t1))

    # -- degraded vs healthy rates -------------------------------------
    merged = _merge_windows(spans)
    degraded_s = sum(t1 - t0 for t0, t1 in merged)
    healthy_s = max(run_end - degraded_s, 0.0)
    degraded_bytes = {"read": 0, "write": 0}
    for t0, t1 in merged:
        moved = _window_bytes(data_events, t0, t1)
        for op in degraded_bytes:
            degraded_bytes[op] += moved[op]
    total_bytes = {
        "read": sum(e.total_bytes for e in data_events if e.op == "read"),
        "write": sum(e.total_bytes for e in data_events if e.op == "write"),
    }
    degraded_rate = {
        op: (degraded_bytes[op] / degraded_s if degraded_s > 0 else 0.0)
        for op in degraded_bytes
    }
    if healthy_events is not None:
        # baseline: the SAME time spans in the fault-free twin run
        # (clamped to its end — past it the twin had simply finished)
        ref_events = [e for e in healthy_events if e.op in ("read", "write")]
        ref_end = healthy_end if healthy_end is not None else run_end
        healthy_bytes = {"read": 0, "write": 0}
        ref_s = 0.0
        for t0, t1 in merged:
            t1 = min(t1, ref_end)
            if t1 <= t0:
                continue
            moved = _window_bytes(ref_events, t0, t1)
            for op in healthy_bytes:
                healthy_bytes[op] += moved[op]
            ref_s += t1 - t0
        healthy_rate = {
            op: (healthy_bytes[op] / ref_s if ref_s > 0 else 0.0)
            for op in healthy_bytes
        }
    else:
        # no twin: fall back to the faulted run's own remainder
        healthy_bytes = {
            op: max(total_bytes[op] - degraded_bytes[op], 0) for op in total_bytes
        }
        healthy_rate = {
            op: (healthy_bytes[op] / healthy_s if healthy_s > 0 else 0.0)
            for op in healthy_bytes
        }
    # a ratio needs both a healthy baseline and degraded traffic of the
    # op — a fault window with no traffic of an op says nothing about it
    ratios = {}
    for op in ("read", "write"):
        if healthy_rate[op] > 0 and degraded_s > 0 and degraded_bytes[op] > 0:
            ratios[op] = degraded_rate[op] / healthy_rate[op]
    meaningful = list(ratios.values())

    if data_loss is not None or any(
        w["outcome"] == "data-loss" for w in windows_out
    ):
        verdict = "data-loss"
    elif not merged or not meaningful:
        verdict = "graceful"  # faults never intersected the run's I/O
    elif min(meaningful) >= threshold:
        verdict = "graceful"
    else:
        verdict = "degraded"

    # -- level-by-level comparison against characterized tables --------
    used_rows: list[dict] = []
    if tables and profile is not None and getattr(profile, "measures", None):
        # dominant measure (by bytes) per op carries the run's geometry
        dominant: dict[str, Any] = {}
        for m in profile.measures:
            if m.op not in ("read", "write"):
                continue
            cur = dominant.get(m.op)
            if cur is None or m.total_bytes > cur.total_bytes:
                dominant[m.op] = m
        for level in tables:
            for op, m in sorted(dominant.items()):
                char = tables[level].lookup(m.op, m.block_bytes, m.access, m.mode)
                if char is None or char <= 0:
                    continue
                used_rows.append(
                    {
                        "level": level,
                        "op": op,
                        "block_bytes": m.block_bytes,
                        "characterized_Bps": char,
                        "healthy_used_pct": 100.0 * healthy_rate[op] / char,
                        "degraded_used_pct": 100.0 * degraded_rate[op] / char,
                    }
                )

    # -- overhead traffic ----------------------------------------------
    rebuild: dict[str, dict] = {}
    for owner, array in system.arrays():
        st = array.rebuild_stats
        if st.bytes_read or st.bytes_written or st.completed or st.aborted:
            rebuild[owner] = {
                "bytes_read": st.bytes_read,
                "bytes_written": st.bytes_written,
                "completed": st.completed,
                "aborted": st.aborted,
                "still_rebuilding": array.rebuilding,
                "degraded": array.degraded,
            }
    nfs = {
        "retransmits": sum(
            m.stats.retransmits for m in system.nfs_mounts.values()
        ),
        "major_timeouts": sum(
            m.stats.major_timeouts for m in system.nfs_mounts.values()
        ),
    }

    return {
        "config": config_name,
        "schedule": schedule.as_dict(),
        "run_end_s": run_end,
        "baseline": "twin-run" if healthy_events is not None else "out-of-window",
        "healthy_run_end_s": healthy_end,
        "windows": windows_out,
        "degraded_s": degraded_s,
        "healthy_s": healthy_s,
        "rates_Bps": {"healthy": healthy_rate, "degraded": degraded_rate},
        "bandwidth_ratio": ratios,
        "verdict": verdict,
        "threshold": threshold,
        "used_pct": used_rows,
        "rebuild": rebuild,
        "nfs": nfs,
        "data_loss": data_loss,
    }
