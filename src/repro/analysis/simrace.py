"""simrace: schedule-race detection by differential runs.

The DES calendar breaks ``(when, priority)`` ties by insertion order.
That order is an implementation accident: two events scheduled for the
same instant by *different* prior executions have no causal order, so a
correct model must produce identical results whichever fires first.  A
**schedule race** is any result that depends on the accident — the
simulation analogue of a data race, and exactly the failure mode that
silently corrupts fingerprint-keyed caches and replayed phases.

The detector perturbs the tie-break and compares results
(:mod:`repro.simengine.schedule` records tie groups during a run, then
re-executes under reversed and seeded-random block orders).  Results
are compared on three surfaces:

* *conserved* — every non-float leaf plus the container structure
  (byte counts, op counts, table shapes).  Must be byte-identical
  under any tie-break order; a difference is a race.
* *timing* — float leaves.  Contention interleavings legitimately
  shift timings a little; the maximum relative deviation must stay
  under a tolerance.
* *diagnostics* — wall clock and replay/sanitizer telemetry, excluded
  from comparison entirely.

It is used twice.  The tier-1 gate (``tests/test_tie_order.py``)
perturbs every golden cell of the kernel determinism suite and holds
each cell's timing sensitivity to the value recorded for it.  The
**differential matrix** (:func:`run_race_matrix`, ``repro race``)
sweeps sanitizer x perturbations over one workload and configuration.
Characterization runs unperturbed once per cell and its per-level
table hashes must agree across every cell (the sanitizer only
observes); the perturbation axis applies only to the
evaluation run, executed with ``phase_fastpath=False`` — the replay
accelerator's steadiness heuristic is deliberately timing-sensitive,
so perturbing under it measures the heuristic, not the model.  On a
conserved divergence the flip set is delta-debugged to a minimal
reproducing subset and the first divergent event pop is reported.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "split_surfaces",
    "timing_sensitivity",
    "diff_conserved",
    "run_race_matrix",
    "render_report",
]


# ----------------------------------------------------------------------
# comparison surfaces
# ----------------------------------------------------------------------
#: result keys that are telemetry about *how* a run executed, not what
#: it computed — excluded from every comparison
DIAG_KEYS: frozenset[str] = frozenset(
    {"wall_s", "replay", "replay_phases", "sanitizer", "utilization", "events"}
)


def split_surfaces(
    obj: Any, _path: str = "$"
) -> tuple[Any, dict[str, float]]:
    """Split a canonical result into (conserved, timing) surfaces.

    *Conserved* keeps every non-float leaf and the container structure,
    with floats replaced by ``None`` placeholders (so a structural
    difference — an extra op, a missing row — still shows up there).
    *Timing* maps leaf paths to their float values.  Keys in
    :data:`DIAG_KEYS` are dropped from both.
    """
    if isinstance(obj, dict):
        cons: dict[str, Any] = {}
        tim: dict[str, float] = {}
        for k, v in obj.items():
            if k in DIAG_KEYS:
                continue
            c, t = split_surfaces(v, f"{_path}.{k}")
            cons[k] = c
            tim.update(t)
        return cons, tim
    if isinstance(obj, list):
        lcons: list[Any] = []
        ltim: dict[str, float] = {}
        for i, v in enumerate(obj):
            c, t = split_surfaces(v, f"{_path}[{i}]")
            lcons.append(c)
            ltim.update(t)
        return lcons, ltim
    if isinstance(obj, float) and not isinstance(obj, bool):
        return None, {_path: obj}
    return obj, {}


def timing_sensitivity(base: dict[str, float], other: dict[str, float]) -> float:
    """Maximum relative deviation over the shared timing leaves."""
    worst = 0.0
    for k, b in base.items():
        o = other.get(k)
        if o is None:
            continue
        dev = abs(o - b) / abs(b) if b else abs(o)
        if dev > worst:
            worst = dev
    return worst


def diff_conserved(a: Any, b: Any, _path: str = "$", _out: Optional[list[str]] = None,
                   limit: int = 8) -> list[str]:
    """First ``limit`` leaf paths where two conserved surfaces differ."""
    out = [] if _out is None else _out
    if len(out) >= limit:
        return out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            diff_conserved(a.get(k), b.get(k), f"{_path}.{k}", out, limit)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff_conserved(x, y, f"{_path}[{i}]", out, limit)
    elif a != b:
        out.append(f"{_path}: {a!r} != {b!r}")
    return out


# ----------------------------------------------------------------------
# the differential matrix
# ----------------------------------------------------------------------
def _table_hashes(methodology: Any, config_name: str) -> dict[str, str]:
    """Per-level ``sha256(csv)[:16]`` of one configuration's tables."""
    tables = methodology.tables[config_name]
    return {
        level: hashlib.sha256(tables[level].to_csv().encode()).hexdigest()[:16]
        for level in sorted(tables)
    }


def run_race_matrix(
    app: Any,
    config: Any = None,
    config_name: str = "jbod",
    sanitize: Sequence[bool] = (False, True),
    seeds: Sequence[int] = (0,),
    reverse: bool = True,
    block_sizes: Optional[Sequence[int]] = None,
    char_file_bytes: Optional[int] = None,
    ior_nprocs: int = 8,
    ior_file_bytes: Optional[int] = None,
    tol: float = 0.02,
    minimize: bool = True,
    max_minimize_runs: int = 48,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Sweep sanitizer x tie-break perturbations.

    Per cell: characterize unperturbed (``n_jobs=1``, no cache), hash
    the tables, run the evaluation baseline under a
    :class:`~repro.simengine.schedule.TieGroupRecorder`, then re-run it
    under each perturbation plan (block reversal plus one seeded
    shuffle per entry of ``seeds``) with ``phase_fastpath=False``.  A
    conserved-surface divergence is a race finding: its flip set is
    minimized and the first divergent pop located.  Table hashes must
    agree across *all* cells.  Returns a ``repro.race-report/1`` dict.
    """
    from ..core.methodology import Methodology
    from ..fingerprint import canonicalize, workload_fingerprint
    from ..simengine.schedule import (
        Perturber,
        PopRecorder,
        TieGroupRecorder,
        capture,
        minimize_flips,
        reverse_plans,
        shuffle_plans,
    )
    from ..storage.base import GiB, KiB

    if config is None:
        from ..clusters import aohyper_config

        config = aohyper_config(config_name)
    if block_sizes is None:
        block_sizes = tuple((32 * KiB) << k for k in range(0, 10, 3))
    if ior_file_bytes is None:
        ior_file_bytes = 2 * GiB

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    sweep: dict[str, Any] = dict(
        block_sizes=tuple(block_sizes),
        ior_nprocs=ior_nprocs,
        ior_file_bytes=ior_file_bytes,
    )
    if char_file_bytes is not None:
        sweep["char_file_bytes"] = char_file_bytes

    cells: list[dict[str, Any]] = []
    findings: list[dict[str, Any]] = []
    all_hashes: list[dict[str, str]] = []

    for san in sanitize:
        say(f"cell sanitize={san}: characterizing")
        m = Methodology({config_name: config}, **sweep)
        m.characterize(n_jobs=1)
        hashes = _table_hashes(m, config_name)
        all_hashes.append(hashes)

        def run_eval(hook: Any = None) -> tuple[Any, dict[str, float]]:
            import contextlib

            cm = capture(hook) if hook is not None else contextlib.nullcontext()
            with cm:
                reports = m.evaluate(app, n_jobs=1, phase_fastpath=False, sanitize=san)
            return split_surfaces(canonicalize(reports))

        recorder = TieGroupRecorder()
        base_cons, base_tim = run_eval(recorder)
        groups = recorder.groups()
        say(f"cell sanitize={san}: {len(groups)} tie group(s), perturbing")

        plans_by_name: dict[str, dict[Any, tuple[int, ...]]] = {}
        if reverse:
            plans_by_name["reverse"] = reverse_plans(groups)
        for seed in seeds:
            plans_by_name[f"shuffle:{seed}"] = shuffle_plans(groups, seed)

        perturbations: list[dict[str, Any]] = []
        for name, plans in plans_by_name.items():
            cons, tim = run_eval(Perturber(plans))
            identical = cons == base_cons
            sens = timing_sensitivity(base_tim, tim)
            entry: dict[str, Any] = {
                "perturbation": name,
                "conserved_identical": identical,
                "timing_sensitivity": sens,
                "within_tolerance": identical and sens <= tol,
            }
            if not identical:
                detail = diff_conserved(base_cons, cons)
                finding: dict[str, Any] = {
                    "kind": "schedule-race",
                    "sanitize": san,
                    "perturbation": name,
                    "detail": detail,
                }
                if minimize:
                    keys = sorted(plans)

                    def diverges(subset: list[Any]) -> bool:
                        sub = {k: plans[k] for k in subset}
                        c, _t = run_eval(Perturber(sub))
                        return c != base_cons

                    minimal, runs, reduced = minimize_flips(
                        keys, diverges, max_runs=max_minimize_runs
                    )
                    finding["flip_groups"] = [list(k) for k in minimal]
                    finding["minimize_runs"] = runs
                    finding["minimal"] = reduced
                    # localize: diff the pop streams of baseline
                    # vs the minimal flip set
                    base_pops = PopRecorder({})
                    run_eval(base_pops)
                    flip_pops = PopRecorder({k: plans[k] for k in minimal})
                    run_eval(flip_pops)
                    first = next(
                        (
                            {"index": i, "baseline": list(b), "flipped": list(g)}
                            for i, (b, g) in enumerate(
                                zip(base_pops.pops, flip_pops.pops)
                            )
                            if b != g
                        ),
                        None,
                    )
                    finding["first_divergence"] = first
                findings.append(finding)
                entry["finding"] = len(findings) - 1
            elif sens > tol:
                findings.append(
                    {
                        "kind": "timing-sensitivity",
                        "sanitize": san,
                        "perturbation": name,
                        "timing_sensitivity": sens,
                        "tolerance": tol,
                    }
                )
                entry["finding"] = len(findings) - 1
            perturbations.append(entry)

        cells.append(
            {
                "sanitize": san,
                "tables": hashes,
                "tie_groups": len(groups),
                "perturbations": perturbations,
            }
        )

    tables_identical = all(h == all_hashes[0] for h in all_hashes[1:])
    if not tables_identical:
        findings.append(
            {
                "kind": "table-divergence",
                "detail": [
                    "characterization table hashes differ across cells; "
                    "the sanitizer changed what it observes"
                ],
            }
        )

    return {
        "schema": "repro.race-report/1",
        "workload": {
            "name": getattr(app, "name", type(app).__name__),
            "fingerprint": workload_fingerprint(app),
        },
        "config": config_name,
        "params": {
            "sanitize": [bool(s) for s in sanitize],
            "seeds": list(seeds),
            "reverse": bool(reverse),
            "tolerance": tol,
            "block_sizes": list(sweep["block_sizes"]),
            "ior_nprocs": ior_nprocs,
            "ior_file_bytes": ior_file_bytes,
        },
        "must_preserve": {
            "identical": tables_identical,
            "tables": all_hashes[0] if all_hashes else {},
        },
        "cells": cells,
        "findings": findings,
        "ok": not findings,
    }


# ----------------------------------------------------------------------
# CLI: ``repro race`` delegates here
# ----------------------------------------------------------------------
def render_report(report: dict[str, Any]) -> str:
    """A compact human-readable rendering of a race report."""
    lines: list[str] = []
    w = report["workload"]
    lines.append(
        f"simrace: {w['name']} [workload {w['fingerprint']}] on "
        f"{report['config']}"
    )
    mp = report["must_preserve"]
    state = "identical across all cells" if mp["identical"] else "DIVERGED"
    lines.append(f"  tables: {state}")
    for level, digest in sorted(mp.get("tables", {}).items()):
        lines.append(f"    {level:<10} {digest}")
    for cell in report["cells"]:
        tag = f"sanitize={cell['sanitize']}"
        lines.append(f"  cell {tag}: {cell['tie_groups']} tie group(s)")
        for p in cell["perturbations"]:
            verdict = "ok" if p["within_tolerance"] else "DIVERGED"
            lines.append(
                f"    {p['perturbation']:<12} {verdict}  "
                f"(timing sensitivity {p['timing_sensitivity']:.2e})"
            )
    for f in report["findings"]:
        lines.append(f"  FINDING [{f['kind']}]: {json.dumps(f, default=str)[:400]}")
    lines.append("simrace: " + ("clean" if report["ok"] else
                                f"{len(report['findings'])} finding(s)"))
    return "\n".join(lines)
