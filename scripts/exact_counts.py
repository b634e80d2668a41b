#!/usr/bin/env python
"""Exact-count gate: a fresh traced benchmark run vs a reference run.

The calendar is deterministic, so every ``EXACT`` metric of
``bench/spec.py`` (calendar entries, the modelled components' counters,
what phase replay did) repeats bit for bit on every run and every seed.
This script compares them, per workload, between FRESH and REF — two
``bench/run.py --trace 1 --out FILE`` results — prints each difference
and exits 1 on any difference, 0 when every count matches.

Every workload in FRESH is checked; one missing from REF, or a metric
missing on either side, is a difference.

Usage::

    python3 bench/run.py --seconds 1 --trace 1 --out fresh_trace.json
    python scripts/exact_counts.py fresh_trace.json bench/results/trace.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def exact_metrics() -> list[str]:
    """The ``EXACT`` metric names of ``bench/spec.py``."""
    sys.path.insert(0, str(BENCH_DIR))  # spec.py imports its sibling layers.py
    try:
        mod_spec = importlib.util.spec_from_file_location("bench_spec", BENCH_DIR / "spec.py")
        module = importlib.util.module_from_spec(mod_spec)
        mod_spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return list(module.EXACT)


def differences(fresh: dict, ref: dict, metrics: list[str]) -> list[str]:
    """One line per exact metric that differs between two bench results."""
    out = []
    fresh_w, ref_w = fresh.get("workloads", {}), ref.get("workloads", {})
    if not fresh_w:
        return ["fresh run has no workloads"]
    for name, f in fresh_w.items():
        r = ref_w.get(name)
        if r is None:
            out.append(f"{name}: not in the reference")
            continue
        fm, rm = f.get("metrics", {}), r.get("metrics", {})
        for metric in metrics:
            if metric not in fm or metric not in rm:
                side = "fresh" if metric not in fm else "reference"
                out.append(f"{name} {metric}: missing from the {side} run")
                continue
            fv, rv = fm[metric]["value"], rm[metric]["value"]
            if fv != rv:
                out.append(f"{name} {metric}: fresh {fv!r} != reference {rv!r}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="fresh bench/run.py --trace 1 result")
    parser.add_argument("ref", type=Path, help="reference result (bench/results/trace.json)")
    args = parser.parse_args(argv)
    metrics = exact_metrics()
    fresh = json.loads(args.fresh.read_text())
    ref = json.loads(args.ref.read_text())
    diffs = differences(fresh, ref, metrics)
    for line in diffs:
        print(line)
    n = len(fresh.get("workloads", {}))
    if diffs:
        print(f"exact counts: {len(diffs)} difference(s)", file=sys.stderr)
        return 1
    print(f"exact counts: all {len(metrics)} match on {n} workload(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
