"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py A.json [A.json ...] -- B.json [B.json ...]

A is the parent and B the change; each file is one ``run.py --out``
result.  For every workload and end-to-end metric it prints each side's
median and quartiles over its files, and a verdict:

* ``regressed``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: A's own interquartile spread, as a share of its
  median, exceeds the bound, and not every B run reads better than
  every A run;
* ``within bound``: neither.

``error_rate`` counts as regressed on any rise.  For files written with
``--trace``, the per-layer counts that must repeat exactly (events, the
modelled components' counters, phase replay) are reported as identical
or listed where they differ.  Exits 1 when any row is regressed or
unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spec

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The verdict for one metric, from A's and B's per-run values."""
    worse = (lambda x, y: x > y) if better == "lower" else (lambda x, y: x < y)
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    if (q3 - q1) > bound * med_a and not all(worse(x, y) for x in a for y in b):
        return "unresolved"
    if worse(med_b, med_a) and abs(med_b - med_a) > bound * med_a:
        return "regressed"
    return "within bound"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def compare(a_runs: list[dict], b_runs: list[dict], bench: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressed or unresolved rows."""
    lines, bad = [], 0
    names = [w for w in spec.WORKLOADS if any(w in r for r in a_runs) and any(w in r for r in b_runs)]
    for name in names:
        a = [r[name] for r in a_runs if name in r]
        b = [r[name] for r in b_runs if name in r]
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a if m["name"] in r["metrics"]]
            vb = [r["metrics"][m["name"]]["value"] for r in b if m["name"] in r["metrics"]]
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            bad += v != "within bound"
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            lines.append(
                f"{name:16} {m['name']:12} A {am:.6g} [{a1:.6g}, {a3:.6g}] n={len(va)}"
                f"  B {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(vb)}"
                f"  {100 * (bm - am) / am:+.1f}% (bound {100 * m['bound']:.0f}%)  {v}"
            )
        ea, eb = max(r["error_rate"] for r in a), max(r["error_rate"] for r in b)
        v = "regressed" if eb > ea else "within bound"
        bad += v != "within bound"
        lines.append(f"{name:16} {'error_rate':12} A {ea:.6g}  B {eb:.6g}  {v}")
        lines.extend(exact_report(name, a, b))
    return lines, bad


def exact_report(name: str, a: list[dict], b: list[dict]) -> list[str]:
    """Exact-equality report of the per-layer counts over traced runs."""
    traced = [r["metrics"] for r in a + b if "simengine.events" in r["metrics"]]
    if not traced:
        return [f"{name:16} exact counts: no traced runs"]
    differ = []
    for metric in spec.EXACT:
        values = [t[metric]["value"] for t in traced]
        if len(set(values)) > 1:
            differ.append(f"{name:16}   {metric}: {values}")
    if not differ:
        return [f"{name:16} exact counts: identical ({len(spec.EXACT)} metrics, {len(traced)} runs)"]
    return [f"{name:16} exact counts: {len(differ)} differ", *differ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    if not argv[:cut] or not argv[cut + 1:]:
        print("need at least one file on each side of --", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text())
    lines, bad = compare(load(argv[:cut]), load(argv[cut + 1:]), bench)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
