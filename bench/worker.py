"""Run one workload in a fresh process and print its measurements.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Passes run back to back in a closed loop with one client: a pass starts
when the previous one has finished, until ``--seconds`` have passed.
A ``calibrate.Gauge`` samples the host's speed during every unit, so
each pass's wall time is also reported at the reference host's speed.
Every unit's simulated outputs are checked against the goldens.  With
``--trace 1`` one more pass follows, with cProfile around each unit and
the built systems' counters captured; its spans (pass -> unit) carry the
per-layer self time and the counters.  The last line of standard output
is one JSON object; ``run.py`` starts this script and reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import resource
import statistics
import time
import traceback

import calibrate
import layers
import suite
from repro.simengine import Environment

#: counters that are exact: the same on every run and every seed
EVENT_COUNTS = ("simengine.events", "simengine.envs")
REPLAY = ("simulated", "extrapolated", "fallback_phases")


class Clock:
    """Host seconds since the worker started (span timestamps)."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def __call__(self) -> float:
        return time.perf_counter() - self.t0


def run_unit(workload: suite.Workload, unit: suite.Unit, expected: dict | None,
             clock: Clock, gauge: calibrate.Gauge | None = None,
             profile: bool = False) -> dict:
    """Run one unit and check it; returns its record.

    A unit fails when it raises or when its digest differs from
    ``expected``.  The record carries the unit's start and end, its wall
    time, the reference times ``gauge`` sampled during it (none without
    a gauge), the digest, the calendar entries of every environment it
    built, the phase-replay counts and, when ``profile`` is set, the
    per-layer self time and the components' counters.
    """
    envs: list[Environment] = []
    hook = envs.append
    counters = suite.SystemCounters()
    profiler = cProfile.Profile() if profile else None
    timing = calibrate.Timing()
    record: dict = {"unit": unit.key}
    Environment._init_hooks.append(hook)
    record["start"] = clock()
    try:
        with contextlib.ExitStack() as stack:
            if profile:
                stack.enter_context(counters)
            if gauge:
                timing = stack.enter_context(gauge.timing())
            if profiler:
                profiler.enable()
            try:
                # the unit's time includes collecting the garbage earlier
                # units left, so it does not depend on the seed's order
                gc.collect()
                output = workload.run(unit)
            finally:
                if profiler:
                    profiler.disable()
    except Exception:
        record.update(ok=False, error=traceback.format_exc())
        return record
    finally:
        record["end"] = clock()
        record["wall_s"] = timing.wall_s if gauge else record["end"] - record["start"]
        record["reference_s"] = timing.samples
        Environment._init_hooks.remove(hook)
    record["digest"] = suite.digest(output)
    record["ok"] = record["digest"] == expected
    record["simengine.events"] = sum(env._seq for env in envs)
    record["simengine.envs"] = len(envs)
    stats = getattr(output, "replay", None)
    for name in REPLAY:
        record[f"replay.{name}"] = getattr(stats, name, 0)
    if profile:
        profiler.create_stats()
        record["layers"] = layers.attribute(profiler.stats, suite.REPRO_DIR)
        record["counters"] = counters.totals
    return record


def run_pass(workload: suite.Workload, order: list[suite.Unit], golden: dict,
             clock: Clock, gauge: calibrate.Gauge | None = None,
             profile: bool = False) -> dict:
    """Run the units in ``order`` once; returns the pass span.

    The pass's wall time is the sum of its units' times: checking the
    outputs, attributing the profile and the gauge's samples are not
    part of it.  With a gauge, ``norm_wall_s`` is that time at the
    reference host's speed, from every sample taken in the pass.
    """
    expected = golden.get(workload.name, {})
    start = clock()
    units = [run_unit(workload, u, expected.get(u.key), clock, gauge, profile) for u in order]
    wall = sum(u["wall_s"] for u in units)
    samples = [s for u in units for s in u["reference_s"]]
    return {
        "start": start, "end": clock(), "wall_s": wall,
        "norm_wall_s": calibrate.scaled(wall, samples) if gauge else None,
        "units": units,
    }


def exact_counts(workload: suite.Workload, span: dict) -> dict:
    """Events and replay counts of one pass, summed in unit order.

    Summing in the workload's fixed unit order, not the pass's shuffled
    order, keeps float sums identical across seeds.
    """
    by_key = {u["unit"]: u for u in span["units"]}
    names = [*EVENT_COUNTS, *(f"replay.{n}" for n in REPLAY)]
    out = {name: sum(by_key[u.key].get(name, 0) for u in workload.units) for name in names}
    total = out["replay.simulated"] + out["replay.extrapolated"]
    out["replay.extrapolated_fraction"] = out["replay.extrapolated"] / total if total else 0.0
    return out


def traced_metrics(workload: suite.Workload, span: dict) -> dict:
    """Per-layer self time, calls and component counters of a traced pass."""
    by_key = {u["unit"]: u for u in span["units"]}
    out: dict = {}
    for unit in workload.units:
        record = by_key[unit.key]
        for layer, v in record.get("layers", {}).items():
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + v["self_s"]
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0.0) + v["calls"]
        for name, v in record.get("counters", {}).items():
            out[name] = out.get(name, 0) + v
    for layer in (*layers.LAYERS, layers.OTHER):
        out[f"{layer}.calls"] = round(out.get(f"{layer}.calls", 0.0))
    looked_up = out.get("cache.hits", 0) + out.get("cache.misses", 0)
    out["cache.hit_ratio"] = out.get("cache.hits", 0) / looked_up if looked_up else 0.0
    out["trace.self_s"] = sum(out.get(f"{layer}.self_s", 0.0)
                              for layer in (*layers.LAYERS, layers.OTHER))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = Clock()
    workload = suite.Workload(args.workload)
    golden = suite.load_golden()
    gauge = calibrate.Gauge()
    passes = []
    while not passes or clock() < args.seconds:
        order = suite.unit_order(workload.units, args.seed, len(passes))
        passes.append(run_pass(workload, order, golden, clock, gauge))
    walls = [p["wall_s"] for p in passes]
    norms = [p["norm_wall_s"] for p in passes]
    norm = statistics.median(norms)
    records = [u for p in passes for u in p["units"]]
    first = exact_counts(workload, passes[0])
    metrics = {
        "norm_wall_s": norm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        **first,
        "simengine.events_per_s": first["simengine.events"] / norm,
    }
    traced = None
    if args.trace:
        # no gauge here: its samples would land in the profile
        order = suite.unit_order(workload.units, args.seed, len(passes))
        traced = run_pass(workload, order, golden, clock, profile=True)
        records += traced["units"]
        metrics.update(traced_metrics(workload, traced))
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead"] = traced["wall_s"] / statistics.median(walls)
    failed = sum(not u["ok"] for u in records)
    result = {
        "workload": args.workload,
        "attempted": len(records),
        "failed": failed,
        "wall_s_samples": walls,
        "norm_wall_s_samples": norms,
        "metrics": metrics,
        "units": {u["unit"]: u.get("digest") for u in passes[0]["units"]},
        "errors": sorted({u["error"] for u in records if "error" in u}),
        "spans": spans(args.workload, traced) if traced else None,
    }
    print(json.dumps(result))
    return 0


def spans(name: str, traced: dict) -> list[dict]:
    """The traced pass as spans: the pass, then each unit with the pass
    as its parent and the unit's record attached."""
    out = [{"id": 0, "parent": None, "name": f"pass:{name}",
            "start": traced["start"], "end": traced["end"]}]
    for i, record in enumerate(traced["units"], 1):
        attrs = {k: v for k, v in record.items() if k not in ("unit", "start", "end")}
        out.append({"id": i, "parent": 0, "name": f"unit:{record['unit']}",
                    "start": record["start"], "end": record["end"], **attrs})
    return out


if __name__ == "__main__":
    raise SystemExit(main())
