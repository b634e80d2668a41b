"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import signal
import time
from pathlib import Path

import pytest

import calibrate
import compare
import layers
import run
import spec
import suite
import worker

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_attribution_charges_foreign_time_to_calling_layer_and_conserves():
    repro_dir = "/x/src/repro/"
    root = ("/x/bench/worker.py", 1, "main")
    kernel = ("/x/src/repro/simengine/core.py", 10, "run")
    disk = ("/x/src/repro/hardware/disk.py", 5, "serve")
    top = ("/x/src/repro/fingerprint.py", 3, "fingerprint")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    shuffle = ("/usr/lib/python3/random.py", 1, "shuffle")
    length = ("~", 0, "<built-in method builtins.len>")
    recursive = ("/usr/lib/python3/copy.py", 7, "deepcopy")
    # (cc, nc, tt, ct, callers); callers map to (nc, cc, tt, ct)
    stats = {
        root: (1, 1, 0.05, 4.0, {}),
        kernel: (1, 1, 2.0, 3.5, {root: (1, 1, 2.0, 3.5)}),
        disk: (10, 10, 1.0, 1.6, {kernel: (10, 10, 1.0, 1.6)}),
        top: (2, 2, 0.01, 0.01, {root: (2, 2, 0.01, 0.01)}),
        heappush: (30, 30, 0.6, 0.6, {kernel: (20, 20, 0.4, 0.4), disk: (10, 10, 0.2, 0.2)}),
        shuffle: (3, 3, 0.3, 0.4, {disk: (3, 3, 0.3, 0.4)}),
        length: (100, 100, 0.1, 0.1, {shuffle: (100, 100, 0.1, 0.1)}),
        recursive: (1, 5, 0.2, 0.2, {kernel: (1, 1, 0.05, 0.2), recursive: (4, 0, 0.15, 0.15)}),
    }
    got = layers.attribute(stats, repro_dir)
    assert got["simengine"]["self_s"] == pytest.approx(2.0 + 0.4 + 0.2)
    assert got["hardware"]["self_s"] == pytest.approx(1.0 + 0.2 + 0.3 + 0.1)
    assert got["other"]["self_s"] == pytest.approx(0.05 + 0.01)
    assert got["hardware"]["calls"] == pytest.approx(10 + 10 + 3 + 100)
    assert sum(v["self_s"] for v in got.values()) == pytest.approx(sum(s[2] for s in stats.values()))
    assert sum(v["calls"] for v in got.values()) == pytest.approx(sum(s[1] for s in stats.values()))


def test_benchmark_json_matches_the_harness():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert bench["paths"] == ["bench"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(spec.WORKLOADS) == list(suite.WORKLOADS)
    for section, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in bench[section]} == metrics
    every = names + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in every)
    assert len(every) == len(set(every))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    counters = {f"{level}.{c}" for level, cs in spec.COUNTERS.items() for c in cs}
    assert counters <= set(spec.EXACT)


def test_perturbed_golden_counts_the_unit_as_failed():
    golden = suite.load_golden()
    want = golden["madbench_6k16"]["jbod"]
    perturbed = {"madbench_6k16": {"jbod": {**want, "io_time_s": want["io_time_s"] * (1 + 1e-12)}}}
    workload = suite.Workload("madbench_6k16")
    span = worker.run_pass(workload, [suite.Unit("jbod")], perturbed, worker.Clock())
    (record,) = span["units"]
    assert record["digest"] == want
    assert record["ok"] is False


def test_seed_shuffle_is_deterministic_and_output_neutral():
    workload = suite.Workload("madbench_6k16")
    units = workload.units
    assert suite.unit_order(units, 7, 2) == suite.unit_order(units, 7, 2)
    orders = {tuple(u.key for u in suite.unit_order(units, s, 0)) for s in range(20)}
    assert len(orders) > 1
    seed_a, seed_b = 0, next(
        s for s in range(1, 20) if suite.unit_order(units, s, 0) != suite.unit_order(units, 0, 0)
    )
    golden = suite.load_golden()
    spans = [
        worker.run_pass(workload, suite.unit_order(units, s, 0), golden, worker.Clock())
        for s in (seed_a, seed_b)
    ]
    assert all(u["ok"] for span in spans for u in span["units"])
    assert worker.exact_counts(workload, spans[0]) == worker.exact_counts(workload, spans[1])


def test_traced_unit_counts_repeat_and_layers_cover_its_time():
    workload = suite.Workload("madbench_6k16")
    golden = suite.load_golden()
    records = [
        worker.run_pass(workload, [suite.Unit("raid5")], golden, worker.Clock(), profile=True)
        ["units"][0]
        for _ in range(2)
    ]
    a, b = records
    assert a["ok"] and b["ok"]
    assert a["counters"] == b["counters"] and a["counters"]["nfs.rpcs"] > 0
    assert a["simengine.events"] == b["simengine.events"]
    self_s = sum(v["self_s"] for v in a["layers"].values())
    assert 0.9 * (a["end"] - a["start"]) < self_s <= a["end"] - a["start"]
    assert suite._characterize.build_system is suite._methodology.build_system is suite.build_system


def test_gauge_samples_inside_the_timing_and_leaves_its_time_out():
    gauge = calibrate.Gauge(interval_s=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with gauge.timing() as timing:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(timing.samples) >= 5
    assert timing.wall_s < 0.3 - 0.5 * sum(timing.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_averages_the_sampled_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, [2 * ref]) == pytest.approx(1.0)
    # half the time at full speed, half at half speed
    assert calibrate.scaled(1.0, [ref, 2 * ref]) == pytest.approx(0.75)
    # one sample in a hundred that the scheduler cut in two
    assert calibrate.scaled(1.0, [ref] * 99 + [10 * ref]) == pytest.approx(0.991)
    with pytest.raises(ValueError):
        calibrate.scaled(1.0, [])


def test_compare_verdicts():
    assert compare.verdict([10.0, 10.1, 9.9, 10.0], [11.5, 11.6], "lower", 0.1) == "regressed"
    assert compare.verdict([10.0, 10.1, 9.9, 10.0], [10.5, 10.4], "lower", 0.1) == "within bound"
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [10.0], "lower", 0.1) == "unresolved"
    # a wide parent spread is not unresolved when every change run is better
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [7.0, 7.5], "lower", 0.1) == "within bound"
    assert compare.verdict([100.0, 101.0], [80.0], "higher", 0.1) == "regressed"

    def result(wall, failed=0, exact=None):
        metrics = {"norm_wall_s": {"value": wall, "unit": "s"}}
        if exact is not None:
            metrics = {m: {"value": exact, "unit": u} for m, (u, _) in spec.EXACT.items()}
        return {"madbench_6k16": {"metrics": metrics, "error_rate": failed / 3}}

    bench = {"end_to_end": [{"name": "norm_wall_s", "better": "lower", "bound": 0.1}]}
    lines, bad = compare.compare([result(1.0), result(1.02)], [result(1.01)], bench)
    assert bad == 0 and "within bound" in lines[0]
    lines, bad = compare.compare([result(1.0)], [result(1.0, failed=1)], bench)
    assert bad == 1 and "regressed" in lines[1]
    lines, _ = compare.compare([result(1.0, exact=5)], [result(1.0, exact=6)], bench)
    assert f"{len(spec.EXACT)} differ" in "\n".join(lines)
