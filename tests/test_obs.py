"""Observability subsystem: MetricsRegistry, sampler, per-run deltas."""

import pytest

from conftest import small_config
from repro.clusters.builder import build_system
from repro.obs.metrics import LEVELS, Histogram, IOLibStats, MetricsRegistry
from repro.obs.sampler import UtilizationSampler
from repro.simengine import Environment
from repro.storage.base import IORequest, MiB
from repro.workloads.btio import BTIOConfig, run_btio

BT_SMALL = BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt")


def test_histogram_buckets():
    h = Histogram()
    h.add(0)
    h.add(1)
    h.add(1024)
    h.add(1500)
    h.add(65536, n=3)
    assert h.counts[0] == 2  # 0 and 1
    assert h.counts[10] == 2  # 1024 and 1500
    assert h.counts[16] == 3
    assert h.total == 7
    assert list(h.as_dict()) == ["2^0", "2^10", "2^16"]


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    a.add(8)
    b.add(8)
    b.add(64)
    a.merge(b)
    assert a.counts == {3: 2, 6: 1}


def test_iolib_stats_record():
    s = IOLibStats()
    s.record("write", 4096, 2, collective=True, duration_s=0.5)
    s.record("read", 1024, 1, collective=False, duration_s=0.25)
    c = s.counters()
    assert c["writes"] == 1 and c["reads"] == 1
    assert c["bytes_written"] == 8192 and c["bytes_read"] == 1024
    assert c["collective_ops"] == 1 and c["independent_ops"] == 1
    assert c["io_time_s"] == pytest.approx(0.75)
    h = s.histograms()
    assert h["write_sizes"] == {"2^12": 2}
    assert h["read_latency_us"] == {"2^17": 1}  # 250000 us


def test_registry_levels_and_deltas():
    system = build_system(Environment(), small_config())
    registry = MetricsRegistry(system)
    registry.begin_run(window_s=0.05)
    run_btio(system, BT_SMALL)
    registry.end_run()
    deltas = registry.deltas()
    assert set(deltas) == set(LEVELS)
    assert deltas["iolib"]["writes"] > 0
    assert deltas["iolib"]["collective_ops"] > 0
    assert deltas["nfs"]["rpcs"] > 0
    assert deltas["localfs"]["bytes_written"] > 0
    assert deltas["disk"]["bytes_written"] > 0
    assert deltas["network"]["bytes_carried"] > 0
    assert registry.histograms()["iolib"]["write_sizes"]


def test_registry_utilization_report_windows():
    system = build_system(Environment(), small_config())
    registry = MetricsRegistry(system)
    registry.begin_run(window_s=0.05)
    run_btio(system, BT_SMALL)
    registry.end_run()
    report = registry.utilization_report()
    assert report.windows, "sampler should have produced windows"
    # windows are contiguous and cover the run
    for a, b in zip(report.windows, report.windows[1:]):
        assert b.t0_s == pytest.approx(a.t1_s)
    assert report.windows[0].t0_s == pytest.approx(0.0)
    # per-window busy sums equal the cumulative interval busy
    total_by_resource = {}
    for w in report.windows:
        for name, busy in w.busy.items():
            total_by_resource[name] = total_by_resource.get(name, 0.0) + busy
    for r in report.resources:
        if r.busy_s > 0:
            assert total_by_resource.get(r.name, 0.0) == pytest.approx(r.busy_s)
    # bottleneck attribution is well-formed
    for w in report.windows:
        name = w.bottleneck(0.85)
        assert name is None or name in w.busy


def test_sampler_merges_windows_and_doubles_width():
    system = build_system(Environment(), small_config())
    env = system.env
    sampler = UtilizationSampler(system, window_s=0.01, max_windows=4)
    sampler.start()
    fs = system.export
    inode = env.run(fs.create("/f"))
    env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=32)))
    env.run(env.timeout(0.2))
    sampler.stop()
    assert len(sampler.windows) <= 5  # 4 + partial tail
    assert sampler.window_s > 0.01  # doubled at least once
    for a, b in zip(sampler.windows, sampler.windows[1:]):
        assert b.t0_s == pytest.approx(a.t1_s)


@pytest.mark.parametrize("window_s", [0.0, -1.0, float("nan")])
def test_sampler_rejects_non_positive_window(window_s):
    system = build_system(Environment(), small_config())
    with pytest.raises(ValueError, match="window_s must be positive"):
        UtilizationSampler(system, window_s=window_s)


def test_instrumentation_preserves_run_results():
    """The sampler only reads state: an instrumented run's simulated
    timings are identical to an uninstrumented one."""
    plain = build_system(Environment(), small_config())
    res_plain = run_btio(plain, BT_SMALL)

    inst = build_system(Environment(), small_config())
    registry = MetricsRegistry(inst)
    registry.begin_run(window_s=0.01)
    res_inst = run_btio(inst, BT_SMALL)
    registry.end_run()
    assert res_inst.execution_time == res_plain.execution_time
    assert res_inst.io_time == res_plain.io_time
