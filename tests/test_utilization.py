"""Resource-utilization report tests."""

import pytest

from repro.simengine import Environment
from repro.analysis.sanitizer import SimSanitizer
from repro.core.utilization import capture_utilization, snapshot_utilization
from repro.obs.metrics import MetricsRegistry
from repro.storage.base import IORequest, MiB
from repro.clusters.builder import build_system
from repro.workloads.btio import BTIOConfig, run_btio
from conftest import small_config


def test_idle_system_all_zero(system):
    system.env.run(system.env.timeout(1.0))
    rep = snapshot_utilization(system)
    assert all(r.utilization == 0.0 for r in rep.resources)
    assert rep.bottleneck() is None


def test_disk_bound_run_flags_server_disk():
    system = build_system(Environment(), small_config())
    fs = system.export
    env = system.env
    inode = env.run(fs.create("/big"))
    env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=256)))
    env.run(fs.sync())
    rep = snapshot_utilization(system)
    hot = rep.hottest(n=1)[0]
    assert hot.kind == "disk"
    assert "ionode" in hot.name
    assert hot.utilization > 0.5


def test_network_bound_run_flags_links():
    system = build_system(Environment(), small_config())
    env = system.env
    mount = system.nfs_mounts["n0"]
    inode = env.run(mount.create("/f"))
    env.run(mount.submit_direct(inode, IORequest("write", 0, 1 * MiB, count=128)))
    rep = snapshot_utilization(system)
    links = rep.hottest(kind="link", n=2)
    assert links[0].utilization > 0.5
    assert any("ionode" in l.name for l in links)


def test_io_bound_app_shows_saturation_compute_bound_does_not():
    # simple subtype: server-side serialisation, links busy
    s1 = build_system(Environment(), small_config(n_compute=2))
    run_btio(s1, BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt"))
    rep = snapshot_utilization(s1)
    # class S is tiny: nothing should be saturated by the full subtype
    assert rep.bottleneck(threshold=0.9) is None


def test_since_interval(system):
    env = system.env
    env.run(env.timeout(10.0))
    rep_all = snapshot_utilization(system)
    rep_tail = snapshot_utilization(system, since_s=9.0)
    assert rep_tail.interval_s == pytest.approx(1.0)
    assert rep_all.interval_s == pytest.approx(10.0)


def _busy_writes(system, count=64):
    fs = system.export
    inode = system.env.run(fs.create("/load"))
    system.env.run(fs.submit(inode, IORequest("write", 0, 1 * MiB, count=count)))
    system.env.run(fs.sync())


def test_busy_prelude_not_overreported():
    """Regression: cumulative busy seconds divided by a truncated
    interval used to report a saturated (clamped ~100%) disk for an
    interval the system spent entirely idle.  A baseline snapshot at
    the interval start diffs that prelude away."""
    system = build_system(Environment(), small_config())
    env = system.env
    _busy_writes(system)
    t1 = env.now
    baseline = capture_utilization(system)
    env.run(env.timeout(9 * t1))  # long idle tail

    tail = snapshot_utilization(system, baseline=baseline)
    assert tail.interval_s == pytest.approx(9 * t1)
    assert all(r.utilization == 0.0 for r in tail.resources)
    assert all(r.busy_s == 0.0 for r in tail.resources)
    # the full-run view still sees the prelude's busy time
    full = snapshot_utilization(system)
    assert full.hottest(kind="disk", n=1)[0].busy_s > 0


def test_shared_network_links_listed_once_under_comm():
    system = build_system(Environment(), small_config(separate_data_network=False))
    links = [name for name, kind, _c, _r in system.hardware() if kind == "link"]
    assert links and all(name.startswith("comm:") for name in links)
    assert len(links) == len(set(links))
    # one uplink and one downlink per endpoint (compute nodes + I/O node)
    assert len(links) == 2 * (system.config.n_compute + 1)


def test_every_consumer_walks_the_same_inventory():
    system = build_system(Environment(), small_config("raid5"))
    names = [name for name, _k, _c, _r in system.hardware()]
    assert any(n.startswith("data:") for n in names)
    assert [r.name for r in snapshot_utilization(system).resources] == names
    assert list(capture_utilization(system).busy) == names
    registry = MetricsRegistry(system)
    scopes = [
        scope for level, scope, _s in registry._components() if level in ("disk", "network")
    ]
    assert scopes == names
    san = SimSanitizer(system).attach()
    try:
        assert list(san._busy0) == names
        walked = [name.removesuffix(".head") for name, _r in san._resource_walk()]
        assert walked[: len(names)] == names
    finally:
        san.detach()


def test_render(system):
    system.env.run(system.env.timeout(0.5))
    text = snapshot_utilization(system).render(top=5)
    assert "resource utilization" in text
    assert "application itself limits" in text
