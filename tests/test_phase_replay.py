"""Phase-replay accelerator: correctness, settings, edge cases.

The tentpole guarantee: evaluation with the phase fastpath produces
the same used-percentage tables and bottleneck levels as full replay,
because extrapolation only ever replaces occurrences whose timing was
verified steady (and falls back per phase otherwise).
"""

import pytest

from repro.clusters import aohyper_config
from repro.clusters.builder import build_system
from repro.core.replay import PhaseReplayAccelerator, ReplaySettings
from repro.simengine import Environment
from repro.tracing.events import IOEvent
from repro.tracing.phases import PhaseDetector
from repro.workloads.btio import BTIOConfig, run_btio
from repro.workloads.madbench import MadBenchConfig, run_madbench


def _run(app, cfg, config_name, enabled):
    system = build_system(Environment(), aohyper_config(config_name))
    system.replay_settings = ReplaySettings(enabled=enabled)
    return app(system, cfg)


# ---------------------------------------------------------------------------
# fastpath vs full replay equivalence


@pytest.mark.parametrize("config_name", ["jbod", "raid1", "raid5"])
def test_btio_fastpath_matches_full_replay(config_name):
    full = _run(run_btio, BTIOConfig(clazz="W", nprocs=4, subtype="full"), config_name, False)
    fast = _run(run_btio, BTIOConfig(clazz="W", nprocs=4, subtype="full"), config_name, True)
    assert fast.replay.extrapolated > 0  # the fastpath actually engaged
    assert fast.io_time == pytest.approx(full.io_time, rel=1e-2)
    assert fast.write_time == pytest.approx(full.write_time, rel=1e-2)
    assert fast.read_time == pytest.approx(full.read_time, rel=1e-2)
    assert fast.execution_time == pytest.approx(full.execution_time, rel=5e-2)
    assert fast.bytes_written == full.bytes_written
    assert fast.bytes_read == full.bytes_read


@pytest.mark.parametrize("config_name", ["jbod", "raid1", "raid5"])
def test_madbench_fastpath_matches_full_replay(config_name):
    full = _run(run_madbench, MadBenchConfig(kpix=2, nprocs=4), config_name, False)
    fast = _run(run_madbench, MadBenchConfig(kpix=2, nprocs=4), config_name, True)
    assert fast.io_time == pytest.approx(full.io_time, rel=1e-2)
    assert fast.execution_time == pytest.approx(full.execution_time, rel=5e-2)
    for fn in full.functions:
        assert fast.functions[fn].bytes_written == full.functions[fn].bytes_written
        assert fast.functions[fn].bytes_read == full.functions[fn].bytes_read
        assert fast.functions[fn].write_s == pytest.approx(
            full.functions[fn].write_s, rel=2e-2
        )
        assert fast.functions[fn].read_s == pytest.approx(
            full.functions[fn].read_s, rel=2e-2
        )


def test_fastpath_used_tables_and_bottlenecks_identical():
    """The tentpole acceptance property at evaluation level."""
    from repro.core.evaluation import used_tables_equal
    from repro.core.methodology import Methodology
    from repro.storage.base import KiB, MiB
    from repro.workloads.apps import BTIOApplication

    configs = {n: aohyper_config(n) for n in ("jbod", "raid1", "raid5")}
    m = Methodology(
        configs,
        block_sizes=(256 * KiB, 1 * MiB),
        char_file_bytes=8 * MiB,
        ior_file_bytes=64 * MiB,
    )
    m.characterize(n_jobs=1)
    app = BTIOApplication(BTIOConfig(clazz="W", nprocs=4, subtype="full"))
    full = m.evaluate(app, n_jobs=1, phase_fastpath=False)
    fast = m.evaluate(app, n_jobs=1, phase_fastpath=True)
    for name in configs:
        assert used_tables_equal(full[name].used, fast[name].used, rel_tol=1e-2)
        assert full[name].write_bottleneck() == fast[name].write_bottleneck()
        assert full[name].read_bottleneck() == fast[name].read_bottleneck()


def test_batch_api_matches_per_part_behaviour():
    """write_at_multi/read_at_multi (simple subtype) with and without
    the fastpath move the same bytes and agree on timing."""
    cfg = BTIOConfig(clazz="S", nprocs=4, subtype="simple")
    full = _run(run_btio, cfg, "jbod", False)
    fast = _run(run_btio, cfg, "jbod", True)
    assert fast.bytes_written == full.bytes_written
    assert fast.n_writes == full.n_writes
    assert fast.io_time == pytest.approx(full.io_time, rel=2e-2)


# ---------------------------------------------------------------------------
# settings


def test_evaluate_without_fastpath_never_extrapolates():
    """``phase_fastpath=False`` travels in each worker task, so full
    replay holds in worker processes too."""
    from repro.core.methodology import Methodology
    from repro.storage.base import KiB, MiB
    from repro.workloads.apps import BTIOApplication

    m = Methodology(
        {n: aohyper_config(n) for n in ("jbod", "raid1")},
        block_sizes=(256 * KiB,),
        char_file_bytes=8 * MiB,
        ior_file_bytes=64 * MiB,
    )
    m.characterize(n_jobs=1)
    app = BTIOApplication(BTIOConfig(clazz="S", nprocs=4, subtype="full"))
    for report in m.evaluate(app, n_jobs=2, phase_fastpath=False).values():
        assert report.replay.simulated > 0
        assert report.replay.extrapolated == 0
    # positive control: the same runs do extrapolate with the fast path on
    fast = m.evaluate(app, n_jobs=2, phase_fastpath=True)
    assert any(report.replay.extrapolated > 0 for report in fast.values())


def test_tolerance_setting_admits_wobble():
    """``rel_tol`` decides whether wobbling occurrences agree."""
    key = ("k",)
    strict = PhaseReplayAccelerator(ReplaySettings(warmup=2, confirm=1))
    loose = PhaseReplayAccelerator(ReplaySettings(warmup=2, confirm=1, rel_tol=0.25))
    for acc in (strict, loose):
        for d in (1.0, 1.1) * 4:
            if acc.steady(key) is None:
                acc.observe(key, d)
    assert strict.stats.extrapolated == 0
    assert loose.stats.extrapolated > 0


def test_fallback_after_max_warmup_and_revalidation_drift():
    s = ReplaySettings(warmup=2, max_warmup=4, confirm=1, recheck=2, rel_tol=1e-3)
    acc = PhaseReplayAccelerator(s)
    key = ("drift",)
    # never agrees: falls back at max_warmup
    for d in (1.0, 1.3, 1.6, 1.9, 2.2, 2.5):
        assert acc.steady(key) is None
        acc.observe(key, d)
    assert acc.stats.fallback_phases == 1
    assert acc.stats.extrapolated == 0
    # steady then drifts: revalidation catches it and falls back
    acc2 = PhaseReplayAccelerator(s)
    key2 = ("ok-then-drift",)
    assert acc2.steady(key2) is None
    acc2.observe(key2, 1.0)
    assert acc2.steady(key2) is None
    acc2.observe(key2, 1.0)  # warmup met, pair agrees: locked
    assert acc2.steady(key2) == pytest.approx(1.0)
    assert acc2.steady(key2) == pytest.approx(1.0)
    assert acc2.steady(key2) is None  # recheck round
    acc2.observe(key2, 5.0)  # drifted: permanent fallback
    assert acc2.steady(key2) is None
    acc2.observe(key2, 5.0)
    assert acc2.steady(key2) is None
    assert acc2.stats.fallback_phases == 1


def test_group_rounds_are_all_or_nothing():
    """Sibling phases extrapolate per frozen round verdicts: one
    unsteady member keeps the whole group simulating."""
    s = ReplaySettings(warmup=2, max_warmup=8, confirm=1, recheck=100)
    acc = PhaseReplayAccelerator(s)
    grp = ("g",)
    a, b = ("a",), ("b",)
    # a converges immediately, b never does
    for i in range(6):
        assert acc.steady(a, grp) is None
        acc.observe(a, 1.0, grp)
        assert acc.steady(b, grp) is None
        acc.observe(b, 1.0 + i, grp)
    assert acc.stats.extrapolated == 0
    # once b falls back the group is poisoned for good
    assert acc.steady(a, grp) is None


def test_scope_couples_concurrent_groups():
    """Groups in one scope (same barrier epoch) extrapolate only when
    all of them are steady — the MADbench W read/write interleave."""
    s = ReplaySettings(warmup=2, max_warmup=8, confirm=1, recheck=100)
    acc = PhaseReplayAccelerator(s)
    scope = ("io", 1)
    gw, gr = ("w",), ("r",)
    kw, kr = ("kw",), ("kr",)
    for i in range(4):
        assert acc.steady(kw, gw, scope) is None
        acc.observe(kw, 1.0, gw, scope)
        assert acc.steady(kr, gr, scope) is None
        acc.observe(kr, 2.0 + i, gr, scope)  # reads never steady
    # writes are steady on their own, but the scope blocks them
    assert acc.steady(kw, gw, scope) is None
    # an isolated steady group in another scope extrapolates fine
    k2, g2 = ("k2",), ("g2",)
    for _ in range(3):
        acc.observe(k2, 1.0, g2, ("io", 2))
    assert acc.steady(k2, g2, ("io", 2)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# PhaseDetector edge cases


def _ev(rank, op, nbytes, t0, t1, path="/f", count=1, stride=None):
    return IOEvent(rank, op, 0, nbytes, count, stride, t0, t1, path)


def test_detector_finite_gap_tolerance_splits_occurrences():
    events = [
        _ev(0, "write", 4096, 0.0, 0.1),
        _ev(0, "write", 4096, 0.2, 0.3),  # gap 0.1 <= tol: same occurrence
        _ev(0, "write", 4096, 5.0, 5.1),  # gap 4.7 > tol: new occurrence
    ]
    merged = PhaseDetector().detect(events)
    assert len(merged) == 1 and merged[0].occurrences == 1
    split = PhaseDetector(gap_tolerance_s=1.0).detect(events)
    assert len(split) == 1 and split[0].occurrences == 2
    # a tolerance under the first gap splits there too
    tight = PhaseDetector(gap_tolerance_s=0.05).detect(events)
    assert len(tight) == 1 and tight[0].occurrences == 3


def test_detector_interleaved_multi_rank_streams():
    """Interleaved ranks do not split each other's occurrences."""
    events = [
        _ev(0, "write", 4096, 0.0, 0.1),
        _ev(1, "write", 4096, 0.05, 0.15),
        _ev(0, "write", 4096, 0.1, 0.2),
        _ev(1, "write", 4096, 0.15, 0.25),
    ]
    phases = PhaseDetector().detect(events)
    assert len(phases) == 1
    assert phases[0].ranks == 2
    # per-rank streams each form one contiguous occurrence, even under a
    # tolerance shorter than the gaps between the interleaved events
    for tol in (0.5, 0.01):
        (phase,) = PhaseDetector(gap_tolerance_s=tol).detect(events)
        assert phase.occurrences == 2  # one occurrence per rank


def test_detector_single_occurrence_phase():
    events = [_ev(0, "read", 1 << 20, 1.0, 2.0)]
    phases = PhaseDetector().detect(events)
    assert len(phases) == 1
    assert phases[0].occurrences == 1
    assert phases[0].total_time == pytest.approx(1.0)


def test_detector_signature_change_starts_new_occurrence():
    events = [
        _ev(0, "write", 4096, 0.0, 0.1),
        _ev(0, "read", 4096, 0.1, 0.2),  # different op: new phase
        _ev(0, "write", 4096, 0.2, 0.3),  # back: second occurrence
    ]
    phases = PhaseDetector().detect(events)
    assert len(phases) == 2
    by_op = {p.signature[0]: p for p in phases}
    assert by_op["write"].occurrences == 2
    assert by_op["read"].occurrences == 1
