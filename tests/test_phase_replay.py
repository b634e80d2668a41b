"""Phase-replay accelerator: correctness, the switch, edge cases.

The tentpole guarantee: evaluation with the phase fastpath produces
the same used-percentage tables and bottleneck levels as full replay,
because extrapolation only ever replaces occurrences whose timing was
verified steady (and falls back per phase otherwise).
"""

import pytest

from repro.clusters import aohyper_config
from repro.clusters.builder import build_system
from repro.core.replay import (
    CONFIRM,
    MAX_WARMUP,
    RECHECK,
    REL_TOL,
    WARMUP,
    PhaseReplayAccelerator,
)
from repro.simengine import Environment
from repro.tracing.events import IOEvent
from repro.tracing.phases import PhaseDetector
from repro.storage.base import MiB
from repro.workloads.btio import BTIOConfig, run_btio
from repro.workloads.ior import run_ior
from repro.workloads.madbench import MadBenchConfig, run_madbench


def _run(app, cfg, config_name, enabled):
    system = build_system(Environment(), aohyper_config(config_name))
    system.phase_fastpath = enabled
    return app(system, cfg), system.last_replay.stats


# ---------------------------------------------------------------------------
# fastpath vs full replay equivalence


@pytest.mark.parametrize("config_name", ["jbod", "raid1", "raid5"])
def test_btio_fastpath_matches_full_replay(config_name):
    full, _ = _run(run_btio, BTIOConfig(clazz="W", nprocs=4, subtype="full"), config_name, False)
    fast, stats = _run(run_btio, BTIOConfig(clazz="W", nprocs=4, subtype="full"), config_name, True)
    assert stats.extrapolated > 0  # the fastpath actually engaged
    assert fast.io_time == pytest.approx(full.io_time, rel=1e-2)
    assert fast.write_time == pytest.approx(full.write_time, rel=1e-2)
    assert fast.read_time == pytest.approx(full.read_time, rel=1e-2)
    assert fast.execution_time == pytest.approx(full.execution_time, rel=5e-2)
    assert fast.bytes_written == full.bytes_written
    assert fast.bytes_read == full.bytes_read


@pytest.mark.parametrize("config_name", ["jbod", "raid1", "raid5"])
def test_madbench_fastpath_matches_full_replay(config_name):
    full, _ = _run(run_madbench, MadBenchConfig(kpix=2, nprocs=4), config_name, False)
    fast, _ = _run(run_madbench, MadBenchConfig(kpix=2, nprocs=4), config_name, True)
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
    full, _ = _run(run_btio, cfg, "jbod", False)
    fast, _ = _run(run_btio, cfg, "jbod", True)
    assert fast.bytes_written == full.bytes_written
    assert fast.n_writes == full.n_writes
    assert fast.io_time == pytest.approx(full.io_time, rel=2e-2)


# ---------------------------------------------------------------------------
# the switch


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


def test_ior_at_characterization_shape_follows_the_switch():
    """A default ``System`` extrapolates the repeated collective calls
    of characterization's IOR run; ``phase_fastpath = False`` on the
    system simulates every one of them."""

    def ior(fastpath):
        system = build_system(Environment(), aohyper_config("jbod"))
        if not fastpath:
            system.phase_fastpath = False
        run_ior(system, 4, path="/nfs/char_ior.dat", block_sizes=(1 * MiB,),
                file_bytes=32 * MiB)
        return system.last_replay.stats

    fast = ior(True)
    full = ior(False)
    assert fast.extrapolated > 0
    assert full.extrapolated == 0
    assert full.simulated == fast.simulated + fast.extrapolated


# ---------------------------------------------------------------------------
# the state machine, at the module constants


def _occur(acc, key, duration, group=("g",), scope=("io", 0)):
    """One occurrence through the grouped API, as the MPI-IO layer runs
    it: the steady value if extrapolated, else ``duration`` simulated."""
    steady = acc.steady(key, group, scope)
    if steady is None:
        acc.observe(key, duration, group, scope)
    return steady


def _lock(acc, keys, duration=1.0, group=("g",), scope=("io", 0)):
    """Simulate whole rounds until every member of ``keys`` is steady."""
    for _ in range(WARMUP + CONFIRM - 1):
        for k in keys:
            assert _occur(acc, k, duration, group, scope) is None


def test_tolerance_setting_admits_wobble():
    """``REL_TOL`` decides whether wobbling occurrences agree."""
    within = PhaseReplayAccelerator()
    beyond = PhaseReplayAccelerator()
    for acc, wobble in ((within, REL_TOL / 2), (beyond, 2 * REL_TOL)):
        for d in (1.0, 1.0 + wobble) * 4:
            _occur(acc, ("k",), d)
    assert within.stats.extrapolated > 0
    assert beyond.stats.extrapolated == 0


def test_fallback_after_max_warmup_and_revalidation_drift():
    acc = PhaseReplayAccelerator()
    key = ("drift",)
    # never agrees: falls back at MAX_WARMUP
    for i in range(MAX_WARMUP + 2):
        assert acc.stats.fallback_phases == (1 if i >= MAX_WARMUP else 0)
        assert _occur(acc, key, 1.0 + 0.3 * i) is None
    assert acc.stats.fallback_phases == 1
    assert acc.stats.extrapolated == 0
    # steady then drifts: revalidation catches it and falls back
    acc2 = PhaseReplayAccelerator()
    key2 = ("ok-then-drift",)
    _lock(acc2, [key2])
    for _ in range(RECHECK):
        assert _occur(acc2, key2, 1.0) == pytest.approx(1.0)
    assert _occur(acc2, key2, 5.0) is None  # recheck round: drifted
    assert acc2.stats.fallback_phases == 1
    for _ in range(RECHECK + 1):  # permanent fallback
        assert _occur(acc2, key2, 5.0) is None
    assert acc2.stats.fallback_phases == 1
    assert acc2.stats.extrapolated == RECHECK


def test_group_rounds_are_all_or_nothing():
    """Sibling phases extrapolate per frozen round verdicts: one
    unsteady member keeps the whole group simulating."""
    acc = PhaseReplayAccelerator()
    a, b = ("a",), ("b",)
    # a converges immediately, b never does
    for i in range(MAX_WARMUP):
        assert _occur(acc, a, 1.0) is None
        assert _occur(acc, b, 1.0 + i) is None
    assert acc.stats.extrapolated == 0
    # once b falls back the group is poisoned for good
    assert acc.stats.fallback_phases == 1
    assert acc.steady(a, ("g",), ("io", 0)) is None


def test_scope_couples_concurrent_groups():
    """Groups in one scope (same barrier epoch) extrapolate only when
    all of them are steady — the MADbench W read/write interleave."""
    acc = PhaseReplayAccelerator()
    scope = ("io", 1)
    gw, gr = ("w",), ("r",)
    kw, kr = ("kw",), ("kr",)
    for i in range(WARMUP + CONFIRM):
        assert _occur(acc, kw, 1.0, gw, scope) is None
        assert _occur(acc, kr, 2.0 + i, gr, scope) is None  # reads never steady
    # writes are steady on their own, but the scope blocks them
    assert acc.steady(kw, gw, scope) is None
    # an isolated steady group in another scope extrapolates fine
    k2, g2 = ("k2",), ("g2",)
    _lock(acc, [k2], group=g2, scope=("io", 2))
    assert acc.steady(k2, g2, ("io", 2)) == pytest.approx(1.0)


def test_grouped_revalidation_rounds():
    """After ``RECHECK`` extrapolated rounds the group simulates one
    round.  While every member agrees, extrapolation resumes; once a
    member has drifted, the whole group falls back for good."""
    acc = PhaseReplayAccelerator()
    a, b = ("a",), ("b",)
    _lock(acc, [a, b])
    for _ in range(RECHECK):
        assert _occur(acc, a, 1.0) == pytest.approx(1.0)
        assert _occur(acc, b, 1.0) == pytest.approx(1.0)
    # revalidation round, both agree: steady again for RECHECK rounds
    assert _occur(acc, a, 1.0) is None
    assert _occur(acc, b, 1.0) is None
    for _ in range(RECHECK):
        assert _occur(acc, a, 1.0) == pytest.approx(1.0)
        assert _occur(acc, b, 1.0) == pytest.approx(1.0)
    # next revalidation round: b has drifted
    assert _occur(acc, a, 1.0) is None
    assert _occur(acc, b, 3.0) is None
    assert acc.stats.fallback_phases == 1
    # a still agrees, but it shares b's group: no round extrapolates
    for _ in range(RECHECK + 1):
        assert _occur(acc, a, 1.0) is None
        assert _occur(acc, b, 3.0) is None
    assert acc.stats.extrapolated == 4 * RECHECK


def test_frozen_verdict_outlives_a_members_steady_value():
    """A member that lost its steady value after its round's verdict
    was frozen still extrapolates that round, at its last simulated
    duration: breaking the round would desync the group's ranks."""
    acc = PhaseReplayAccelerator()
    a, b = ("a",), ("b",)
    _lock(acc, [a, b])
    for _ in range(RECHECK):
        _occur(acc, a, 1.0)
        _occur(acc, b, 1.0)
    # a runs ahead: it simulates the revalidation round, then freezes
    # the next round's verdict (extrapolate) while b is still steady
    assert _occur(acc, a, 1.0) is None
    assert _occur(acc, a, 1.0) == pytest.approx(1.0)
    # b simulates its revalidation round and drifts: it loses its
    # steady value and poisons the group
    assert _occur(acc, b, 1.5) is None
    assert acc.stats.fallback_phases == 1
    # b's next round was frozen before: it extrapolates at 1.5
    assert _occur(acc, b, 9.9) == pytest.approx(1.5)
    # the round after that is decided under the poisoned group
    assert _occur(acc, a, 1.0) is None
    assert _occur(acc, b, 1.5) is None


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
