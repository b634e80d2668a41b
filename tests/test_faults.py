"""Deterministic fault injection and the degraded-mode report.

The acceptance bar (ISSUE): a faulted evaluation must be byte-for-byte
deterministic under a fixed schedule seed, the sanitizer must stay
green while rebuild/retransmit traffic flows, NFS stalls must bound —
never hang — the run, and RAID 10 must earn a measurably better
graceful-degradation verdict than RAID 5 for an array-bound workload.
Characterization sweeps here are tiny (tables only feed the report's
used-percentage rows, not the simulated run itself).
"""

import json

import pytest

from repro.clusters import aohyper_config, build_system
from repro.core import Methodology
from repro.faults import FaultInjector, FaultSchedule, FaultScheduleError, FaultSpec
from repro.simengine.core import Environment
from repro.storage.base import KiB, MiB
from repro.workloads.apps import BTIOApplication, MadBenchApplication
from repro.workloads.btio import BTIOConfig
from repro.workloads.madbench import MadBenchConfig

SMALL_SWEEP = dict(
    block_sizes=(256 * KiB, 1 * MiB),
    char_file_bytes=8 * MiB,
    ior_file_bytes=64 * MiB,
)

BTIO_S = BTIOApplication(BTIOConfig(clazz="S", nprocs=4, subtype="full"))


@pytest.fixture(scope="module")
def meth():
    m = Methodology(
        {n: aohyper_config(n) for n in ("raid5", "raid10")}, **SMALL_SWEEP
    )
    m.characterize()
    return m


def faults_json(report) -> str:
    return json.dumps(report.faults, sort_keys=True)


# ----------------------------------------------------------------------
# schedule validation and (de)serialization
# ----------------------------------------------------------------------
class TestSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(t_s=1.0, kind="meteor_strike")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultSpec(t_s=-0.1, kind="disk_fail")

    def test_duration_kinds_need_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(t_s=1.0, kind="nfs_stall")

    def test_rejects_bad_direction_and_network(self):
        with pytest.raises(ValueError):
            FaultSpec(t_s=0.0, kind="link_flap", duration_s=1.0, direction="sideways")
        with pytest.raises(ValueError):
            FaultSpec(t_s=0.0, kind="link_flap", duration_s=1.0, network="wifi")

    def test_entries_sorted_by_time(self):
        sched = FaultSchedule(
            entries=(
                FaultSpec(t_s=2.0, kind="nfs_stall", duration_s=1.0),
                FaultSpec(t_s=0.5, kind="disk_fail"),
            )
        )
        assert [s.t_s for s in sched] == [0.5, 2.0]

    def test_json_roundtrip(self):
        sched = FaultSchedule(
            entries=(
                FaultSpec(t_s=0.1, kind="disk_fail", disk=1, rebuild_rate_Bps=10**7),
                FaultSpec(t_s=0.2, kind="latency_spike", duration_s=0.5, factor=3.0),
            ),
            seed=42,
        )
        again = FaultSchedule.from_json(sched.to_json())
        assert again == sched
        assert again.seed == 42

    def test_save_load(self, tmp_path):
        path = tmp_path / "sched.json"
        sched = FaultSchedule(
            entries=(FaultSpec(t_s=0.3, kind="nfs_stall", duration_s=2.0),), seed=7
        )
        sched.save(path)
        assert FaultSchedule.load(path) == sched

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises((TypeError, ValueError)):
            FaultSchedule.from_dict(
                {"entries": [{"t_s": 0.1, "kind": "disk_fail", "blast_radius": 9}]}
            )

    @pytest.mark.parametrize(
        "entry, match",
        [
            # NaN used to pass every `x < 0` check: a NaN t_s injected at t = 0
            ({"t_s": float("nan"), "kind": "nfs_stall", "duration_s": 1.0}, "fault time"),
            ({"t_s": 0.1, "kind": "nfs_stall", "duration_s": float("nan")}, "duration_s"),
            ({"t_s": 0.1, "kind": "latency_spike", "duration_s": 1.0, "factor": float("nan")},
             "factor"),
            ({"t_s": 0.1, "kind": "disk_fail", "rebuild_rate_Bps": float("nan")},
             "rebuild_rate_Bps"),
            ({"t_s": 0.1, "kind": "disk_fail", "hot_spare_delay_s": float("nan")},
             "hot_spare_delay_s"),
            # a fractional member index used to crash the rebuild
            ({"t_s": 0.1, "kind": "disk_fail", "disk": 1.5}, "disk index"),
            ({"t_s": 0.1, "kind": "disk_fail", "disk": True}, "disk index"),
            ({"t_s": 0.1, "kind": "disk_fail", "rebuild_bytes": 4096.5}, "rebuild_bytes"),
            ({"t_s": 0.1, "kind": "disk_fail", "rebuild_bytes": True}, "rebuild_bytes"),
            # rebuild I/O has no priority of its own
            ({"t_s": 0.1, "kind": "disk_fail", "rebuild_priority": -7}, "rebuild_priority"),
        ],
    )
    def test_from_dict_rejects_bad_entry(self, entry, match):
        with pytest.raises(FaultScheduleError, match=match):
            FaultSchedule.from_dict({"entries": [entry]})


# ----------------------------------------------------------------------
# injector arming
# ----------------------------------------------------------------------
class TestInjector:
    def _system(self):
        return build_system(Environment(), aohyper_config("raid5"))

    def test_arm_twice_raises(self):
        system = self._system()
        inj = FaultInjector(
            system, FaultSchedule(entries=(FaultSpec(t_s=0.1, kind="disk_fail"),))
        )
        inj.arm()
        with pytest.raises(RuntimeError, match="armed"):
            inj.arm()

    def test_arm_rejects_bad_disk_index(self):
        system = self._system()
        inj = FaultInjector(
            system,
            FaultSchedule(entries=(FaultSpec(t_s=0.1, kind="disk_fail", disk=99),)),
        )
        with pytest.raises(ValueError, match="out of range"):
            inj.arm()

    def test_arm_rejects_unknown_node(self):
        system = self._system()
        inj = FaultInjector(
            system,
            FaultSchedule(
                entries=(FaultSpec(t_s=0.1, kind="disk_fail", target="n999"),)
            ),
        )
        with pytest.raises((KeyError, ValueError)):
            inj.arm()

    def test_arm_rejects_unknown_endpoint(self):
        system = self._system()
        inj = FaultInjector(
            system,
            FaultSchedule(
                entries=(
                    FaultSpec(
                        t_s=0.1, kind="link_flap", target="nowhere", duration_s=1.0
                    ),
                )
            ),
        )
        with pytest.raises(ValueError, match="endpoint"):
            inj.arm()


# ----------------------------------------------------------------------
# end-to-end: the repo's smoke schedule (disk failure + NFS stall)
# ----------------------------------------------------------------------
SMOKE = FaultSchedule(
    entries=(
        FaultSpec(t_s=0.13, kind="disk_fail", disk=0, rebuild_rate_Bps=50_000_000),
        FaultSpec(t_s=0.25, kind="nfs_stall", duration_s=2.5),
    ),
    seed=1234,
)


class TestFaultedEvaluation:
    def test_deterministic_sanitized_and_bounded(self, meth):
        healthy = meth.evaluate(BTIO_S, names=["raid5"])["raid5"]
        r1 = meth.evaluate(BTIO_S, names=["raid5"], faults=SMOKE, sanitize=True)[
            "raid5"
        ]
        r2 = meth.evaluate(BTIO_S, names=["raid5"], faults=SMOKE, sanitize=True)[
            "raid5"
        ]
        # byte-identical degraded-mode report under the same seed
        assert faults_json(r1) == faults_json(r2)

        f = r1.faults
        assert f["baseline"] == "twin-run"
        assert f["verdict"] in ("graceful", "degraded")
        assert f["data_loss"] is None
        # rebuild traffic flowed on the server array
        assert f["rebuild"]["ionode"]["bytes_read"] > 0
        assert f["windows"][0]["outcome"] in ("rebuilding", "rebuilt")
        # the stall produced retries, not a hang: the run completed with
        # a bounded slowdown (stall duration plus retransmit tax)
        assert f["nfs"]["retransmits"] > 0
        assert r1.execution_time_s <= healthy.execution_time_s + 2.5 + 1.5
        # instrumentation is forced on: utilization re-attribution present
        assert "utilization_windows" in f["windows"][0]
        # sanitizer green: rebuild/retransmit bytes accounted as overhead
        assert r1.sanitizer["violations"] == []
        assert r1.sanitizer["counters"]["rebuild_bytes"]["read"] > 0
        assert r1.sanitizer["counters"]["retransmit_bytes"] > 0
        # phase-replay extrapolation forced off under faults: every
        # iteration is simulated for real
        assert r1.replay is None or r1.replay.extrapolated == 0

    def test_second_failure_is_terminal_data_loss(self, meth):
        sched = FaultSchedule(
            entries=(
                FaultSpec(t_s=0.10, kind="disk_fail", disk=0),
                FaultSpec(t_s=0.15, kind="disk_fail", disk=1),
            ),
            seed=9,
        )
        r = meth.evaluate(BTIO_S, names=["raid5"], faults=sched)["raid5"]
        assert r.faults["verdict"] == "data-loss"
        assert r.faults["data_loss"]
        assert r.faults["rebuild"]["ionode"]["aborted"] == 1

    def test_link_faults_complete_with_outcomes(self, meth):
        sched = FaultSchedule(
            entries=(
                FaultSpec(
                    t_s=0.05, kind="link_flap", target="ionode", duration_s=0.2
                ),
                FaultSpec(
                    t_s=0.30,
                    kind="latency_spike",
                    target="ionode",
                    duration_s=0.2,
                    factor=4.0,
                ),
            ),
            seed=3,
        )
        r = meth.evaluate(BTIO_S, names=["raid5"], faults=sched)["raid5"]
        outcomes = [w["outcome"] for w in r.faults["windows"]]
        assert outcomes == ["flapped", "spiked"]
        assert r.faults["data_loss"] is None


# ----------------------------------------------------------------------
# graceful-degradation verdicts: RAID 10 vs RAID 5
# ----------------------------------------------------------------------
def test_raid10_degrades_more_gracefully_than_raid5(meth):
    """An out-of-core array-bound workload: losing a member costs RAID 5
    a 2x media-traffic penalty on every stripe, while RAID 10 only loses
    one mirror pair's redundancy."""
    app = MadBenchApplication(
        MadBenchConfig(
            kpix=8,
            nprocs=4,
            filetype="unique",
            path="/local/madbench",
            busywork_s=0.0,
        )
    )
    verdicts = {}
    ratios = {}
    for name in ("raid5", "raid10"):
        healthy = meth.evaluate(app, names=[name])[name]
        sched = FaultSchedule(
            entries=(
                FaultSpec(
                    t_s=0.3 * healthy.execution_time_s,
                    kind="disk_fail",
                    target="n0",
                    disk=0,
                    rebuild_rate_Bps=50_000_000,
                ),
            ),
            seed=11,
        )
        r = meth.evaluate(app, names=[name], faults=sched)[name]
        verdicts[name] = r.faults["verdict"]
        ratios[name] = min(r.faults["bandwidth_ratio"].values())
    assert verdicts["raid5"] == "degraded"
    assert verdicts["raid10"] == "graceful"
    assert ratios["raid10"] > ratios["raid5"]


def test_run_report_carries_faults_section(meth):
    from repro.obs.runreport import build_run_report

    reports = meth.evaluate(BTIO_S, names=["raid5"], faults=SMOKE)
    doc = build_run_report("btio", reports)
    assert doc["configs"]["raid5"]["faults"]["verdict"] in (
        "graceful", "degraded", "data-loss"
    )


# ----------------------------------------------------------------------
# strict schedule parsing: collected errors (FaultScheduleError)
# ----------------------------------------------------------------------
class TestStrictScheduleParsing:
    def test_unknown_top_level_keys_rejected(self):
        from repro.faults import FaultScheduleError

        with pytest.raises(FaultScheduleError) as excinfo:
            FaultSchedule.from_dict(
                {"seed": 1, "entries": [], "jitter": 0.1, "comment": "hi"}
            )
        (err,) = excinfo.value.errors
        assert err == "schedule: unknown keys ['comment', 'jitter']"

    def test_all_errors_collected_not_just_first(self):
        """Multi-error style matches WorkloadSpecError: one pass reports
        every problem, each prefixed with where it lives."""
        from repro.faults import FaultScheduleError

        doc = {
            "seed": "zero",
            "entries": [
                {"t_s": 0.1, "kind": "warp_core_breach"},
                {"t_s": -1.0, "kind": "disk_fail"},
                "not-an-object",
                {"t_s": 0.2, "kind": "nfs_stall", "duration_s": 1.0, "blast": 9},
            ],
            "surprise": True,
        }
        with pytest.raises(FaultScheduleError) as excinfo:
            FaultSchedule.from_dict(doc)
        errors = excinfo.value.errors
        assert len(errors) == 6
        assert any(e.startswith("schedule: unknown keys") for e in errors)
        assert any(e.startswith("seed:") for e in errors)
        assert any(e.startswith("entries[0]:") and "warp_core_breach" in e for e in errors)
        assert any(e.startswith("entries[1]:") for e in errors)
        assert any(e.startswith("entries[2]:") for e in errors)
        assert any(e.startswith("entries[3]:") and "blast" in e for e in errors)
        # and the exception message joins them all
        assert str(excinfo.value).count(";") == 5

    def test_faultscheduleerror_is_a_valueerror(self):
        from repro.faults import FaultScheduleError

        assert issubclass(FaultScheduleError, ValueError)
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"entries": [{"kind": "nope", "t_s": 0}]})

    def test_out_of_order_windows_normalise_and_round_trip(self):
        """Out-of-order entries are not an error: construction sorts by
        injection time, and the JSON round trip is a fixed point."""
        doc = {
            "seed": 5,
            "entries": [
                {"t_s": 9.0, "kind": "latency_spike", "duration_s": 1.0, "factor": 2.0},
                {"t_s": 1.0, "kind": "disk_fail"},
                {"t_s": 4.0, "kind": "nfs_stall", "duration_s": 0.5},
            ],
        }
        sched = FaultSchedule.from_dict(doc)
        assert [e.t_s for e in sched] == [1.0, 4.0, 9.0]
        again = FaultSchedule.from_json(sched.to_json())
        assert again == sched
        assert again.to_json() == sched.to_json()

    def test_bool_seed_rejected(self):
        from repro.faults import FaultScheduleError

        with pytest.raises(FaultScheduleError, match="seed"):
            FaultSchedule.from_dict({"seed": True, "entries": []})

    def test_non_list_entries_rejected(self):
        from repro.faults import FaultScheduleError

        with pytest.raises(FaultScheduleError, match="entries"):
            FaultSchedule.from_dict({"entries": {"t_s": 0, "kind": "disk_fail"}})
