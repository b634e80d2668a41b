"""Predictive I/O model tests (the paper's future-work feature)."""

import pytest

from repro.core.characterize import AppMeasure, AppProfile
from repro.core.perftable import PerfRow, PerformanceTable
from repro.core.prediction import (
    meets_requirement,
    predict_io_time,
    rank_predicted,
)
from repro.storage.base import AccessMode, AccessType, MiB


def measure(op="write", block=1 * MiB, total=100 * MiB, mode=AccessMode.SEQUENTIAL):
    return AppMeasure(op, block, mode, AccessType.GLOBAL, total // block, total, 1.0)


def profile(*measures):
    p = AppProfile(nprocs=4)
    p.measures.extend(measures)
    return p


def tables(iolib=100e6, nfs=80e6, localfs=300e6, op="write"):
    out = {}
    for level, rate in (("iolib", iolib), ("nfs", nfs), ("localfs", localfs)):
        t = PerformanceTable(level)
        t.add(PerfRow(op, 1 * MiB, AccessType.GLOBAL, AccessMode.SEQUENTIAL, rate))
        out[level] = t
    return out


class TestPredict:
    def test_limiting_level_is_slowest(self):
        pred = predict_io_time("cfg", profile(measure()), tables())
        assert pred.per_measure[0].limiting_level == "nfs"
        assert pred.per_measure[0].limiting_rate_Bps == 80e6

    def test_predicted_time_bytes_over_rate(self):
        pred = predict_io_time("cfg", profile(measure(total=160 * MiB)), tables(nfs=80 * MiB))
        assert pred.io_time_s == pytest.approx(2.0)

    def test_sums_over_measures(self):
        prof = profile(
            measure(op="write", total=100 * MiB),
            measure(op="read", total=50 * MiB),
        )
        tbls = tables()
        for t in tables(op="read").values():
            tbls[t.level].rows.extend(t.rows)
        pred = predict_io_time("cfg", prof, tbls)
        per_op = {p.measure.op: p.predicted_time_s for p in pred.per_measure}
        assert pred.io_time_s == pytest.approx(per_op["write"] + per_op["read"])
        assert per_op["read"] == pytest.approx(50 * MiB / 80e6)

    def test_missing_level_skipped(self):
        tbls = tables()
        del tbls["localfs"]
        pred = predict_io_time("cfg", profile(measure()), tbls)
        assert pred.per_measure[0].limiting_level == "nfs"

    def test_no_tables_zero_prediction(self):
        pred = predict_io_time("cfg", profile(measure()), {})
        assert pred.io_time_s == 0.0
        assert pred.per_measure[0].limiting_level is None

    def test_limiting_levels_histogram(self):
        pred = predict_io_time("cfg", profile(measure(), measure(op="write", block=1 * MiB)), tables())
        assert pred.limiting_levels() == {"nfs": 2}


class TestRequirements:
    def test_time_budget(self):
        pred = predict_io_time("cfg", profile(measure(total=160 * MiB)), tables(nfs=80 * MiB))
        assert meets_requirement(pred, max_io_time_s=3.0)
        assert not meets_requirement(pred, max_io_time_s=1.0)

    def test_bandwidth_floor(self):
        pred = predict_io_time("cfg", profile(measure(total=160 * MiB)), tables(nfs=80 * MiB))
        assert meets_requirement(pred, min_bandwidth_Bps=50 * MiB)
        assert not meets_requirement(pred, min_bandwidth_Bps=200 * MiB)

    def test_no_constraints_always_met(self):
        pred = predict_io_time("cfg", profile(measure()), tables())
        assert meets_requirement(pred)


class TestRanking:
    def test_fastest_config_first(self):
        prof = profile(measure())
        by_config = {
            "slow": tables(nfs=10e6),
            "fast": tables(nfs=100e6),
        }
        ranked = rank_predicted(prof, by_config)
        assert [p.config_name for p in ranked] == ["fast", "slow"]
        assert ranked[0].io_time_s < ranked[1].io_time_s


class TestAgainstSimulation:
    def test_prediction_tracks_simulated_io_time(self):
        """The static prediction should land within ~3x of the simulated
        I/O time for a collective streaming workload (the model ignores
        overlap and metadata, so it is approximate by design)."""
        from repro.core import Methodology
        from repro.storage.base import KiB
        from repro.workloads.apps import BTIOApplication
        from repro.workloads.btio import BTIOConfig
        from conftest import small_config

        m = Methodology(
            {"jbod": small_config("jbod")},
            block_sizes=(64 * KiB, 1 * MiB),
            char_file_bytes=16 * MiB,
            ior_nprocs=2,
            ior_file_bytes=8 * MiB,
        )
        m.characterize()
        app = BTIOApplication(BTIOConfig(clazz="W", nprocs=4, subtype="full", path="/nfs/bt"))
        reports = m.evaluate(app)
        actual = reports["jbod"].io_time_s
        pred = predict_io_time("jbod", reports["jbod"].profile, m.tables["jbod"])
        assert pred.io_time_s > 0
        assert pred.io_time_s / actual < 3.0
        assert actual / pred.io_time_s < 3.0
