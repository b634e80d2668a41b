"""Configuration-analysis tests: factor extraction, diffs, ranking."""

from repro.clusters import aohyper_config, cluster_a_config
from repro.core.characterize import AppMeasure, AppProfile
from repro.core.factors import extract_factors, rank_configurations
from repro.core.perftable import PerfRow, PerformanceTable
from repro.storage.base import AccessMode, AccessType, MiB


class TestExtraction:
    def test_aohyper_raid5_factors(self):
        f = extract_factors(aohyper_config("raid5"))
        assert f.server_organization == "raid5"
        assert f.n_server_devices == 5
        assert f.stripe_bytes == 256 * 1024
        assert f.n_networks == 2
        assert f.data_redundancy
        assert not f.service_redundancy

    def test_jbod_has_no_redundancy(self):
        f = extract_factors(aohyper_config("jbod"))
        assert not f.data_redundancy
        assert f.server_organization == "jbod"

    def test_cluster_a_factors(self):
        f = extract_factors(cluster_a_config())
        assert f.local_organization == "jbod"
        assert f.server_organization == "raid5"
        assert f.dedicated_data_network

    def test_as_dict_complete(self):
        d = extract_factors(aohyper_config("raid1")).as_dict()
        assert d["server_organization"] == "raid1"
        assert "client_cache" in d and "n_io_nodes" in d


def diff(a, b):
    da, db = a.as_dict(), b.as_dict()
    return {k: (da[k], db[k]) for k in da if k != "name" and da[k] != db[k]}


class TestDiff:
    def test_diff_reports_changed_factors_only(self):
        a = extract_factors(aohyper_config("jbod"))
        b = extract_factors(aohyper_config("raid5"))
        d = diff(a, b)
        assert "server_organization" in d
        assert d["server_organization"] == ("jbod", "raid5")
        assert "n_networks" not in d

    def test_diff_identical_empty(self):
        a = extract_factors(aohyper_config("raid1"))
        b = extract_factors(aohyper_config("raid1"))
        assert diff(a, b) == {}


def make_profile(write_bytes=100, read_bytes=0):
    p = AppProfile(nprocs=4)
    if write_bytes:
        p.measures.append(
            AppMeasure("write", 1 * MiB, AccessMode.SEQUENTIAL, AccessType.GLOBAL, 1, write_bytes, 1.0)
        )
    if read_bytes:
        p.measures.append(
            AppMeasure("read", 1 * MiB, AccessMode.SEQUENTIAL, AccessType.GLOBAL, 1, read_bytes, 1.0)
        )
    return p


def tables_for(name, write_rate, read_rate):
    t = PerformanceTable("nfs")
    t.add(PerfRow("write", 1 * MiB, AccessType.GLOBAL, AccessMode.SEQUENTIAL, write_rate))
    t.add(PerfRow("read", 1 * MiB, AccessType.GLOBAL, AccessMode.SEQUENTIAL, read_rate))
    return {"nfs": t}


class TestRanking:
    def test_weighting_follows_dominant_operation(self):
        """A write-heavy app prefers the write-fast config; the paper:
        'analyze the operation with more weight'."""
        tables = {
            "wfast": tables_for("wfast", write_rate=200.0, read_rate=10.0),
            "rfast": tables_for("rfast", write_rate=10.0, read_rate=200.0),
        }
        write_heavy = make_profile(write_bytes=1000, read_bytes=10)
        ranked = rank_configurations(write_heavy, tables)
        assert ranked[0].name == "wfast"
        read_heavy = make_profile(write_bytes=10, read_bytes=1000)
        ranked = rank_configurations(read_heavy, tables)
        assert ranked[0].name == "rfast"

    def test_redundancy_requirement_filters(self):
        tables = {
            "jbod": tables_for("jbod", 300.0, 300.0),
            "raid1": tables_for("raid1", 100.0, 100.0),
        }
        factors = {
            "jbod": extract_factors(aohyper_config("jbod")),
            "raid1": extract_factors(aohyper_config("raid1")),
        }
        ranked = rank_configurations(
            make_profile(), tables, require_redundancy=True, factors_by_config=factors
        )
        assert [s.name for s in ranked] == ["raid1"]

    def test_missing_level_skipped(self):
        ranked = rank_configurations(make_profile(), {"x": {}})
        assert ranked == []

    def test_scores_sorted_descending(self):
        tables = {
            "slow": tables_for("slow", 10.0, 10.0),
            "fast": tables_for("fast", 100.0, 100.0),
            "mid": tables_for("mid", 50.0, 50.0),
        }
        ranked = rank_configurations(make_profile(), tables)
        assert [s.name for s in ranked] == ["fast", "mid", "slow"]
