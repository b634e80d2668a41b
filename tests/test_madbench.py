"""MADbench2 model tests: characterization vs Table VIII and execution."""

import pytest

from repro.simengine import Environment
from repro.clusters.builder import build_system
from repro.workloads.madbench import MadBenchConfig, characterize_madbench, run_madbench
from conftest import small_config


class TestConfig:
    def test_block_bytes_paper_values(self):
        c16 = MadBenchConfig(kpix=18, nprocs=16)
        assert c16.block_bytes == pytest.approx(162 * 1e6, rel=0.01)  # "162 MB"
        c64 = MadBenchConfig(kpix=18, nprocs=64)
        assert c64.block_bytes == pytest.approx(40.5 * 1e6, rel=0.01)  # "40.5 MB"

    def test_filetype_validation(self):
        with pytest.raises(ValueError):
            MadBenchConfig(filetype="both")

    def test_iomode_validation(self):
        with pytest.raises(ValueError):
            MadBenchConfig(iomode="async")


class TestCharacterization:
    """Paper Table VIII."""

    def test_unique_16p(self):
        char = characterize_madbench(MadBenchConfig(nprocs=16, filetype="unique"))
        assert char["num_files"] == 16
        assert char["numio_read"] == 16  # per file: 8 (W) + 8 (C)
        assert char["numio_write"] == 16  # 8 (S) + 8 (W)

    def test_shared_16p(self):
        char = characterize_madbench(MadBenchConfig(nprocs=16, filetype="shared"))
        assert char["num_files"] == 1
        assert char["numio_read"] == 256  # 16 ops x 16 procs on the one file
        assert char["numio_write"] == 256

    def test_shared_64p(self):
        char = characterize_madbench(MadBenchConfig(nprocs=64, filetype="shared"))
        assert char["numio_read"] == 1024
        assert char["numio_write"] == 1024

    def test_totals_equal_across_filetypes(self):
        u = characterize_madbench(MadBenchConfig(nprocs=16, filetype="unique"))
        s = characterize_madbench(MadBenchConfig(nprocs=16, filetype="shared"))
        assert u["numio_read_total"] == s["numio_read_total"] == 256


class TestExecution:
    def run_one(self, filetype, nprocs=4):
        system = build_system(Environment(), small_config(n_compute=2))
        cfg = MadBenchConfig(kpix=1, nbin=4, nprocs=nprocs, filetype=filetype,
                             path="/nfs/mb", busywork_s=0.05)
        return run_madbench(system, cfg)

    def test_unique_runs(self):
        res = self.run_one("unique")
        assert res.execution_time > 0
        for col in ("S_w", "W_w", "W_r", "C_r"):
            assert res.rate(col) > 0
            assert res.time(col) > 0

    def test_shared_runs(self):
        res = self.run_one("shared")
        assert res.io_time > 0
        assert res.io_time < res.execution_time

    def test_phase_structure_in_trace(self):
        res = self.run_one("unique")
        writes = res.tracer.count_ops("write")
        reads = res.tracer.count_ops("read")
        # S: 4 writes, W: 4+4, C: 4 reads, per proc
        assert writes == 2 * 4 * res.config.nprocs
        assert reads == 2 * 4 * res.config.nprocs

    def test_busywork_contributes_to_exec_time(self):
        res = self.run_one("unique")
        # 3 functions x nbin busy slots x 0.05s at least
        assert res.execution_time >= 3 * 4 * 0.05

    def test_rates_are_aggregate(self):
        res = self.run_one("shared")
        per_proc_bytes = res.config.block_bytes * res.config.nbin
        assert res.functions["S"].bytes_written == per_proc_bytes * res.config.nprocs
