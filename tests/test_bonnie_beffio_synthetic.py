"""Tests for the synthetic workload generator."""

import pytest

from repro.simengine import Environment
from repro.clusters.builder import build_system
from repro.storage.base import KiB
from repro.workloads.synthetic import SyntheticPhase, SyntheticSpec, run_synthetic
from conftest import small_config


class TestSynthetic:
    def make_spec(self, **kw):
        defaults = dict(
            phases=(
                SyntheticPhase("write", 256 * KiB, repetitions=3, compute_s=0.01),
                SyntheticPhase("read", 256 * KiB, repetitions=3),
            ),
            nprocs=2,
        )
        defaults.update(kw)
        return SyntheticSpec(**defaults)

    def test_runs_and_traces(self):
        system = build_system(Environment(), small_config(n_compute=2))
        res = run_synthetic(system, self.make_spec())
        assert res.execution_time > 0
        assert 0 < res.io_time <= res.execution_time
        assert res.tracer.count_ops("write") == 3 * 2
        assert res.tracer.count_ops("read") == 3 * 2

    def test_collective_phases(self):
        system = build_system(Environment(), small_config(n_compute=2))
        spec = self.make_spec(
            phases=(SyntheticPhase("write", 512 * KiB, repetitions=2, collective=True),)
        )
        res = run_synthetic(system, spec)
        assert all(e.collective for e in res.tracer.events)

    def test_per_process_files(self):
        system = build_system(Environment(), small_config(n_compute=2))
        spec = self.make_spec(per_process_files=True, path="/nfs/syn.dat")
        run_synthetic(system, spec)
        assert system.export.exists("/nfs/syn.dat.0")
        assert system.export.exists("/nfs/syn.dat.1")

    def test_strided_phase_geometry_traced(self):
        system = build_system(Environment(), small_config(n_compute=2))
        spec = self.make_spec(
            phases=(SyntheticPhase("write", 4 * KiB, count=16, stride=16 * KiB),)
        )
        res = run_synthetic(system, spec)
        ev = res.tracer.events[0]
        assert ev.count == 16 and ev.stride == 16 * KiB

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticPhase("append", 1024)
        with pytest.raises(ValueError):
            SyntheticPhase("write", 0)
        with pytest.raises(ValueError):
            SyntheticSpec(phases=())
