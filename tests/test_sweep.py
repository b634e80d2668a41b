"""The crash-safe sweep orchestrator: plan, pool, resume, report.

The acceptance bar (ISSUE): a sweep SIGKILL'd and resumed converges on
byte-identical result records to an uninterrupted run; a hung shard is
timed out, retried with seeded backoff, and quarantined without
stalling the sweep; worker loss shrinks the pool instead of aborting.
Real-simulation tests use the quick characterization sweep so each
task runs in tens of milliseconds.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.storage.base import KiB, MiB
from repro.sweep import (
    PlanError,
    PoolExhaustedError,
    SweepRunner,
    build_plan,
    char_params,
    collect_faults,
    collect_workloads,
    run_sweep,
    run_sweep_task,
)
from repro.core.pool import backoff_s
from repro.sweep.store import StoreError

QUICK_CHAR = char_params(
    (256 * KiB, 1 * MiB), char_file_bytes=8 * MiB, ior_file_bytes=64 * MiB
)

RUNNER_KW = dict(timeout_s=30.0, backoff_base_s=0.01, heartbeat_timeout_s=30.0)


def quick_plan(configs=("jbod",), workloads=("madbench:2:4",), faults=("none",),
               fuzz_seeds=()):
    return build_plan(
        list(configs),
        collect_workloads(named=list(workloads), fuzz_seeds=list(fuzz_seeds)),
        collect_faults(list(faults)),
        QUICK_CHAR,
    )


# ----------------------------------------------------------------------
# plan enumeration
# ----------------------------------------------------------------------
class TestPlan:
    def test_cross_product_size_and_identity(self):
        plan = quick_plan(
            configs=("jbod", "raid1"),
            workloads=("madbench:2:4", "btio:S:4"),
            faults=("none",),
        )
        assert len(plan) == 2 * 2 * 1
        assert len({t.fp for t in plan}) == len(plan)
        for t in plan:
            assert t.payload["schema"] == "repro.sweep-task/1"
            assert t.payload["char"] == QUICK_CHAR

    def test_duplicate_axis_values_dedupe_by_fingerprint(self):
        doubled = quick_plan(workloads=("madbench:2:4", "madbench:2:4"))
        assert len(doubled) == len(quick_plan())

    def test_fuzz_seed_and_its_own_spec_collapse(self, tmp_path):
        from repro.workloads.fuzz import fuzz_spec

        doc = fuzz_spec(0, max_phases=6)
        path = tmp_path / "seed0.json"
        path.write_text(json.dumps(doc))
        wls = collect_workloads(spec_files=[str(path)], fuzz_seeds=[0])
        plan = build_plan(["jbod"], wls, collect_faults(["none"]), QUICK_CHAR)
        assert len(plan) == 1

    def test_config_axis_varies_fastest(self):
        plan = quick_plan(configs=("jbod", "raid1"),
                          workloads=("madbench:2:4", "btio:S:4"))
        assert [t.payload["config"] for t in plan[:2]] == ["jbod", "raid1"]

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(PlanError, match="unknown configuration"):
            quick_plan(configs=("ramdisk",))
        with pytest.raises(PlanError, match="no workloads"):
            build_plan(["jbod"], collect_workloads(), collect_faults([]), QUICK_CHAR)
        with pytest.raises(PlanError, match="unknown workload kind"):
            collect_workloads(named=["iozone:1"])

    @pytest.mark.parametrize("text", ["btio:A:5", "madbench:0"])
    def test_invalid_workload_geometry_rejected_at_parse(self, text):
        with pytest.raises(PlanError, match="bad workload descriptor"):
            collect_workloads(named=[text])


# ----------------------------------------------------------------------
# the pool, with toy worker functions (fork context: closures are fine,
# but module-level keeps them honest)
# ----------------------------------------------------------------------
def _toy_ok(payload):
    return {"result": {"doubled": payload["n"] * 2}}


def _toy_boom(payload):
    raise RuntimeError(f"injected failure for n={payload['n']}")


def _toy_hang(payload):
    if payload.get("hang"):
        time.sleep(60)
    return {"result": {"n": payload["n"]}}


def _toy_crash_once(payload):
    flag = Path(payload["flag"])
    if not flag.exists():
        flag.write_text("crashed")
        os._exit(13)
    return {"result": {"n": payload["n"]}}


def _toy_exit(payload):
    os._exit(7)


class TestRunner:
    def test_completes_all_tasks(self):
        got = {}
        runner = SweepRunner(
            _toy_ok, n_jobs=2, **RUNNER_KW,
            on_result=lambda fp, task, body: got.update({fp: body}),
        )
        tasks = [(f"fp{i}", {"n": i}) for i in range(10)]
        stats = runner.run(tasks)
        assert stats.completed == 10
        assert stats.quarantined == 0
        assert got["fp3"] == {"result": {"doubled": 6}}

    def test_error_retries_then_quarantines(self):
        quarantined = {}
        runner = SweepRunner(
            _toy_boom, n_jobs=1, max_attempts=3, **RUNNER_KW,
            on_quarantine=lambda fp, task, fails: quarantined.update({fp: fails}),
        )
        stats = runner.run([("fpX", {"n": 1})])
        assert stats.completed == 0
        assert stats.quarantined == 1
        assert stats.retries == 2
        fails = quarantined["fpX"]
        assert len(fails) == 3
        assert all(f.kind == "error" for f in fails)
        assert "injected failure" in fails[0].detail

    def test_hung_shard_times_out_without_stalling_sweep(self):
        """The sleep-injected hang is SIGKILLed at its wall-clock budget,
        retried, quarantined — and the healthy tasks still complete."""
        done = []
        quarantined = []
        runner = SweepRunner(
            _toy_hang, n_jobs=2, timeout_s=0.5, max_attempts=2,
            backoff_base_s=0.01, heartbeat_timeout_s=30.0,
            on_result=lambda fp, task, body: done.append(fp),
            on_quarantine=lambda fp, task, fails: quarantined.append(fp),
        )
        tasks = [("hang", {"n": 0, "hang": True})] + [
            (f"ok{i}", {"n": i}) for i in range(1, 5)
        ]
        stats = runner.run(tasks)
        assert sorted(done) == ["ok1", "ok2", "ok3", "ok4"]
        assert quarantined == ["hang"]
        assert stats.timeouts == 2  # both attempts hit the budget
        assert stats.respawns >= 2  # killed workers were replaced

    def test_worker_crash_retried_and_pool_survives(self, tmp_path):
        done = []
        runner = SweepRunner(
            _toy_crash_once, n_jobs=2, max_attempts=3, **RUNNER_KW,
            on_result=lambda fp, task, body: done.append(fp),
        )
        tasks = [
            (f"fp{i}", {"n": i, "flag": str(tmp_path / f"flag{i}")})
            for i in range(4)
        ]
        stats = runner.run(tasks)
        assert sorted(done) == [f"fp{i}" for i in range(4)]
        assert stats.crashes == 4  # every task crashed its first attempt
        assert stats.quarantined == 0

    def test_pool_exhaustion_raises_resumable_error(self):
        runner = SweepRunner(
            _toy_exit, n_jobs=1, max_attempts=100, max_respawns=1, **RUNNER_KW,
        )
        with pytest.raises(PoolExhaustedError, match="resume"):
            runner.run([("fp0", {"n": 0})])

    def test_backoff_is_seeded_and_exponential(self):
        a1 = backoff_s(0, "fp", 1, 0.5)
        assert a1 == backoff_s(0, "fp", 1, 0.5)
        assert a1 != backoff_s(1, "fp", 1, 0.5)
        assert a1 != backoff_s(0, "fp", 2, 0.5)
        # envelope: base * 2^(k-1) * [0.5, 1.5)
        for k in (1, 2, 3):
            b = backoff_s(7, "x", k, 0.5)
            assert 0.5 * 2 ** (k - 1) * 0.5 <= b < 0.5 * 2 ** (k - 1) * 1.5


# ----------------------------------------------------------------------
# the worker: pure function of the task
# ----------------------------------------------------------------------
class TestWorker:
    def test_result_is_pure_and_deterministic(self, tmp_path):
        task = quick_plan()[0]
        a = run_sweep_task(task.payload, cache_root=str(tmp_path / "c1"))
        b = run_sweep_task(task.payload, cache_root=str(tmp_path / "c2"))
        assert a == b
        r = a["result"]
        assert r["execution_time_s"] > 0
        assert r["workload_fingerprint"]
        assert "used" in r
        # no wall clocks, no paths
        assert "wall_s" not in r

    def test_faulted_task_carries_degraded_summary(self, tmp_path):
        from repro.faults import FaultSchedule, FaultSpec

        sched = tmp_path / "disk.json"
        FaultSchedule(entries=(FaultSpec(t_s=0.05, kind="disk_fail"),)).save(sched)
        plan = quick_plan(configs=("raid5",), faults=(str(sched),))
        out = run_sweep_task(plan[0].payload, cache_root=str(tmp_path / "c"))
        f = out["result"]["faults"]
        assert f is not None and f["verdict"]


# ----------------------------------------------------------------------
# end-to-end orchestration
# ----------------------------------------------------------------------
class TestOrchestration:
    def test_fresh_run_then_resume_is_noop(self, tmp_path):
        rundir = tmp_path / "run"
        plan = quick_plan(configs=("jbod", "raid1"))
        out = run_sweep(rundir, plan, params={"n_jobs": 2}, fsync=False)
        assert out.exit_code == 0
        assert out.report["integrity"]["ok"]
        assert out.report["integrity"]["completed"] == len(plan)
        before = (rundir / "results.jsonl").read_bytes()
        again = run_sweep(rundir, resume=True, fsync=False)
        assert again.exit_code == 0
        assert (rundir / "results.jsonl").read_bytes() == before

    def test_fresh_run_refuses_existing_manifest(self, tmp_path):
        rundir = tmp_path / "run"
        plan = quick_plan()
        run_sweep(rundir, plan, fsync=False)
        with pytest.raises(StoreError, match="resume"):
            run_sweep(rundir, plan, fsync=False)

    def test_torn_tail_resume_matches_uninterrupted(self, tmp_path):
        """Simulated crash: truncate the WAL mid-record, resume, and the
        merged file is byte-identical to the uninterrupted reference."""
        plan = quick_plan(configs=("jbod", "raid1"))
        ref = tmp_path / "ref"
        run_sweep(ref, plan, fsync=False)
        full = (ref / "results.jsonl").read_bytes()

        victim = tmp_path / "victim"
        run_sweep(victim, plan, fsync=False, cache_root=str(ref / "cache"))
        path = victim / "results.jsonl"
        path.write_bytes(path.read_bytes()[: len(full) - 25])  # torn tail
        out = run_sweep(victim, resume=True, fsync=False,
                        cache_root=str(ref / "cache"))
        assert out.exit_code == 0
        assert path.read_bytes() == full

    def test_sigkill_resume_byte_identity(self, tmp_path):
        """The headline property: SIGKILL the orchestrator mid-run, then
        ``--resume`` converges on records byte-identical (order-
        normalised by fingerprint) to an uninterrupted run."""
        plan = quick_plan(
            configs=("jbod", "raid1", "raid5"),
            workloads=("madbench:2:4", "btio:S:4"),
        )
        ref = tmp_path / "ref"
        run_sweep(ref, plan, fsync=False)
        reference = sorted((ref / "results.jsonl").read_bytes().splitlines())

        victim = tmp_path / "victim"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        code = (
            "from test_sweep import quick_plan\n"
            "from repro.sweep import run_sweep\n"
            f"run_sweep({str(victim)!r}, quick_plan(configs=('jbod', 'raid1', "
            "'raid5'), workloads=('madbench:2:4', 'btio:S:4')))\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", code], env=env)
        results = victim / "results.jsonl"
        deadline = time.time() + 120
        while time.time() < deadline:
            if results.exists() and results.stat().st_size > 0:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        out = run_sweep(victim, resume=True, fsync=False)
        assert out.exit_code == 0
        merged = sorted(results.read_bytes().splitlines())
        assert merged == reference

    def test_quarantine_surfaces_in_report_and_exit_code(self, tmp_path, monkeypatch):
        import repro.sweep.orchestrate as orch

        def poisoned(payload, cache_root=None):
            raise RuntimeError("poisoned task")

        monkeypatch.setattr(orch, "run_sweep_task", poisoned)
        plan = quick_plan()
        out = run_sweep(
            tmp_path / "run", plan, fsync=False,
            params={"max_attempts": 2, "backoff_base_s": 0.01},
        )
        assert out.exit_code == 1
        assert out.report["integrity"]["quarantined"] == 1
        (q,) = out.report["quarantine"]
        assert q["attempts"] == 2
        assert "poisoned task" in q["last_error"]

    def test_report_distributions_and_correlations(self, tmp_path):
        from repro.faults import FaultSchedule, FaultSpec

        sched = tmp_path / "disk.json"
        FaultSchedule(entries=(FaultSpec(t_s=0.05, kind="disk_fail"),)).save(sched)
        plan = quick_plan(
            configs=("raid1", "raid5"),
            workloads=("madbench:2:4", "madbench:2:8"),
            faults=("none", str(sched)),
        )
        out = run_sweep(tmp_path / "run", plan, fsync=False)
        assert out.exit_code == 0
        dist = out.report["distributions"]["run"]["io_time_s"]
        assert dist["n"] == len(plan)
        assert dist["min"] <= dist["median"] <= dist["p95"] <= dist["max"]
        corr = out.report["correlations"]["io_time_s"]
        assert "faulted" in corr and "nprocs" in corr
        report_path = tmp_path / "run" / "sweep_report.json"
        assert json.loads(report_path.read_text())["schema"] == \
            "repro.sweep-report/1"

    def test_verify_only_detects_missing_records(self, tmp_path):
        rundir = tmp_path / "run"
        plan = quick_plan(configs=("jbod", "raid1"))
        run_sweep(rundir, plan, fsync=False)
        lines = (rundir / "results.jsonl").read_text().splitlines(keepends=True)
        (rundir / "results.jsonl").write_text("".join(lines[:-1]))
        out = run_sweep(rundir, verify_only=True, fsync=False)
        assert out.exit_code == 1
        assert not out.report["integrity"]["ok"]
        assert len(out.report["integrity"]["missing"]) == 1
