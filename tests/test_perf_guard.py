"""scripts/perf_guard.py: the cross-run timing check."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_guard.py"


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("perf_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(path: Path, timings: dict, kind: str = "evaluate") -> str:
    path.write_text(json.dumps({
        "benchmark": kind,
        "params": {"faults": None},
        "timings_s": timings,
    }))
    return str(path)


def test_within_factor_passes(guard, tmp_path):
    base = _bench(tmp_path / "base.json", {"evaluate_full": 1.0})
    fresh = _bench(tmp_path / "fresh.json", {"evaluate_full": 1.1})
    assert guard.check(base, fresh, factor=1.25) == []


def test_slowdown_fails(guard, tmp_path):
    base = _bench(tmp_path / "base.json", {"evaluate_full": 1.0})
    fresh = _bench(tmp_path / "fresh.json", {"evaluate_full": 1.5})
    problems = guard.check(base, fresh, factor=1.25)
    assert len(problems) == 1 and "evaluate_full" in problems[0]


def test_guarded_timing_missing_from_fresh_run_fails(guard, tmp_path):
    base = _bench(tmp_path / "base.json", {"evaluate_full": 1.0})
    fresh = _bench(tmp_path / "fresh.json", {})
    problems = guard.check(base, fresh, factor=1.25)
    assert len(problems) == 1 and "missing" in problems[0]


def test_guarded_timing_missing_from_baseline_skips(guard, tmp_path):
    base = _bench(tmp_path / "base.json", {})
    fresh = _bench(tmp_path / "fresh.json", {"evaluate_full": 9.0})
    assert guard.check(base, fresh, factor=1.25) == []


def test_cache_churn_is_guarded(guard, tmp_path):
    assert "kernel_cache_churn" in guard.GUARDED_KEYS["kernel"]
    base = _bench(tmp_path / "base.json", {"kernel_cache_churn": 0.2}, "kernel")
    ok = _bench(tmp_path / "ok.json", {"kernel_cache_churn": 0.22}, "kernel")
    assert guard.check(base, ok, factor=1.25) == []
    # an O(n) eviction is a ~1.5x slowdown of this scenario
    slow = _bench(tmp_path / "slow.json", {"kernel_cache_churn": 0.3}, "kernel")
    problems = guard.check(base, slow, factor=1.25)
    assert len(problems) == 1 and "kernel_cache_churn" in problems[0]
    gone = _bench(tmp_path / "gone.json", {}, "kernel")
    problems = guard.check(base, gone, factor=1.25)
    assert len(problems) == 1 and "missing" in problems[0]


def test_kernel_microbench_emits_every_guarded_scenario(guard):
    from repro.simengine.bench import _SCENARIOS

    guarded = set(guard.GUARDED_KEYS["kernel"]) - {"kernel_total"}
    assert guarded <= {f"kernel_{name}" for name in _SCENARIOS}
