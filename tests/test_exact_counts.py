"""scripts/exact_counts.py: the exact-count gate between two traced runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "exact_counts.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("exact_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(path: Path, metrics: list[str], changed: dict | None = None) -> str:
    values = {m: {"value": i, "unit": "count"} for i, m in enumerate(metrics)}
    for metric, value in (changed or {}).items():
        values[metric]["value"] = value
    path.write_text(json.dumps({"workloads": {"btio_simple_a4": {"metrics": values}}}))
    return str(path)


def test_identical_counts_pass(gate, tmp_path, capsys):
    metrics = gate.exact_metrics()
    assert "simengine.events" in metrics and "disk.readahead_hits" in metrics
    fresh = _trace(tmp_path / "fresh.json", metrics)
    ref = _trace(tmp_path / "ref.json", metrics)
    assert gate.main([fresh, ref]) == 0
    assert f"all {len(metrics)} match" in capsys.readouterr().out


def test_one_differing_count_fails(gate, tmp_path, capsys):
    metrics = gate.exact_metrics()
    fresh = _trace(tmp_path / "fresh.json", metrics, {"disk.seeks": 10**6})
    ref = _trace(tmp_path / "ref.json", metrics)
    assert gate.main([fresh, ref]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("btio_simple_a4 disk.seeks: fresh 1000000")


def test_missing_workload_fails(gate, tmp_path):
    metrics = gate.exact_metrics()
    fresh = _trace(tmp_path / "fresh.json", metrics)
    (tmp_path / "ref.json").write_text(json.dumps({"workloads": {}}))
    assert gate.main([fresh, str(tmp_path / "ref.json")]) == 1
