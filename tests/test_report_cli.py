"""`repro report` CLI: output files and fastpath verdict identity."""

import csv
import io
import json

from repro.cli import main

BT_ARGS = ["btio", "--class", "S", "--nprocs", "4", "--subtype", "full",
           "--block-step", "9", "--ior-gib", "1"]


def _report(tmp_path, tag, extra=(), configs=("jbod",)):
    out = tmp_path / f"report-{tag}.json"
    rc = main(["report", *BT_ARGS,
               "--configs", *configs,
               "--cache", str(tmp_path / "cache"),
               "--json", str(out), *extra])
    assert rc == 0
    return json.loads(out.read_text())


def test_report_json_sections(tmp_path):
    report = _report(tmp_path, "base")
    assert report["schema"] == "repro.run-report/1"
    assert report["app"].startswith("btio")
    entry = report["configs"]["jbod"]
    # "sanitizer" appears only when the run was sanitized (REPRO_SANITIZE=1)
    assert set(entry) - {"sanitizer"} == {"run", "verdicts", "counters",
                                          "histograms", "utilization", "replay"}
    # per-level counters for every level of the I/O path
    assert set(entry["counters"]) == {"iolib", "nfs", "localfs", "cache",
                                      "disk", "network"}
    assert entry["counters"]["iolib"]["writes"] > 0
    assert entry["counters"]["disk"]["bytes_written"] > 0
    # windowed utilization with bottleneck attribution
    util = entry["utilization"]
    assert util["interval_s"] > 0
    assert util["windows"], "expected sampled windows"
    assert all({"t0_s", "t1_s", "bottleneck", "top"} <= set(w)
               for w in util["windows"])
    # phase-replay observability
    replay = entry["replay"]
    assert {"enabled", "phases_fully_simulated", "phases_extrapolated",
            "estimated_saved_wall_s"} <= set(replay)
    assert report["verdicts"]["jbod"] == entry["verdicts"]
    assert set(entry["verdicts"]) == {"write", "read"}


def test_report_csv_and_trace_outputs(tmp_path):
    csv_path = tmp_path / "report.csv"
    trace_path = tmp_path / "trace.json"
    rc = main(["report", *BT_ARGS, "--configs", "jbod",
               "--cache", str(tmp_path / "cache"),
               "--csv", str(csv_path),
               "--trace-out", str(trace_path), "--trace-format", "chrome"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["config", "key", "value"]
    keys = {r[1] for r in rows if r[0] == "jbod"}
    assert "run.execution_time_s" in keys
    assert "counters.disk.bytes_written" in keys
    doc = json.loads(trace_path.read_text())
    assert doc["otherData"]["schema"] == "repro.trace/1"
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    assert "jbod" in doc["otherData"]["replay"]


def test_report_jsonl_trace(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["report", *BT_ARGS, "--configs", "jbod",
               "--cache", str(tmp_path / "cache"),
               "--trace-out", str(trace_path), "--trace-format", "jsonl"])
    assert rc == 0
    lines = trace_path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    assert all(json.loads(l)["type"] == "io" for l in lines[1:])
    assert len(lines) > 1


def test_report_portable_csv_trace_replays(tmp_path):
    """Satellite: `--trace-format csv` emits a portable capture that
    loads back through the ingest layer as a runnable workload."""
    from repro.tracing import load_trace, load_trace_workload

    trace_path = tmp_path / "capture.csv"
    rc = main(["report", *BT_ARGS, "--configs", "jbod",
               "--cache", str(tmp_path / "cache"),
               "--trace-out", str(trace_path), "--trace-format", "csv"])
    assert rc == 0
    text = trace_path.read_text()
    assert text.startswith("#repro-trace v1 world_size=4")
    tracer = load_trace(trace_path)
    assert tracer.nranks == 4
    assert tracer.events
    app = load_trace_workload(trace_path)
    assert app.name == "trace-capture"
    assert app.spec.nprocs == 4


def test_report_csv_trace_one_file_per_config(tmp_path):
    trace_path = tmp_path / "capture.csv"
    rc = main(["report", *BT_ARGS, "--configs", "jbod", "raid5",
               "--cache", str(tmp_path / "cache"),
               "--trace-out", str(trace_path), "--trace-format", "csv"])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("capture*.csv"))
    assert names == ["capture.jbod.csv", "capture.raid5.csv"]


def test_report_verdicts_identical_with_and_without_fastpath(tmp_path):
    """Satellite: the bottleneck verdicts `repro report --json` emits
    must be byte-identical with the phase fastpath on and off (physical
    counters may differ — extrapolated phases never touch hardware)."""
    configs = ("jbod", "raid5")
    fast = _report(tmp_path, "fast", configs=configs)
    full = _report(tmp_path, "full", extra=["--no-phase-fastpath"],
                   configs=configs)
    assert fast["configs"]["jbod"]["replay"]["enabled"]
    assert not full["configs"]["jbod"]["replay"]["enabled"]
    assert (json.dumps(fast["verdicts"], sort_keys=True)
            == json.dumps(full["verdicts"], sort_keys=True))
    for name in configs:
        assert (fast["configs"][name]["verdicts"]
                == full["configs"][name]["verdicts"])
