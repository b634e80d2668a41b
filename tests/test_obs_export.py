"""Trace exporter tests: JSONL round-trip, Chrome trace schema."""

import json

from repro.obs.export import (
    EVENT_KEYS,
    TRACE_SCHEMA,
    chrome_trace,
    event_record,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.tracing.events import IOEvent


def _events():
    return [
        IOEvent(rank=0, op="write", offset=0, nbytes=4096, count=2, stride=8192,
                t_start=0.1, t_end=0.3, path="/nfs/f", collective=True),
        IOEvent(rank=1, op="read", offset=4096, nbytes=1024, count=1, stride=None,
                t_start=0.4, t_end=0.45, path="/nfs/f", collective=False),
    ]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = _events()
    n = write_events_jsonl(path, {"jbod": {"events": events}}, meta={"app": "t"})
    assert n == len(events)
    meta, runs = read_events_jsonl(path)
    assert meta["schema"] == TRACE_SCHEMA
    assert meta["app"] == "t"
    assert runs["jbod"] == events  # frozen dataclasses: full equality


def test_jsonl_schema_stable_keys(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_events_jsonl(path, {"jbod": {"events": _events()}})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "meta"
    for line in lines[1:]:
        # JSON objects preserve insertion order: every record carries
        # the exact documented key sequence
        assert list(json.loads(line)) == ["type", "config", *EVENT_KEYS]


def test_event_record_key_order():
    rec = event_record(_events()[0])
    assert list(rec) == ["type", *EVENT_KEYS]


def test_chrome_trace_schema(tmp_path):
    path = tmp_path / "trace.json"
    runs = {
        "jbod": {"events": _events(), "replay": {"phases": 3, "extrapolated": 10}},
        "raid5": {"events": _events()},
    }
    write_chrome_trace(path, runs, app="btio")
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["schema"] == TRACE_SCHEMA
    assert doc["otherData"]["app"] == "btio"
    assert doc["otherData"]["replay"]["jbod"]["phases"] == 3

    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(xs) == 4  # 2 events x 2 configs
    for e in xs:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
    # microsecond timestamps
    assert xs[0]["ts"] == 0.1 * 1e6
    assert xs[0]["dur"] == (0.3 - 0.1) * 1e6
    # one pid per config, named via metadata; one tid per rank
    names = {e["args"]["name"] for e in metas if e["name"] == "process_name"}
    assert names == {"jbod", "raid5"}
    assert {e["tid"] for e in xs} == {0, 1}
    pids = {e["pid"] for e in xs}
    assert len(pids) == 2


def test_chrome_trace_from_live_run():
    """The exporter consumes real tracer output unchanged."""
    from conftest import small_config
    from repro.clusters.builder import build_system
    from repro.simengine import Environment
    from repro.tracing import IOTracer
    from repro.workloads.btio import BTIOConfig, run_btio

    system = build_system(Environment(), small_config())
    tracer = IOTracer()
    run_btio(system, BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt"),
             tracer=tracer)
    doc = chrome_trace({"jbod": {"events": tracer.events}})
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(tracer.events) > 0
    assert all(e["dur"] >= 0 for e in xs)
