"""Run-trace exporters: JSONL event streams and Chrome trace format.

The MPI-IO layer already captures an
:class:`~repro.tracing.events.IOEvent` per call; these writers turn
that stream into files other tools read:

* **JSONL** — one JSON object per line, schema-stable key order, a
  ``meta`` header record first.  Round-trips through
  :func:`read_events_jsonl`.
* **Chrome trace format** — the catapult JSON loaded by
  ``chrome://tracing`` / Perfetto: one process per configuration, one
  thread per rank, a complete ("X") event per I/O call, phase-replay
  observability in ``otherData``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..tracing.events import IOEvent

__all__ = [
    "EVENT_KEYS",
    "TRACE_SCHEMA",
    "event_record",
    "write_events_jsonl",
    "read_events_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]

TRACE_SCHEMA = "repro.trace/1"

#: field order of every exported I/O record — append-only; consumers
#: key on these names
EVENT_KEYS = (
    "rank",
    "op",
    "offset",
    "nbytes",
    "count",
    "stride",
    "t_start",
    "t_end",
    "path",
    "collective",
)


def event_record(event: IOEvent, config: Optional[str] = None) -> dict:
    """One JSONL record for an event (insertion order = EVENT_KEYS)."""
    rec = {"type": "io"}
    if config is not None:
        rec["config"] = config
    for key in EVENT_KEYS:
        rec[key] = getattr(event, key)
    return rec


def write_events_jsonl(path, runs: dict, meta: Optional[dict] = None) -> int:
    """Write ``{config: {"events": [IOEvent, ...], ...}}`` as JSONL.

    The first line is a ``meta`` record carrying the schema tag; every
    following line is one I/O event.  Returns the event count.
    """
    lines = [json.dumps({"type": "meta", "schema": TRACE_SCHEMA, **(meta or {})})]
    n = 0
    for config, run in runs.items():
        for event in run.get("events") or []:
            lines.append(json.dumps(event_record(event, config=config)))
            n += 1
    Path(path).write_text("\n".join(lines) + "\n")
    return n


def read_events_jsonl(path) -> tuple[dict, dict]:
    """Round-trip reader: ``(meta, {config: [IOEvent, ...]})``."""
    meta: dict = {}
    runs: dict[str, list[IOEvent]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.pop("type", "io")
        if kind == "meta":
            meta = rec
            continue
        config = rec.pop("config", "")
        runs.setdefault(config, []).append(
            IOEvent(**{key: rec[key] for key in EVENT_KEYS})
        )
    return meta, runs


def chrome_trace(runs: dict, app: Optional[str] = None) -> dict:
    """Build the Chrome-trace-format document for a set of runs.

    ``runs`` maps configuration name to ``{"events": [IOEvent, ...],
    "replay": <observability dict or None>}``.  Timestamps are
    microseconds of simulated time; one pid per configuration, one
    tid per rank.
    """
    trace_events = []
    other = {"schema": TRACE_SCHEMA}
    if app is not None:
        other["app"] = app
    for pid, (config, run) in enumerate(runs.items()):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": config},
            }
        )
        seen_ranks = set()
        for event in run.get("events") or []:
            if event.rank not in seen_ranks:
                seen_ranks.add(event.rank)
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": event.rank,
                        "args": {"name": f"rank {event.rank}"},
                    }
                )
            trace_events.append(
                {
                    "name": f"{event.op} {event.path}",
                    "cat": "io.collective" if event.collective else "io",
                    "ph": "X",
                    "ts": event.t_start * 1e6,
                    "dur": event.duration * 1e6,
                    "pid": pid,
                    "tid": event.rank,
                    "args": {
                        "offset": event.offset,
                        "nbytes": event.nbytes,
                        "count": event.count,
                        "stride": event.stride,
                    },
                }
            )
        replay = run.get("replay")
        if replay is not None:
            other.setdefault("replay", {})[config] = replay
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path, runs: dict, app: Optional[str] = None) -> dict:
    doc = chrome_trace(runs, app=app)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return doc
