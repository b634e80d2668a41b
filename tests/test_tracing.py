"""Tracer, phase-detection and timeline tests."""

import pytest

from repro.storage.base import AccessMode
from repro.tracing import IOEvent, IOTracer, PhaseDetector, detect_phases, render_timeline


def ev(rank=0, op="write", nbytes=1024, count=1, stride=None, t0=0.0, t1=1.0, path="/f"):
    return IOEvent(rank, op, 0, nbytes, count, stride, t0, t1, path)


class TestIOEvent:
    def test_duration_and_bytes(self):
        e = ev(nbytes=100, count=5, t0=2.0, t1=4.0)
        assert e.duration == 2.0
        assert e.total_bytes == 500
        assert e.bandwidth == 250.0

    def test_mode(self):
        assert ev(count=4, stride=4096, nbytes=100).mode is AccessMode.STRIDED
        assert ev(count=4, stride=None).mode is AccessMode.SEQUENTIAL

    def test_signature_ignores_time(self):
        assert ev(t0=0, t1=1).signature() == ev(t0=5, t1=9).signature()


class TestTracer:
    def test_record_and_query(self):
        t = IOTracer()
        t.record(0, ev(rank=0, op="write", count=3))
        t.record(1, ev(rank=1, op="read"))
        assert t.count_ops("write") == 3
        assert t.count_ops("read") == 1
        assert t.nranks == 2
        assert len(t.ops(rank=0)) == 1

    def test_summary(self):
        t = IOTracer()
        t.record(0, ev(op="write", nbytes=100, count=10, t0=0, t1=2))
        t.record(0, ev(op="write", nbytes=200, count=5, t0=2, t1=3))
        s = t.summary("write")
        assert s.n_ops == 15
        assert s.total_bytes == 2000
        assert s.total_time == 3.0
        assert s.block_sizes == {100: 10, 200: 5}
        assert s.iops == pytest.approx(5.0)

    def test_io_time_is_per_rank_mean(self):
        t = IOTracer()
        t.record(0, ev(rank=0, t0=0, t1=4))
        t.record(1, ev(rank=1, t0=0, t1=2))
        assert t.io_time() == 3.0
        assert t.io_time(rank=0) == 4.0

    def test_clear(self):
        t = IOTracer()
        t.record(0, ev())
        t.clear()
        assert t.events == [] and t.nranks == 0

    def test_empty_queries(self):
        t = IOTracer()
        assert t.io_time() == 0.0
        assert t.ops() == []
        assert t.summary("write").bandwidth == 0.0


class TestPhases:
    def test_repetitive_pattern_yields_one_phase_many_occurrences(self):
        events = []
        t = 0.0
        for rep in range(5):
            events.append(ev(op="write", nbytes=4096, t0=t, t1=t + 1))
            t += 2  # compute gap
            events.append(ev(op="read", nbytes=8192, t0=t, t1=t + 1))
            t += 2
        phases = detect_phases(events)
        assert len(phases) == 2
        by_op = {p.op: p for p in phases}
        # the W/R alternation makes each repetition a new occurrence
        assert by_op["write"].occurrences == 5
        assert by_op["write"].total_bytes == 5 * 4096

    def test_gap_tolerance_splits_occurrences(self):
        events = []
        t = 0.0
        for rep in range(3):
            events.append(ev(op="write", t0=t, t1=t + 1))
            t += 100
        phases = detect_phases(events, gap_tolerance_s=10)
        assert phases[0].occurrences == 3

    def test_phase_ordering_by_first_appearance(self):
        events = [ev(op="read", t0=5, t1=6), ev(op="write", t0=0, t1=1)]
        phases = detect_phases(events)
        assert phases[0].op == "write"
        assert phases[1].op == "read"

    def test_weights_sum_to_one(self):
        events = [ev(op="write", t0=0, t1=3), ev(op="read", t0=3, t1=4)]
        phases = detect_phases(events)
        w = PhaseDetector.weights(phases)
        assert sum(w.values()) == pytest.approx(1.0)
        assert w[0] == pytest.approx(0.75)

    def test_ranks_counted(self):
        events = [ev(rank=r) for r in range(4)]
        phases = detect_phases(events)
        assert phases[0].ranks == 4

    def test_empty(self):
        assert detect_phases([]) == []
        assert PhaseDetector.weights([]) == {}


class TestTimeline:
    def test_render_shows_phases(self):
        events = [
            ev(rank=0, op="write", t0=0, t1=5),
            ev(rank=0, op="read", t0=5, t1=10),
        ]
        art = render_timeline(events, width=10)
        assert "W" in art and "R" in art
        line = [l for l in art.splitlines() if l.startswith("rank 0")][0]
        assert line.index("W") < line.index("R")

    def test_overlap_marked(self):
        events = [
            ev(rank=0, op="write", t0=0, t1=10),
            ev(rank=0, op="read", t0=0, t1=10),
        ]
        art = render_timeline(events, width=10)
        assert "#" in art

    def test_idle_buckets(self):
        events = [ev(rank=0, t0=0, t1=1), ev(rank=0, t0=9, t1=10)]
        art = render_timeline(events, width=20)
        assert "." in art

    def test_empty_trace(self):
        assert "no I/O" in render_timeline([])

    def test_rank_filter(self):
        events = [ev(rank=0), ev(rank=1)]
        art = render_timeline(events, ranks=[1])
        assert "rank 1" in art and "rank 0" not in art
