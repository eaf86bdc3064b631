"""Span API: nesting, thread-safety, disabled no-op, capture transport."""

from __future__ import annotations

import threading

import pytest

from repro.obs.spans import (GLOBAL_TRACER, NOOP_SPAN, Tracer,
                             absorb_capture, set_telemetry, span,
                             telemetry_enabled)


@pytest.fixture(autouse=True)
def telemetry_on():
    prev = set_telemetry(True)
    yield
    set_telemetry(prev)


class TestNesting:
    def test_child_records_parent_id(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("outer") as outer:
                with span("inner"):
                    pass
        inner, outer_rec = buf
        assert inner.name == "inner" and outer_rec.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer_rec.parent_id is None

    def test_siblings_share_parent(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("root") as root:
                with span("a"):
                    pass
                with span("b"):
                    pass
        by_name = {r.name: r for r in buf}
        assert by_name["a"].parent_id == root.span_id
        assert by_name["b"].parent_id == root.span_id

    def test_timing_is_monotonic_and_positive(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("t"):
                pass
        rec = buf[0]
        assert rec.end >= rec.start and rec.duration >= 0.0

    def test_exception_pops_stack_and_marks_error(self):
        with GLOBAL_TRACER.capture() as buf:
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("x")
            with span("after") as after:
                pass
        assert buf[0].attrs["error"] == "ValueError"
        assert buf[1].parent_id is None          # stack was unwound
        assert after.span_id > buf[0].span_id

    def test_set_attaches_attrs(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("s", bytes_in=10) as s:
                s.set(bytes_out=3)
        assert buf[0].attrs == {"bytes_in": 10, "bytes_out": 3}


class TestDisabled:
    def test_disabled_returns_shared_noop_singleton(self):
        set_telemetry(False)
        assert span("a") is span("b") is NOOP_SPAN
        assert not telemetry_enabled()

    def test_disabled_emits_nothing(self):
        set_telemetry(False)
        with GLOBAL_TRACER.capture() as buf:
            with span("quiet") as s:
                s.set(ignored=True)
        assert buf == []

    def test_set_telemetry_returns_previous_state(self):
        assert set_telemetry(False) is True
        assert set_telemetry(True) is False


class TestThreadSafety:
    def test_parents_never_cross_threads(self):
        tracer = Tracer()

        def work(i: int) -> None:
            with tracer.span(f"w{i}.outer"):
                with tracer.span(f"w{i}.inner"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recs = {r.name: r for r in tracer.records()}
        assert len(recs) == 8
        for i in range(4):
            assert recs[f"w{i}.inner"].parent_id == recs[f"w{i}.outer"].span_id
            assert recs[f"w{i}.outer"].parent_id is None

    def test_ring_buffer_bounds_and_counts_drops(self):
        tracer = Tracer(max_spans=4)
        for i in range(6):
            with tracer.span(f"s{i}"):
                pass
        recs = tracer.records()
        assert len(recs) == 4 and tracer.dropped == 2
        assert [r.name for r in recs] == ["s2", "s3", "s4", "s5"]


class TestCaptureTransport:
    def test_absorb_empty_capture(self):
        sink = Tracer()
        assert absorb_capture([], lane="shard:0", tracer=sink) == []
        assert sink.records() == []

    def test_capture_redirects_this_thread_only(self):
        GLOBAL_TRACER.clear()
        with GLOBAL_TRACER.capture() as buf:
            with span("captured"):
                pass
        assert [r.name for r in buf] == ["captured"]
        assert GLOBAL_TRACER.records() == []

    def test_absorb_tags_lane_and_keeps_timing(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("work", rows=5):
                pass
        start, duration = buf[0].start, buf[0].duration
        sink = Tracer()
        out = absorb_capture(buf, lane="shard:3", tracer=sink)
        assert len(out) == 1
        rec = sink.records()[0]
        assert rec.lane == "shard:3" and rec.name == "work"
        assert rec.attrs == {"rows": 5}
        # one clock for every thread: nothing is rebased
        assert rec.start == start and rec.duration == duration

    def test_absorb_keeps_existing_lane(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("w"):
                pass
        buf[0].lane = "slab:1"
        sink = Tracer()
        absorb_capture(buf, lane="shard:0", tracer=sink)
        assert sink.records()[0].lane == "slab:1"

    def test_child_span_stays_inside_its_parent(self):
        with GLOBAL_TRACER.capture() as buf:
            with span("parent"):
                with span("child"):
                    pass
        sink = Tracer()
        child, parent = absorb_capture(buf, lane="shard:0", tracer=sink)
        assert parent.start <= child.start <= child.end <= parent.end
