"""Exporters: Chrome trace-event JSON schema, JSONL, Prometheus text."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import (chrome_trace, prometheus_text, render_summary,
                              span_jsonl_lines, summarize_spans,
                              write_chrome_trace, write_span_jsonl)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord


def _rec(name, start, end, span_id, parent=None, lane=None,
         thread="MainThread", **attrs):
    return SpanRecord(name=name, start=start, end=end, span_id=span_id,
                      parent_id=parent, thread=thread, lane=lane, attrs=attrs)


@pytest.fixture()
def records():
    return [
        _rec("pipeline.compress", 10.0, 10.9, 1, bytes_in=64),
        _rec("stage.encoder", 10.1, 10.5, 2, parent=1),
        _rec("shard.compress", 10.2, 10.4, 3, lane="shard:1"),
        _rec("shard.compress", 10.2, 10.3, 4, lane="shard:0"),
    ]


class TestChromeTrace:
    def test_document_schema(self, records):
        doc = chrome_trace(records)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("M", "X")
            json.dumps(ev)                       # everything serializable

    def test_lanes_become_sorted_pids(self, records):
        doc = chrome_trace(records)
        meta = {ev["args"]["name"]: ev["pid"] for ev in doc["traceEvents"]
                if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert meta == {"main": 0, "shard:0": 1, "shard:1": 2}
        thread_meta = [ev for ev in doc["traceEvents"]
                       if ev["ph"] == "M" and ev["name"] == "thread_name"]
        assert {ev["pid"] for ev in thread_meta} == {0, 1, 2}

    def test_events_are_relative_microseconds(self, records):
        doc = chrome_trace(records)
        xs = {ev["args"]["span_id"]: ev for ev in doc["traceEvents"]
              if ev["ph"] == "X"}
        root = xs[1]
        assert root["ts"] == 0.0                  # earliest span anchors t0
        assert root["dur"] == pytest.approx(0.9e6)
        assert root["cat"] == "pipeline"
        assert root["args"]["bytes_in"] == 64 and "parent_id" not in root["args"]
        child = xs[2]
        assert child["args"]["parent_id"] == 1
        assert child["ts"] == pytest.approx(0.1e6)
        assert xs[3]["pid"] == 2 and xs[4]["pid"] == 1

    def test_write_round_trips_through_json(self, records, tmp_path):
        buf = io.StringIO()
        doc = write_chrome_trace(records, buf)
        assert json.loads(buf.getvalue()) == doc

    def test_empty_records(self):
        doc = chrome_trace([])
        assert [ev["ph"] for ev in doc["traceEvents"]] == ["M"]


class TestJsonl:
    def test_lines_parse_and_are_start_ordered(self, records):
        rows = [json.loads(line) for line in span_jsonl_lines(records)]
        assert [r["name"] for r in rows] == [
            "pipeline.compress", "stage.encoder", "shard.compress",
            "shard.compress"]
        assert rows[0]["start"] == 0.0
        # ties on start sort longer-first so parents precede children
        assert rows[0]["lane"] == "main" and rows[2]["lane"] == "shard:1"
        assert rows[1]["parent_id"] == 1

    def test_write_returns_line_count(self, records):
        buf = io.StringIO()
        assert write_span_jsonl(records, buf) == 4
        assert len(buf.getvalue().splitlines()) == 4


class TestPrometheus:
    def test_counter_gauge_exposition(self):
        reg = MetricsRegistry()
        reg.counter("plancache.hits", cache="huffman").inc(5)
        reg.gauge("stream.decompress_seconds").set(1024)
        text = prometheus_text(reg)
        assert "# TYPE fzmod_plancache_hits_total counter" in text
        assert 'fzmod_plancache_hits_total{cache="huffman"} 5' in text
        assert "# TYPE fzmod_stream_decompress_seconds gauge" in text
        assert "fzmod_stream_decompress_seconds 1024" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("stage.seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = prometheus_text(reg)
        assert 'fzmod_stage_seconds_bucket{le="0.1"} 1' in text
        assert 'fzmod_stage_seconds_bucket{le="1.0"} 2' in text
        assert 'fzmod_stage_seconds_bucket{le="+Inf"} 3' in text
        assert "fzmod_stage_seconds_count 3" in text
        assert "fzmod_stage_seconds_sum 5.55" in text

    def test_collectors_run_on_scrape(self):
        reg = MetricsRegistry()
        reg.add_collector(lambda r: r.gauge("derived").set(3))
        assert "fzmod_derived 3" in prometheus_text(reg)

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c').inc()
        assert r'path="a\"b\\c"' in prometheus_text(reg)


class TestPerfettoValidity:
    """Schema properties Perfetto / chrome://tracing depend on."""

    def test_event_ordering_metadata_first_then_start_sorted(self, records):
        doc = chrome_trace(records)
        phases = [ev["ph"] for ev in doc["traceEvents"]]
        first_x = phases.index("X")
        assert all(p == "M" for p in phases[:first_x])
        assert all(p == "X" for p in phases[first_x:])
        ts = [ev["ts"] for ev in doc["traceEvents"][first_x:]]
        assert ts == sorted(ts)

    def test_no_negative_timestamps_or_durations(self, records):
        for ev in chrome_trace(records)["traceEvents"]:
            if ev["ph"] != "X":
                continue
            assert ev["ts"] >= 0.0
            assert ev["dur"] >= 0.0

    def test_every_x_event_has_a_declared_pid_tid(self, records):
        doc = chrome_trace(records)
        declared_pids = {ev["pid"] for ev in doc["traceEvents"]
                         if ev["ph"] == "M" and ev["name"] == "process_name"}
        declared_tids = {(ev["pid"], ev["tid"]) for ev in doc["traceEvents"]
                         if ev["ph"] == "M" and ev["name"] == "thread_name"}
        for ev in doc["traceEvents"]:
            if ev["ph"] != "X":
                continue
            assert ev["pid"] in declared_pids
            assert (ev["pid"], ev["tid"]) in declared_tids
            assert ev["tid"] >= 1       # tid 0 is reserved for process meta

    def test_x_events_carry_required_fields(self, records):
        for ev in chrome_trace(records)["traceEvents"]:
            if ev["ph"] != "X":
                continue
            assert {"name", "cat", "pid", "tid", "ts", "dur",
                    "args"} <= set(ev)

    def test_round_trips_through_the_analyzer(self, records):
        from repro.obs.analyze import analyze, records_from_chrome
        back = records_from_chrome(chrome_trace(records))
        rep = analyze(back)
        assert rep["span_count"] == len(records)
        assert rep["lane_count"] == 3
        names = {r["name"] for r in rep["stages"]}
        assert names == {"pipeline.compress", "stage.encoder",
                         "shard.compress"}
        by_name = {r["name"]: r for r in rep["stages"]}
        assert by_name["pipeline.compress"]["bytes_in"] == 64
        # parentage survives: the encoder's time is carved out of the root
        assert (by_name["pipeline.compress"]["exclusive_s"]
                == pytest.approx(0.5, abs=1e-5))

    def test_jsonl_forest_chrome_round_trip(self, records):
        """JSONL log -> rebuilt records -> Chrome doc: the full read-side
        path a CI artifact takes, ending in a loadable trace."""
        from repro.obs.analyze import build_forest, records_from_jsonl
        back = records_from_jsonl(span_jsonl_lines(records))
        forest = build_forest(back)
        assert len(forest.roots) == 3         # pipeline + 2 shard lanes
        doc = chrome_trace(forest.records)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(xs) == len(records)
        child = next(ev for ev in xs if ev["name"] == "stage.encoder")
        assert child["args"]["parent_id"] == 1


class TestSummaries:
    def test_summarize_orders_by_total_time(self, records):
        rows = summarize_spans(records)
        assert rows[0]["name"] == "pipeline.compress"
        shard = next(r for r in rows if r["name"] == "shard.compress")
        assert shard["count"] == 2
        assert shard["lanes"] == ["shard:0", "shard:1"]
        assert shard["mean_seconds"] == pytest.approx(0.15)

    def test_render_mentions_every_span_name(self, records):
        text = render_summary(records)
        assert "pipeline.compress" in text and "shard.compress" in text
        assert render_summary([]) == "(no spans recorded)\n"
