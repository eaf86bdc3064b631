"""End-to-end telemetry: pipeline spans, byte-identity, merge determinism,
the STF bridge, and the ``fzmod trace`` CLI."""

from __future__ import annotations

import json
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, decompress
from repro.obs.export import chrome_trace
from repro.obs.profile import Profiler
from repro.obs.spans import GLOBAL_TRACER, set_telemetry
from repro.parallel.executor import compress_sharded
from repro.types import EbMode

STAGES = ("stage.preprocess", "stage.predictor", "stage.statistics",
          "stage.encoder", "stage.secondary")


@pytest.fixture(autouse=True)
def clean_tracer():
    prev = set_telemetry(True)
    GLOBAL_TRACER.clear()
    yield
    GLOBAL_TRACER.clear()
    set_telemetry(prev)


@pytest.fixture()
def field(rng) -> np.ndarray:
    x = np.linspace(0, 6, 48, dtype=np.float32)
    f = np.sin(x)[:, None, None] + np.cos(x)[None, :, None] * x[None, None, :]
    return (f + 0.01 * rng.standard_normal(f.shape)).astype(np.float32)


class TestPipelineSpans:
    def test_one_span_per_stage_per_compress(self, field):
        pipe = Pipeline.from_names()
        pipe.compress(field, 1e-3)
        names = TallyCounter(r.name for r in GLOBAL_TRACER.records())
        for stage in STAGES:
            assert names[stage] == 1, stage
        assert names["pipeline.compress"] == 1

    def test_decompress_emits_decode_stage_spans(self, field):
        pipe = Pipeline.from_names()
        blob = pipe.compress(field, 1e-3).blob
        GLOBAL_TRACER.clear()
        decompress(blob)
        names = TallyCounter(r.name for r in GLOBAL_TRACER.records())
        assert names["pipeline.decompress"] == 1
        assert names["stage.predictor"] == 1 and names["stage.encoder"] == 1

    def test_stage_spans_parent_to_pipeline_root(self, field):
        Pipeline.from_names().compress(field, 1e-3)
        recs = {r.name: r for r in GLOBAL_TRACER.records()}
        root = recs["pipeline.compress"]
        for stage in STAGES:
            assert recs[stage].parent_id == root.span_id

    def test_blob_byte_identical_with_telemetry_off(self, field):
        pipe = Pipeline.from_names()
        on = pipe.compress(field, 1e-3).blob
        set_telemetry(False)
        off = pipe.compress(field, 1e-3).blob
        assert on == off
        assert GLOBAL_TRACER.records()[-1].name != "noop"  # ring untouched

    def test_blob_byte_identical_with_profiler_on(self, field):
        pipe = Pipeline.from_names()
        off = pipe.compress(field, 1e-3).blob
        profiler = Profiler(interval=0.001)
        profiler.start()
        try:
            on = pipe.compress(field, 1e-3).blob
        finally:
            profiler.stop()
        assert on == off


class TestInterpretedRunsExplainThemselves:
    """The interpreter's root spans say they were not compiled and, when
    ``compile="auto"`` fell back, why; the interp kernel spans carry the
    schedule they walked."""

    def test_auto_fallback_records_the_decline_reason(self, field):
        from repro.compile import decline_reason, decode_decline_reason
        from repro.obs.analyze import analyze, render_analysis
        pipe = Pipeline.from_names(predictor="interp",
                                   statistics="histogram-topk")
        blob = pipe.compress(field, 1e-3).blob
        decompress(blob)
        recs = {r.name: r for r in GLOBAL_TRACER.records()}
        root = recs["pipeline.compress"].attrs
        assert root["compiled"] is False
        assert root["decline_reason"] == decline_reason(pipe) is not None
        root = recs["pipeline.decompress"].attrs
        assert root["compiled"] is False
        assert root["decline_reason"] == decode_decline_reason(pipe)
        for name in ("kernel.interp.compress", "kernel.interp.decompress"):
            attrs = recs[name].attrs
            assert (attrs["levels"], attrs["batches"], attrs["dynamic"]) == (
                4, 12, False)
        text = render_analysis(analyze(GLOBAL_TRACER.records()))
        assert f"pipeline.compress x1: {decline_reason(pipe)}" in text
        assert f"pipeline.decompress x1: {decode_decline_reason(pipe)}" in text

    def test_forced_interpreter_has_no_reason(self, field):
        pipe = Pipeline.from_names()
        blob = pipe.compress(field, 1e-3, compile=False).blob
        decompress(blob, compile=False)
        for r in GLOBAL_TRACER.records():
            if r.name in ("pipeline.compress", "pipeline.decompress"):
                assert r.attrs["compiled"] is False
                assert "decline_reason" not in r.attrs

    def test_decode_fallbacks_that_are_not_a_compiler_decline(self, field):
        """No spec in the header, or a spec naming an unregistered module:
        the interpreter still decodes by the header's module map and the
        root span says which of the two it was."""
        from dataclasses import replace

        from repro.core.header import assemble, parse, split_sections
        header, body = parse(Pipeline.from_names().compress(field, 1e-3).blob)
        sections = dict(split_sections(header, body))
        for spec, reason in [
                (None, "no pipeline spec"),
                ({**header.pipeline, "predictor": "nope"}, "'nope'")]:
            head, body = assemble(replace(header, pipeline=spec), sections)
            GLOBAL_TRACER.clear()
            assert decompress(head + body).shape == field.shape
            (root,) = [r for r in GLOBAL_TRACER.records()
                       if r.name == "pipeline.decompress"]
            assert reason in root.attrs["decline_reason"]

    def test_compiled_runs_are_not_listed(self, field):
        from repro.obs.analyze import analyze
        pipe = Pipeline.from_names()
        decompress(pipe.compress(field, 1e-3).blob)
        assert analyze(GLOBAL_TRACER.records())["interpreted"] == []


class TestMergeDeterminism:
    def _span_set(self, field, workers: int) -> TallyCounter:
        GLOBAL_TRACER.clear()
        compress_sharded(field, Pipeline.from_names(), 1e-3, EbMode.REL,
                         workers=workers, shard_mb=0.25, backend="inprocess")
        return TallyCounter(
            (r.name, r.lane) for r in GLOBAL_TRACER.records())

    def test_same_spans_for_any_worker_count(self, field):
        assert self._span_set(field, 1) == self._span_set(field, 4)

    def test_shard_lanes_are_shard_indexed(self, field):
        GLOBAL_TRACER.clear()
        sf = compress_sharded(field, Pipeline.from_names(), 1e-3, EbMode.REL,
                              workers=3, shard_mb=0.25, backend="inprocess")
        lanes = {r.lane for r in GLOBAL_TRACER.records() if r.lane}
        assert lanes == {f"shard:{k}" for k in range(sf.shard_count)}


class TestStfBridge:
    def test_report_spans_feed_the_chrome_exporter(self):
        from repro.runtime.clock import SimClock
        from repro.runtime.transfer import TransferStats
        from repro.stf.scheduler import ExecutionReport
        from repro.stf.tracing import report_spans

        clock = SimClock()
        clock.reserve("gpu0", 0.5, label="quant")
        clock.reserve("cpu0", 0.2, label="hist")
        report = ExecutionReport(tasks=[], clock=clock,
                                 stats=TransferStats())
        spans = report_spans(report)
        assert [s.lane for s in spans] == ["stf:gpu0", "stf:cpu0"]
        assert all(s.name == "stf.interval" for s in spans)
        doc = chrome_trace(spans)
        lanes = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert {"stf:cpu0", "stf:gpu0"} <= lanes


class TestTraceCli:
    def test_trace_subcommand_writes_loadable_chrome_json(
            self, field, tmp_path, capsys):
        from repro.cli import main
        raw = tmp_path / "field.f32"
        field.tofile(raw)
        out = tmp_path / "trace.json"
        dims = ",".join(str(n) for n in field.shape)
        rc = main(["trace", str(raw), "--dims", dims, "--preset", "default",
                   "-o", str(out), "--prom", str(tmp_path / "m.prom")])
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "X"}
        assert set(STAGES) <= names and "pipeline.compress" in names
        assert "fzmod_pipeline_compress_calls_total" in (
            tmp_path / "m.prom").read_text()
        assert "pipeline.compress" in capsys.readouterr().out

    def test_trace_workers_get_per_shard_lanes(self, field, tmp_path,
                                               capsys):
        from repro.cli import main
        raw = tmp_path / "field.f32"
        field.tofile(raw)
        out = tmp_path / "trace.json"
        dims = ",".join(str(n) for n in field.shape)
        rc = main(["trace", str(raw), "--dims", dims, "--workers", "2",
                   "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        lanes = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert "main" in lanes
        assert any(lane.startswith("shard:") for lane in lanes)
