"""End-to-end telemetry: pipeline spans, byte-identity, merge determinism,
the STF bridge, and the ``fzmod trace`` CLI."""

from __future__ import annotations

import json
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, decompress
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


class TestTraceSaysWhichBodyRan:
    """Root spans name the plan that ran; a stage span says ``fused=True``
    when the fused pass stood in for the module, and nothing when the
    module itself was called.  The interp kernel spans carry the schedule
    they walked."""

    @staticmethod
    def _fused_flags(names=STAGES):
        recs = {r.name: r for r in GLOBAL_TRACER.records()}
        return {name: recs[name].attrs.get("fused") for name in names
                if name in recs}

    def test_root_spans_carry_the_plan_key(self, field):
        from repro.compile import decode_plan_key, plan_key
        pipe = Pipeline.from_names(predictor="interp",
                                   statistics="histogram-topk")
        decompress(pipe.compress(field, 1e-3).blob)
        recs = {r.name: r for r in GLOBAL_TRACER.records()}
        assert recs["pipeline.compress"].attrs["plan"] == plan_key(pipe)
        assert recs["pipeline.decompress"].attrs["plan"] == \
            decode_plan_key(pipe)
        for r in GLOBAL_TRACER.records():
            assert "compiled" not in r.attrs
            assert "decline_reason" not in r.attrs
        for name in ("kernel.interp.compress", "kernel.interp.decompress"):
            attrs = recs[name].attrs
            assert (attrs["levels"], attrs["batches"], attrs["dynamic"]) == (
                4, 12, False)

    def test_fused_steps_say_so_and_module_calls_do_not(
            self, field, module_call_twin, module_call_registry):
        pipe = Pipeline.from_names()
        blob = pipe.compress(field, 1e-3).blob
        assert self._fused_flags() == {
            "stage.preprocess": True, "stage.predictor": True,
            "stage.statistics": True, "stage.encoder": None,
            "stage.secondary": None}
        GLOBAL_TRACER.clear()
        assert module_call_twin(pipe).compress(field, 1e-3).blob == blob
        assert set(self._fused_flags().values()) == {None}
        GLOBAL_TRACER.clear()
        decompress(blob)
        assert self._fused_flags(("stage.predictor",)) == {
            "stage.predictor": True}
        GLOBAL_TRACER.clear()
        decompress(blob, module_call_registry)
        assert self._fused_flags(("stage.predictor", "stage.preprocess")) \
            == {"stage.predictor": None, "stage.preprocess": None}

    def test_decode_of_headers_without_a_usable_spec(self, field):
        """No spec in the header: the plan is resolved from the header's
        module map and decodes as before.  A spec naming an unregistered
        module: the registry's own error, before any span opens."""
        from dataclasses import replace

        from repro.core.header import assemble, parse, split_sections
        from repro.errors import ModuleNotFoundInRegistry
        header, body = parse(Pipeline.from_names().compress(field, 1e-3).blob)
        sections = dict(split_sections(header, body))
        head, body = assemble(replace(header, pipeline=None), sections)
        GLOBAL_TRACER.clear()
        assert decompress(head + body).shape == field.shape
        (root,) = [r for r in GLOBAL_TRACER.records()
                   if r.name == "pipeline.decompress"]
        assert root.attrs["plan"]
        head, body = assemble(
            replace(header, pipeline={**header.pipeline, "predictor": "nope"}),
            sections)
        GLOBAL_TRACER.clear()
        with pytest.raises(ModuleNotFoundInRegistry, match="'nope'"):
            decompress(head + body)
        assert GLOBAL_TRACER.records() == []


class TestMergeDeterminism:
    def _span_set(self, field, workers: int) -> TallyCounter:
        GLOBAL_TRACER.clear()
        compress_sharded(field, Pipeline.from_names(), 1e-3, EbMode.REL,
                         workers=workers, shard_mb=0.25)
        return TallyCounter(
            (r.name, r.lane) for r in GLOBAL_TRACER.records())

    def test_same_spans_for_any_worker_count(self, field):
        assert self._span_set(field, 1) == self._span_set(field, 4)

    def test_shard_lanes_are_shard_indexed(self, field):
        GLOBAL_TRACER.clear()
        sf = compress_sharded(field, Pipeline.from_names(), 1e-3, EbMode.REL,
                              workers=3, shard_mb=0.25)
        # FZMOD_THREADS > 1 adds slab:<k> lanes inside each shard
        lanes = {r.lane for r in GLOBAL_TRACER.records()
                 if r.lane and not r.lane.startswith("slab:")}
        assert lanes == {f"shard:{k}" for k in range(sf.shard_count)}


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
