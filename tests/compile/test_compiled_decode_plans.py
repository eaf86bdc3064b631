"""Golden value-identity and plan-cache tests for the decode-plan compiler.

The read-side mirror of ``test_compiled_plans.py``: for every preset and
every engine x container layout, the fused reconstruction must produce
exactly the bytes the ``predictor.decode`` + ``preprocess.backward``
module calls do (decoding against ``module_call_registry``, whose
predictors the fused gate rejects, gives that reference), and decode
plans must be content-addressed in the shared plan cache under their own
direction group.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compile import (decode_plan_for, decode_plan_for_header,
                           decode_plan_key, plan_key)
from repro.core import get_preset
from repro.core.header import peek_header
from repro.core.pipeline import decompress as core_decompress
from repro.errors import ConfigError, ModuleNotFoundInRegistry
from repro.kernels.plancache import COMPILED_PLAN_CACHE
from repro.types import EbMode

PRESETS = ("fzmod-default", "fzmod-speed", "fzmod-quality")
#: presets whose reconstruction is the fused pass (lorenzo predictor)
DECODABLE = ("fzmod-default", "fzmod-speed")


@pytest.fixture
def field(rng) -> np.ndarray:
    base = np.cumsum(rng.standard_normal((40, 32, 32)), axis=0)
    return (base * 3.0).astype(np.float32)


# --------------------------------------------------------------------- #
# value identity: fused vs module-call steps, every preset x every engine
# --------------------------------------------------------------------- #
class TestValueIdentity:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("mode", [EbMode.REL, EbMode.ABS])
    def test_single_engine(self, field, preset, mode, module_call_registry):
        pipe = get_preset(preset)
        eb = 1e-3 if mode is EbMode.REL else 0.05
        blob = pipe.compress(field, eb, mode).blob
        ref = core_decompress(blob, module_call_registry)
        got = core_decompress(blob)
        assert got.tobytes() == ref.tobytes()
        assert got.shape == field.shape and got.dtype == field.dtype

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("codebook", ["per-shard", "shared"])
    def test_sharded_engine(self, field, preset, codebook,
                            module_call_registry):
        from repro.parallel.executor import decompress_sharded
        pipe = get_preset(preset)
        if codebook == "shared" and preset == "fzmod-speed":
            pytest.skip("shared codebook is a huffman-only mode")
        blob = pipe.compress(field, 1e-3, workers=2, shard_mb=0.125,
                             codebook=codebook).blob
        ref = decompress_sharded(blob, registry=module_call_registry)
        got = decompress_sharded(blob, workers=2)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("layout", ["compat", "stream"])
    def test_streaming_engine(self, field, preset, layout, tmp_path,
                              module_call_registry):
        from repro.streaming.engine import compress_stream, decompress_stream
        pipe = get_preset(preset)
        path = tmp_path / "f.fzms"
        compress_stream(field, pipe, 1e-3, EbMode.REL, out_path=str(path),
                        workers=2, shard_mb=0.125, layout=layout)
        ref = decompress_stream(str(path), workers=2,
                                registry=module_call_registry)
        got = decompress_stream(str(path), workers=2)
        assert got.tobytes() == ref.tobytes()

    def test_tight_bound_outlier_path(self, spiky_1d, module_call_registry):
        # spiky data under a tight bound exercises the outlier scatter
        pipe = get_preset("fzmod-default")
        cf = pipe.compress(spiky_1d, 1e-6)
        assert cf.stats.outlier_count > 0
        ref = core_decompress(cf.blob, module_call_registry)
        got = core_decompress(cf.blob)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("preset", DECODABLE)
    def test_out_buffer_written_through(self, field, preset,
                                        module_call_registry):
        pipe = get_preset(preset)
        blob = pipe.compress(field, 1e-3).blob
        ref = core_decompress(blob)
        for registry in (repro.core.DEFAULT_REGISTRY, module_call_registry):
            out = np.empty(field.shape, dtype=field.dtype)
            got = core_decompress(blob, registry, out=out)
            assert got is out
            assert out.tobytes() == ref.tobytes()

    def test_float64_fields(self, rng, module_call_registry):
        pipe = get_preset("fzmod-default")
        data = np.cumsum(rng.standard_normal((30, 40)), axis=1)
        blob = pipe.compress(data, 1e-4).blob
        ref = core_decompress(blob, module_call_registry)
        got = core_decompress(blob)
        assert got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()


# --------------------------------------------------------------------- #
# which reconstruction a container gets
# --------------------------------------------------------------------- #
class TestCompileModes:
    def test_quality_compiles_to_module_call_steps(self, field):
        from tests.test_golden_container import GOLDEN_QUALITY_BLOB
        plan = decode_plan_for(get_preset("fzmod-quality"))
        assert "predictor[interp]       module call" in plan.describe()
        assert "fused" not in plan.describe()
        header = peek_header(GOLDEN_QUALITY_BLOB)
        assert decode_plan_for_header(header) is plan
        assert plan.decompress(GOLDEN_QUALITY_BLOB).tobytes() == \
            core_decompress(GOLDEN_QUALITY_BLOB).tobytes()

    @pytest.mark.parametrize("preset", DECODABLE)
    def test_gate_is_the_module_type(self, field, preset,
                                     module_call_registry):
        header = peek_header(get_preset(preset).compress(field, 1e-3).blob)
        fused = decode_plan_for_header(header)
        plain = decode_plan_for_header(header, module_call_registry)
        assert "fused" in fused.describe()
        assert "fused" not in plain.describe()
        assert plain.spec == fused.spec and plain.key != fused.key

    def test_invalid_mode_rejected(self, field):
        blob = get_preset("fzmod-default").compress(field, 1e-3).blob
        with pytest.raises(ConfigError, match="compile"):
            repro.decompress(blob, compile="yes-please")

    def test_specless_header_resolves_through_its_module_map(self, field):
        pipe = get_preset("fzmod-default")
        blob = pipe.compress(field, 1e-3).blob
        header = peek_header(blob)
        header.pipeline = None  # containers written before the spec field
        plan = decode_plan_for_header(header)
        assert plan.spec == pipe.spec.replace(name="custom")
        assert plan.decompress(blob).tobytes() == \
            core_decompress(blob).tobytes()

    def test_unregistered_module_is_named(self, field):
        header = peek_header(
            get_preset("fzmod-default").compress(field, 1e-3).blob)
        header.pipeline = {**header.pipeline, "predictor": "nope"}
        with pytest.raises(ModuleNotFoundInRegistry, match="'nope'"):
            decode_plan_for_header(header)


# --------------------------------------------------------------------- #
# plan cache behaviour (shared with compress plans, own direction group)
# --------------------------------------------------------------------- #
class TestDecodePlanCache:
    def test_hit_after_miss_counts_in_decode_group(self):
        pipe = get_preset("fzmod-default")
        COMPILED_PLAN_CACHE.clear()
        COMPILED_PLAN_CACHE.reset_stats()
        first = decode_plan_for(pipe)
        second = decode_plan_for(pipe)
        assert second is first
        grp = COMPILED_PLAN_CACHE.stats()["by_group"]["decode"]
        assert grp["misses"] == 1 and grp["hits"] == 1
        assert grp["entries"] == 1

    def test_directions_do_not_collide(self):
        from repro.compile import plan_for
        pipe = get_preset("fzmod-default")
        COMPILED_PLAN_CACHE.clear()
        COMPILED_PLAN_CACHE.reset_stats()
        enc = plan_for(pipe)
        dec = decode_plan_for(pipe)
        assert enc.key != dec.key
        by_group = COMPILED_PLAN_CACHE.stats()["by_group"]
        assert by_group["compress"]["entries"] == 1
        assert by_group["decode"]["entries"] == 1
        assert decode_plan_key(pipe) != plan_key(pipe)

    def test_distinct_specs_get_distinct_plans(self):
        a = decode_plan_for(get_preset("fzmod-default"))
        b = decode_plan_for(get_preset("fzmod-speed"))
        assert a.key != b.key

    def test_env_kill_switch_disables_reuse(self, monkeypatch):
        pipe = get_preset("fzmod-default")
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        COMPILED_PLAN_CACHE.clear()
        first = decode_plan_for(pipe)
        second = decode_plan_for(pipe)
        assert first is not second  # rebuilt every time, never stored
        assert len(COMPILED_PLAN_CACHE) == 0
        assert first.key == second.key  # still the same content address

    def test_env_kill_switch_output_identical(self, monkeypatch, smooth_3d):
        pipe = get_preset("fzmod-default")
        blob = pipe.compress(smooth_3d, 1e-3).blob
        ref = core_decompress(blob)
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        got = core_decompress(blob)
        assert got.tobytes() == ref.tobytes()

    def test_rebuilt_pipeline_resolves_the_same_plan(self):
        # what a decode worker does with the spec in a shard's header
        from repro.core.pipeline import Pipeline
        from repro.core.spec import PipelineSpec
        pipe = get_preset("fzmod-quality")
        rebuilt = Pipeline.from_spec(
            PipelineSpec.from_json(pipe.spec.to_json()))
        assert decode_plan_for(rebuilt) is decode_plan_for(pipe)

    def test_cached_plan_never_runs_another_registrys_module(
            self, field, module_call_registry):
        """Same spec and names, another registry's opaque predictor: the
        cached plan binds one instance and must not serve the other."""
        from tests.conftest import _PlainLorenzo
        header = peek_header(
            get_preset("fzmod-default").compress(field, 1e-3).blob)
        mine = decode_plan_for_header(header, module_call_registry)
        assert decode_plan_for_header(header, module_call_registry) is mine
        other = repro.core.ModuleRegistry()
        for stage, name in (("preprocess", "rel-eb"),
                            ("statistics", "histogram"),
                            ("encoder", "huffman"), ("secondary", "none")):
            other.register(repro.core.DEFAULT_REGISTRY.get(
                repro.types.Stage(stage), name))
        other.register(_PlainLorenzo())
        theirs = decode_plan_for_header(header, other)
        assert theirs.key == mine.key and theirs is not mine
        assert theirs._predictor is not mine._predictor

    def test_header_resolution_matches_pipeline_resolution(self, field):
        pipe = get_preset("fzmod-default")
        blob = pipe.compress(field, 1e-3).blob
        plan = decode_plan_for_header(peek_header(blob))
        assert plan.key == decode_plan_key(pipe)
        assert "decode plan" in plan.describe()
