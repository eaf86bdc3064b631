"""Golden byte-identity and plan-cache tests for the plan compiler.

A plan runs preprocess, predictor and statistics either as one fused
pass or as module-call steps, chosen from the module types alone.  The
two step groups must write the same container bytes for the same
modules, on every engine: the ``module_call_twin`` of a pipeline (same
spec, predictor a do-nothing subclass the fused gate rejects) is the
reference the presets are held to, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compile import plan_for, plan_key
from repro.core import get_preset
from repro.core.modules_std import InterpPredictor
from repro.core.pipeline import Pipeline, decompress as core_decompress
from repro.errors import ConfigError
from repro.kernels.plancache import COMPILED_PLAN_CACHE
from repro.types import EbMode

PRESETS = ("fzmod-default", "fzmod-speed", "fzmod-quality")
#: presets whose preprocess/predictor/statistics run as the fused pass
FUSED = ("fzmod-default", "fzmod-speed")


@pytest.fixture
def field(rng) -> np.ndarray:
    base = np.cumsum(rng.standard_normal((40, 32, 32)), axis=0)
    return (base * 3.0).astype(np.float32)


# --------------------------------------------------------------------- #
# byte identity: fused vs module-call steps, every preset x every engine
# --------------------------------------------------------------------- #
class TestByteIdentity:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("mode", [EbMode.REL, EbMode.ABS])
    def test_single_engine(self, field, preset, mode, module_call_twin):
        pipe = get_preset(preset)
        eb = 1e-3 if mode is EbMode.REL else 0.05
        ref = module_call_twin(pipe).compress(field, eb, mode)
        got = pipe.compress(field, eb, mode)
        assert got.blob == ref.blob
        recon = core_decompress(got.blob)
        assert recon.shape == field.shape

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("codebook", ["per-shard", "shared"])
    def test_sharded_engine(self, field, preset, codebook, module_call_twin):
        from repro.parallel.executor import compress_sharded
        pipe = get_preset(preset)
        if codebook == "shared" and preset == "fzmod-speed":
            pytest.skip("shared codebook is a huffman-only mode")
        ref, got = (compress_sharded(field, p, 1e-3, workers=2,
                                     shard_mb=0.125, codebook=codebook)
                    for p in (module_call_twin(pipe), pipe))
        assert got.blob == ref.blob

    @pytest.mark.parametrize("preset", PRESETS)
    def test_streaming_engine(self, field, preset, tmp_path,
                              module_call_twin):
        from repro.streaming.engine import compress_stream
        from repro.streaming.source import ArraySource
        pipe = get_preset(preset)
        blobs = []
        for k, p in enumerate((module_call_twin(pipe), pipe)):
            path = tmp_path / f"f-{k}.fzms"
            with ArraySource(field) as source:
                compress_stream(source, p, 1e-3, EbMode.REL,
                                out_path=str(path), workers=2,
                                shard_mb=0.125)
            blobs.append(path.read_bytes())
        assert blobs[1] == blobs[0]

    def test_tight_bound_outlier_path(self, spiky_1d, module_call_twin):
        # spiky data under a tight bound exercises the outlier slow path
        pipe = get_preset("fzmod-default")
        ref = module_call_twin(pipe).compress(spiky_1d, 1e-6)
        got = pipe.compress(spiky_1d, 1e-6)
        assert got.blob == ref.blob
        assert got.stats.outlier_count > 0

    def test_stats_match_interpreter(self, field, module_call_twin):
        pipe = get_preset("fzmod-default")
        ref = module_call_twin(pipe).compress(field, 1e-3).stats
        got = pipe.compress(field, 1e-3).stats
        assert got.output_bytes == ref.output_bytes
        assert got.eb_abs == ref.eb_abs
        assert got.code_fraction == ref.code_fraction
        assert got.outlier_count == ref.outlier_count
        assert got.section_sizes == ref.section_sizes


# --------------------------------------------------------------------- #
# which step group a pipeline gets
# --------------------------------------------------------------------- #
def _front_details(plan) -> list[str]:
    return [step.detail for step in plan.steps
            if step.stage in ("preprocess", "predictor", "statistics")]


class TestCompileModes:
    def test_quality_compiles_to_module_call_steps(self):
        from tests.test_golden_container import (GOLDEN_DATA,
                                                 GOLDEN_QUALITY_STORAGE_BLOB)
        pipe = get_preset("fzmod-quality")
        plan = plan_for(pipe)
        assert _front_details(plan) == ["module call"] * 3
        assert plan.compress(GOLDEN_DATA, 1e-3).blob == \
            GOLDEN_QUALITY_STORAGE_BLOB

    @pytest.mark.parametrize("preset", FUSED)
    def test_gate_is_the_module_type(self, preset, module_call_twin):
        pipe = get_preset(preset)
        fused, plain = plan_for(pipe), plan_for(module_call_twin(pipe))
        assert "module call" not in _front_details(fused)
        assert set(_front_details(plain)) == {"module call"}
        # same spec, so the same header; a different plan all the same
        assert plain.spec == fused.spec and plain.key != fused.key

    def test_invalid_mode_rejected(self, field):
        with pytest.raises(ConfigError, match="compile"):
            repro.compress(field, "fzmod-default", 1e-3,
                           compile="yes-please")

    @pytest.mark.parametrize("preset", PRESETS)
    def test_pipeline_and_spec_compile_entrypoints(self, preset):
        from repro.core.presets import get_preset_spec
        plan_a = get_preset(preset).compile()
        plan_b = get_preset_spec(preset).compile()
        assert plan_a is plan_b  # content-addressed: same key, same object
        assert plan_a.key == plan_key(get_preset(preset))
        assert preset in plan_a.describe()


# --------------------------------------------------------------------- #
# plan cache behaviour
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_hit_after_miss(self):
        pipe = get_preset("fzmod-default")
        COMPILED_PLAN_CACHE.clear()
        COMPILED_PLAN_CACHE.reset_stats()
        first = plan_for(pipe)
        assert COMPILED_PLAN_CACHE.stats()["misses"] >= 1
        hits0 = COMPILED_PLAN_CACHE.stats()["hits"]
        second = plan_for(pipe)
        assert second is first
        assert COMPILED_PLAN_CACHE.stats()["hits"] == hits0 + 1

    def test_distinct_specs_get_distinct_plans(self):
        a = plan_for(get_preset("fzmod-default"))
        b = plan_for(get_preset("fzmod-speed"))
        assert a.key != b.key

    def test_env_kill_switch_disables_reuse(self, monkeypatch):
        pipe = get_preset("fzmod-default")
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        COMPILED_PLAN_CACHE.clear()
        first = plan_for(pipe)
        second = plan_for(pipe)
        assert first is not second  # rebuilt every time, never stored
        assert len(COMPILED_PLAN_CACHE) == 0
        assert first.key == second.key  # still the same content address

    def test_env_kill_switch_output_identical(self, monkeypatch, smooth_3d):
        pipe = get_preset("fzmod-default")
        ref = pipe.compress(smooth_3d, 1e-3).blob
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        got = pipe.compress(smooth_3d, 1e-3).blob
        assert got == ref

    def test_rebuilt_pipeline_resolves_the_same_plan(self):
        """What a shard worker does: rebuild the pipeline from the spec JSON
        it was shipped (and the shared codebook, if any) and ask for its
        plan -- the one the parent holds, by content."""
        from repro.core.spec import PipelineSpec
        from repro.parallel.executor import _with_fixed_codebook
        pipe = get_preset("fzmod-default")
        rebuilt = Pipeline.from_spec(
            PipelineSpec.from_json(pipe.spec.to_json()))
        assert plan_for(rebuilt) is plan_for(pipe)
        lengths = np.full(pipe.num_bins, 10, dtype=np.uint8)
        pinned = _with_fixed_codebook(pipe, lengths)
        assert plan_key(pinned) != plan_key(pipe)
        assert plan_for(_with_fixed_codebook(rebuilt, lengths.copy())) \
            is plan_for(pinned)

    def test_cached_plan_never_runs_another_pipelines_module(self, field):
        """Two pipelines, one spec, differently configured predictors: each
        must run its own instance, whatever the plan cache holds."""
        COMPILED_PLAN_CACHE.clear()
        deep, shallow = (Pipeline.from_names(
            predictor="interp", statistics="histogram-topk")
            for _ in range(2))
        shallow.predictor = InterpPredictor(max_level=1)
        a = deep.compress(field, 1e-3)
        b = shallow.compress(field, 1e-3)
        assert (a.stats.interp_levels, b.stats.interp_levels) == (4, 1)
        assert a.blob != b.blob
        assert plan_key(deep) != plan_key(shallow)
        for cf in (a, b):
            assert core_decompress(cf.blob).shape == field.shape

    def test_opaque_module_binds_by_identity(self, field, module_call_twin):
        """An opaque module has no fingerprint but its name: the cached
        plan serves the instance it was traced from and nobody else."""
        COMPILED_PLAN_CACHE.clear()
        one = module_call_twin(get_preset("fzmod-default"))
        other = module_call_twin(get_preset("fzmod-default"))
        assert plan_key(one) == plan_key(other)
        plan = plan_for(one)
        assert plan_for(one) is plan
        assert plan.matches(one) and not plan.matches(other)
        assert plan_for(other) is not plan
