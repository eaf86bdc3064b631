"""The sharded parallel compression engine.

The load-bearing guarantees: worker-count determinism (byte identical
containers), REL bounds resolved globally before sharding,
header-driven parallel decode from the blob alone, combined statistics
that add up, and loud failure on corruption.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (ModuleRegistry, PipelineSpec, decompress,
                        fzmod_default, get_preset)
from repro.core.modules_std import (HuffmanEncoder, LorenzoPredictor,
                                    NoSecondary, RelEbPreprocess,
                                    StandardHistogram)
from repro.errors import ConfigError, HeaderError
from repro.parallel.executor import (ShardPlan, compress_sharded,
                                     decompress_sharded, describe_sharded,
                                     is_sharded, parse_sharded)
from repro.types import EbMode, ErrorBound


@pytest.fixture
def field() -> np.ndarray:
    y, x = np.mgrid[0:120, 0:90]
    return (np.sin(x / 9.0) * np.cos(y / 7.0) * 40.0 + 250.0
            ).astype(np.float32)


class TestShardPlan:
    def test_slab_bounds_cover_field_exactly(self):
        plan = ShardPlan.for_field((100, 8, 8), np.float32, shard_mb=0.01)
        bounds = plan.bounds
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        for (_a0, b0), (a1, _b1) in zip(bounds, bounds[1:]):
            assert b0 == a1
        assert all(b > a for a, b in bounds)

    def test_shard_mb_controls_count(self):
        small = ShardPlan.for_field((64, 64, 64), np.float32, shard_mb=0.25)
        large = ShardPlan.for_field((64, 64, 64), np.float32, shard_mb=64.0)
        assert small.count > large.count
        assert large.count == 1

    def test_rows_never_below_one(self):
        # a single row is bigger than the shard target: one row per shard
        plan = ShardPlan.for_field((10, 1024, 1024), np.float32,
                                   shard_mb=0.5)
        assert plan.rows_per_shard == 1
        assert plan.count == 10

    def test_1d_fields_shard(self):
        plan = ShardPlan.for_field((100_000,), np.float32, shard_mb=0.1)
        assert plan.count > 1

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            ShardPlan.for_field((64, 64), np.float32, shard_mb=0.0)
        with pytest.raises(ConfigError):
            ShardPlan(shape=(), dtype="<f4", rows_per_shard=1)


class TestDeterminism:
    def test_worker_count_does_not_change_the_blob(self, field):
        pipe = fzmod_default()
        blobs = [compress_sharded(field, pipe, 1e-3, workers=w,
                                  shard_mb=0.02).blob
                 for w in (1, 2, 4)]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_workers4_decodes_byte_identical_to_workers1(self, field):
        """The acceptance criterion, at test scale."""
        pipe = fzmod_default()
        cf1 = pipe.compress(field, 1e-3, workers=1, shard_mb=0.02)
        cf4 = pipe.compress(field, 1e-3, workers=4, shard_mb=0.02)
        assert cf1.blob == cf4.blob
        out1 = decompress(cf1.blob)
        out4 = decompress(cf4.blob, workers=4)
        assert out1.tobytes() == out4.tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize("preset", ["fzmod-default", "fzmod-speed"])
    def test_bound_holds_and_decode_matches(self, field, preset):
        pipe = get_preset(preset)
        result = compress_sharded(field, pipe, 1e-3, shard_mb=0.02,
                                  workers=2)
        assert result.shard_count > 1
        out = decompress_sharded(result.blob, workers=2)
        assert out.shape == field.shape and out.dtype == field.dtype
        assert np.abs(out - field).max() <= 1e-3 * np.ptp(field) * 1.0001

    def test_rel_bound_resolved_globally(self, field):
        """Shard-local ranges must NOT leak into REL resolution."""
        pipe = fzmod_default()
        result = compress_sharded(field, pipe, 1e-3, shard_mb=0.02)
        eb_abs = ErrorBound(1e-3, EbMode.REL).absolute(float(field.min()),
                                                       float(field.max()))
        assert result.index.eb_abs == pytest.approx(eb_abs)
        for s in result.shard_stats:
            assert s.eb_abs == pytest.approx(eb_abs)

    def test_abs_mode_passthrough(self, field):
        result = compress_sharded(field, fzmod_default(), 0.5,
                                  mode=EbMode.ABS, shard_mb=0.02)
        out = decompress_sharded(result.blob)
        assert np.abs(out - field).max() <= 0.5 * 1.0001

    def test_spec_input_builds_pipeline(self, field):
        spec = PipelineSpec(name="via-spec")
        result = compress_sharded(field, spec, 1e-3, shard_mb=0.02)
        assert result.index.spec().name == "via-spec"
        out = decompress_sharded(result.blob)
        assert np.abs(out - field).max() <= 1e-3 * np.ptp(field) * 1.0001

    def test_single_shard_field(self):
        data = np.linspace(0, 1, 2000, dtype=np.float32)
        result = compress_sharded(data, fzmod_default(), 1e-3)
        assert result.shard_count == 1
        assert np.allclose(decompress_sharded(result.blob), data, atol=1e-2)

    def test_core_decompress_routes_sharded_blobs(self, field):
        result = compress_sharded(field, fzmod_default(), 1e-3,
                                  shard_mb=0.02)
        assert np.array_equal(decompress(result.blob),
                              decompress_sharded(result.blob))


class TestStatsAggregation:
    def test_combined_stats_add_up(self, field):
        result = compress_sharded(field, fzmod_default(), 1e-3,
                                  shard_mb=0.02, workers=2)
        s = result.stats
        assert s.input_bytes == field.nbytes
        assert s.element_count == field.size
        assert s.output_bytes == len(result.blob)
        assert s.output_bytes == result.nbytes
        assert s.outlier_count == sum(t.outlier_count
                                      for t in result.shard_stats)
        per_shard_sections = sum(sum(t.section_sizes.values())
                                 for t in result.shard_stats)
        assert sum(s.section_sizes.values()) == per_shard_sections
        assert s.cr > 1.0
        assert result.wall_seconds > 0

    def test_stage_seconds_are_summed_cpu_seconds(self, field):
        result = compress_sharded(field, fzmod_default(), 1e-3,
                                  shard_mb=0.02, workers=2)
        for stage in ("preprocess", "predictor", "encoder"):
            assert result.stats.stage_seconds[stage] == pytest.approx(
                sum(t.stage_seconds[stage] for t in result.shard_stats))


class TestContainerFormat:
    def test_is_sharded(self, field):
        result = compress_sharded(field, fzmod_default(), 1e-3,
                                  shard_mb=0.02)
        assert is_sharded(result.blob)
        assert not is_sharded(fzmod_default().compress(field, 1e-3).blob)
        assert not is_sharded(b"xy")

    def test_parse_rejects_corruption(self, field):
        blob = compress_sharded(field, fzmod_default(), 1e-3,
                                shard_mb=0.02).blob
        # flip one byte in the index JSON
        corrupt = bytearray(blob)
        corrupt[20] ^= 0xFF
        with pytest.raises(HeaderError):
            parse_sharded(bytes(corrupt))
        # truncate mid-shard: the shard table must notice
        with pytest.raises(HeaderError):
            parse_sharded(blob[:-10])

    def test_corrupt_shard_body_fails_on_decode(self, field):
        blob = bytearray(compress_sharded(field, fzmod_default(), 1e-3,
                                          shard_mb=0.02).blob)
        blob[-30] ^= 0xFF  # inside the last shard's body
        with pytest.raises(HeaderError):
            decompress_sharded(bytes(blob))

    def test_describe_sharded(self, field):
        result = compress_sharded(field, fzmod_default(), 1e-3,
                                  shard_mb=0.02)
        info = describe_sharded(result.blob)
        assert info["shape"] == list(field.shape)
        assert len(info["shards"]) == result.shard_count
        assert info["pipeline"]["predictor"] == "lorenzo"

    def test_index_spec_round_trip(self, field):
        pipe = fzmod_default(secondary="deflate")
        result = compress_sharded(field, pipe, 1e-3, shard_mb=0.02)
        index, shards = parse_sharded(result.blob)
        assert index.spec() == pipe.spec
        assert len(shards) == index.shard_count


class TestBackendSelection:
    def test_custom_registry_falls_back_in_process(self, field):
        reg = ModuleRegistry()
        for mod in (RelEbPreprocess(), LorenzoPredictor(),
                    StandardHistogram(), HuffmanEncoder(), NoSecondary()):
            reg.register(mod)

        class RenamedLorenzo(LorenzoPredictor):
            """A module that only exists in this registry."""
            name = "lorenzo-local"

        reg.register(RenamedLorenzo())
        spec = PipelineSpec(predictor="lorenzo-local")
        result = compress_sharded(field, spec, 1e-3, shard_mb=0.02,
                                  workers=4, registry=reg)
        out = decompress_sharded(result.blob, registry=reg)
        assert np.abs(out - field).max() <= 1e-3 * np.ptp(field) * 1.0001

    def test_bad_worker_count_rejected(self, field):
        with pytest.raises(ConfigError):
            compress_sharded(field, fzmod_default(), 1e-3, workers=0)


def test_shards_run_on_threads_in_this_process():
    """A sharded round trip never imports ``multiprocessing`` (and so
    stages nothing in shared memory)."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import repro\n"
        "x = np.arange(120 * 90, dtype=np.float32).reshape(120, 90)\n"
        "cf = repro.compress(x, 'fzmod-default', 1e-3, workers=2,"
        " shard_mb=0.02)\n"
        "assert cf.shard_count > 1\n"
        "repro.decompress(cf.blob, workers=2)\n"
        "assert not [m for m in sys.modules"
        " if m.partition('.')[0] == 'multiprocessing']\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ,
                        "PYTHONPATH": os.pathsep.join(sys.path)})

