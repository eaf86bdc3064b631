"""End-to-end pipeline tests: round trips, error bounds, stats, containers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Pipeline, decompress, fzmod_default, fzmod_quality,
                        fzmod_speed)
from repro.errors import ConfigError, PipelineError
from repro.metrics import verify_error_bound
from repro.types import EbMode, ErrorBound
from tests.conftest import eb_abs_for

ALL_PRESETS = [fzmod_default, fzmod_speed, fzmod_quality]


@pytest.mark.parametrize("preset", ALL_PRESETS,
                         ids=["default", "speed", "quality"])
class TestPresetRoundTrips:
    @pytest.mark.parametrize("rel", [1e-2, 1e-4])
    def test_2d_bound(self, preset, smooth_2d, rel):
        pipe = preset()
        cf = pipe.compress(smooth_2d, rel)
        recon = decompress(cf.blob)
        assert verify_error_bound(smooth_2d, recon, eb_abs_for(smooth_2d, rel))

    def test_3d(self, preset, smooth_3d):
        cf = preset().compress(smooth_3d, 1e-3)
        recon = decompress(cf.blob)
        assert verify_error_bound(smooth_3d, recon, eb_abs_for(smooth_3d, 1e-3))

    def test_1d(self, preset, smooth_1d):
        cf = preset().compress(smooth_1d, 1e-3)
        recon = decompress(cf.blob)
        assert verify_error_bound(smooth_1d, recon, eb_abs_for(smooth_1d, 1e-3))

    def test_noisy(self, preset, noisy_2d):
        cf = preset().compress(noisy_2d, 1e-3)
        recon = decompress(cf.blob)
        assert verify_error_bound(noisy_2d, recon, eb_abs_for(noisy_2d, 1e-3))

    def test_spiky_outliers(self, preset, spiky_1d):
        cf = preset().compress(spiky_1d, 1e-4)
        recon = decompress(cf.blob)
        assert verify_error_bound(spiky_1d, recon, eb_abs_for(spiky_1d, 1e-4))

    def test_constant(self, preset, constant_3d):
        cf = preset().compress(constant_3d, 1e-3)
        recon = decompress(cf.blob)
        np.testing.assert_allclose(recon, constant_3d, atol=1e-3)

    def test_float64(self, preset, smooth_2d):
        data = smooth_2d.astype(np.float64)
        cf = preset().compress(data, 1e-5)
        recon = decompress(cf.blob)
        assert recon.dtype == np.float64
        assert verify_error_bound(data, recon, eb_abs_for(data, 1e-5))

    def test_abs_mode(self, preset, smooth_2d):
        cf = preset().compress(smooth_2d, ErrorBound(0.05, EbMode.ABS))
        recon = decompress(cf.blob)
        assert verify_error_bound(smooth_2d, recon, 0.05)

    def test_shape_and_dtype_restored(self, preset, smooth_3d):
        cf = preset().compress(smooth_3d, 1e-3)
        recon = decompress(cf.blob)
        assert recon.shape == smooth_3d.shape
        assert recon.dtype == smooth_3d.dtype

    def test_stats_consistent(self, preset, smooth_2d):
        cf = preset().compress(smooth_2d, 1e-3)
        s = cf.stats
        assert s.input_bytes == smooth_2d.nbytes
        assert s.output_bytes == len(cf.blob)
        assert s.cr == pytest.approx(s.input_bytes / s.output_bytes)
        assert s.bit_rate == pytest.approx(len(cf.blob) * 8 / smooth_2d.size)
        assert s.element_count == smooth_2d.size
        assert set(s.stage_seconds) >= {"preprocess", "predictor", "encoder",
                                        "secondary"}

    def test_decompress_accepts_compressed_field(self, preset, smooth_2d):
        pipe = preset()
        cf = pipe.compress(smooth_2d, 1e-3)
        np.testing.assert_array_equal(pipe.decompress(cf),
                                      pipe.decompress(cf.blob))


class TestInputValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fzmod_default().compress(np.zeros((0,), dtype=np.float32), 1e-3)

    def test_int_dtype_rejected(self):
        with pytest.raises(ConfigError):
            fzmod_default().compress(np.zeros(10, dtype=np.int32), 1e-3)

    def test_4d_rejected(self):
        with pytest.raises(ConfigError):
            fzmod_default().compress(np.zeros((2, 2, 2, 2), dtype=np.float32),
                                     1e-3)

    def test_nan_rejected(self):
        data = np.ones(10, dtype=np.float32)
        data[3] = np.nan
        with pytest.raises(ConfigError):
            fzmod_default().compress(data, 1e-3)

    def test_nonpositive_eb_rejected(self):
        with pytest.raises(ConfigError):
            fzmod_default().compress(np.ones(10, dtype=np.float32), 0.0)

    def test_encoder_statistics_mismatch(self):
        from repro.core.modules_std import (HuffmanEncoder, LorenzoPredictor,
                                            RelEbPreprocess)
        with pytest.raises(PipelineError):
            Pipeline(preprocess=RelEbPreprocess(),
                     predictor=LorenzoPredictor(),
                     encoder=HuffmanEncoder(), statistics=None)


class TestContainerPortability:
    def test_decompress_is_header_driven(self, smooth_2d):
        """A blob from any pipeline decodes without knowing the producer."""
        for preset in ALL_PRESETS:
            blob = preset().compress(smooth_2d, 1e-3).blob
            recon = decompress(blob)
            assert verify_error_bound(smooth_2d, recon,
                                      eb_abs_for(smooth_2d, 1e-3))

    def test_secondary_deflate_reduces_or_keeps_size(self, smooth_2d):
        plain = fzmod_default().compress(smooth_2d, 1e-2)
        packed = fzmod_default(secondary="deflate").compress(smooth_2d, 1e-2)
        assert packed.stats.output_bytes <= plain.stats.output_bytes + 64
        recon = decompress(packed.blob)
        assert verify_error_bound(smooth_2d, recon, eb_abs_for(smooth_2d, 1e-2))

    def test_garbage_blob_rejected(self):
        from repro.errors import HeaderError
        with pytest.raises(HeaderError):
            decompress(b"not a container at all")


class TestCompressionCharacter:
    def test_speed_has_lowest_ratio_on_smooth(self, smooth_2d):
        # large enough that fixed codebook/chunk overheads are negligible
        data = np.tile(smooth_2d, (4, 4))
        crs = {p().name: p().compress(data, 1e-3).stats.cr
               for p in ALL_PRESETS}
        assert crs["fzmod-speed"] <= min(crs["fzmod-default"],
                                         crs["fzmod-quality"])

    def test_quality_beats_default_on_smooth(self, smooth_2d):
        cq = fzmod_quality().compress(smooth_2d, 1e-4).stats.cr
        cd = fzmod_default().compress(smooth_2d, 1e-4).stats.cr
        assert cq >= cd * 0.9  # interp never catastrophically worse here

    def test_tighter_bound_lower_cr(self, smooth_2d):
        pipe = fzmod_default()
        cr_loose = pipe.compress(smooth_2d, 1e-2).stats.cr
        cr_tight = pipe.compress(smooth_2d, 1e-5).stats.cr
        assert cr_tight < cr_loose

    @given(st.floats(1e-5, 1e-1), st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_bound_holds_for_random_fields(self, rel, seed):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.standard_normal((24, 31)), axis=0).astype(np.float32)
        cf = fzmod_default().compress(data, rel)
        recon = decompress(cf.blob)
        assert verify_error_bound(data, recon, eb_abs_for(data, rel))
