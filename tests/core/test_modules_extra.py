"""Tests for the extended module library (pwr-eb, regression, fixedlen
encoder) and container integrity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineBuilder, decompress
from repro.core.modules_extra import (FixedLenEncoder, PwRelPreprocess,
                                      RegressionPredictor)
from repro.errors import ConfigError, HeaderError
from repro.types import EbMode, ErrorBound
from tests.conftest import eb_abs_for


class TestPwRelPreprocess:
    def test_pointwise_relative_bound_holds(self, rng):
        data = np.exp(rng.standard_normal(5000) * 3.0).astype(np.float32)
        pipe = (PipelineBuilder("pwr").with_preprocess("pwr-eb")
                .with_predictor("lorenzo").with_encoder("huffman").build())
        cf = pipe.compress(data, ErrorBound(1e-2, EbMode.ABS))
        recon = decompress(cf.blob)
        rel = np.abs(recon.astype(np.float64) / data.astype(np.float64) - 1.0)
        assert rel.max() <= 1e-2 * 1.01

    def test_huge_dynamic_range_compresses_well(self, rng):
        """The use case: log transform tames Nyx-style dynamic range."""
        data = np.exp(rng.standard_normal((32, 32, 16)) * 2.5).astype(np.float32)
        pwr = (PipelineBuilder("pwr").with_preprocess("pwr-eb")
               .with_predictor("lorenzo").with_encoder("huffman").build())
        vr = (PipelineBuilder("vr").with_predictor("lorenzo")
              .with_encoder("huffman").build())
        cf_pwr = pwr.compress(data, ErrorBound(1e-2, EbMode.ABS))
        # a value-range bound protecting the same smallest values needs
        # eb_abs ~ data.min()*1e-2 -> eb_rel = that / range
        eb_rel = max(1e-2 * float(data.min()) / float(np.ptp(data)), 1e-12)
        cf_vr = vr.compress(data, ErrorBound(eb_rel, EbMode.REL))
        assert cf_pwr.stats.cr > 2 * cf_vr.stats.cr

    def test_rejects_nonpositive_data(self):
        mod = PwRelPreprocess()
        with pytest.raises(ConfigError):
            mod.forward(np.array([-1.0, 2.0], dtype=np.float32),
                        ErrorBound(1e-2))

    def test_rejects_huge_bound(self):
        mod = PwRelPreprocess()
        with pytest.raises(ConfigError):
            mod.forward(np.array([1.0, 2.0], dtype=np.float32),
                        ErrorBound(1.5, EbMode.ABS))


class TestRegressionPredictor:
    @pytest.mark.parametrize("shape", [(100,), (33, 21), (9, 10, 11)])
    def test_round_trip(self, rng, shape):
        data = np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)
        mod = RegressionPredictor()
        eb = eb_abs_for(data, 1e-3)
        arts = mod.encode(data, eb, 512)
        recon = mod.decode(arts, data.shape, data.dtype, eb, 512)
        assert np.abs(data.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb * (1 + 1e-5)

    def test_exact_on_linear_data(self):
        """A ramp is in the model class: all residual codes are zero."""
        y, x = np.mgrid[0:32, 0:32]
        data = (3.0 * x + 2.0 * y + 5.0).astype(np.float32)
        mod = RegressionPredictor()
        arts = mod.encode(data, 0.01, 512)
        # sentinel (radius) == zero residual
        assert np.mean(arts.codes == 512) > 0.99
        assert arts.outliers.count == 0

    def test_coefficients_round_trip_via_aux(self, smooth_2d):
        pipe = (PipelineBuilder("reg").with_predictor("regression")
                .with_encoder("huffman").build())
        cf = pipe.compress(smooth_2d, 1e-3)
        assert any(k.startswith("aux.") for k in cf.stats.section_sizes)
        recon = decompress(cf.blob)
        eb = eb_abs_for(smooth_2d, 1e-3)
        assert np.abs(smooth_2d - recon).max() <= eb * (1 + 1e-4)

    def test_block_size_honoured_from_container(self, smooth_2d):
        pipe = (PipelineBuilder("reg").with_predictor("regression")
                .with_encoder("bitshuffle").build())
        # registry default block is 4; the artifacts carry it
        cf = pipe.compress(smooth_2d, 1e-3)
        recon = decompress(cf.blob)
        assert recon.shape == smooth_2d.shape

    def test_bad_block_rejected(self):
        with pytest.raises(ConfigError):
            RegressionPredictor(block=1)

    @given(st.integers(0, 5), st.floats(1e-4, 1e-1))
    @settings(max_examples=20, deadline=None)
    def test_bound_property(self, seed, rel):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.standard_normal((17, 23)), axis=1).astype(np.float32)
        mod = RegressionPredictor()
        eb = eb_abs_for(data, rel)
        arts = mod.encode(data, eb, 512)
        recon = mod.decode(arts, data.shape, data.dtype, eb, 512)
        assert np.abs(data.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb * (1 + 1e-5)


class TestFixedLenEncoderModule:
    def test_round_trip_via_pipeline(self, smooth_3d):
        pipe = (PipelineBuilder("cuszp2ish").with_predictor("lorenzo")
                .with_encoder("fixedlen").build())
        cf = pipe.compress(smooth_3d, 1e-3)
        recon = decompress(cf.blob)
        eb = eb_abs_for(smooth_3d, 1e-3)
        assert np.abs(smooth_3d - recon).max() <= eb * (1 + 1e-4)

    def test_module_level_roundtrip(self, rng):
        codes = rng.integers(400, 600, 5000).astype(np.uint16)
        enc = FixedLenEncoder()
        stream = enc.encode(codes, 1024, None)
        out = enc.decode(stream, codes.size, 1024)
        np.testing.assert_array_equal(out, codes)

    def test_faster_than_huffman_shape(self, rng):
        """No histogram required — pairs with any predictor immediately."""
        assert FixedLenEncoder.needs_statistics is False


class TestContainerIntegrity:
    def test_corrupt_body_detected(self, smooth_2d):
        from repro.core import fzmod_default
        blob = bytearray(fzmod_default().compress(smooth_2d, 1e-3).blob)
        blob[-10] ^= 0xFF
        with pytest.raises(HeaderError, match="CRC"):
            decompress(bytes(blob))

    def test_truncated_body_detected(self, smooth_2d):
        from repro.core import fzmod_speed
        blob = fzmod_speed().compress(smooth_2d, 1e-3).blob
        with pytest.raises(HeaderError, match="CRC"):
            decompress(blob[:-3])

    def test_baseline_blob_also_checked(self, smooth_2d):
        from repro.baselines import CuSZp2
        comp = CuSZp2()
        blob = bytearray(comp.compress(smooth_2d, 1e-3).blob)
        blob[-1] ^= 0x01
        with pytest.raises(HeaderError, match="CRC"):
            comp.decompress(bytes(blob))


class TestAutoTranspose:
    def test_round_trip_restores_orientation(self, rng):
        data = rng.standard_normal((13, 29, 7)).astype(np.float32)
        pipe = (PipelineBuilder("at").with_preprocess("auto-transpose")
                .with_predictor("lorenzo").with_encoder("huffman").build())
        cf = pipe.compress(data, 1e-3)
        recon = decompress(cf.blob)
        assert recon.shape == data.shape
        assert verify_error_bound_helper(data, recon, 1e-3)

    def test_permutation_recorded(self, rng):
        data = rng.standard_normal((6, 40)).astype(np.float32)
        pipe = (PipelineBuilder("at").with_preprocess("auto-transpose")
                .with_predictor("lorenzo").with_encoder("bitshuffle").build())
        cf = pipe.compress(data, 1e-2)
        perm = cf.header.stage_meta["preprocess"]["perm"]
        assert sorted(perm) == [0, 1]

    def test_smoothest_axis_goes_last(self):
        from repro.core.modules_extra import AutoTransposePreprocess
        t = np.linspace(0, 4, 200)
        # smooth along axis 0 (sine), rough along axis 1 (per-column noise
        # that is constant along axis 0)
        rng = np.random.default_rng(1)
        data = (np.sin(t)[:, None]
                + rng.standard_normal(30)[None, :]).astype(np.float32)
        res = AutoTransposePreprocess().forward(data, ErrorBound(1e-3))
        assert res.meta["perm"] == [1, 0]  # smooth axis (0) moved last

    def test_1d_identity(self, rng):
        from repro.core.modules_extra import AutoTransposePreprocess
        data = rng.standard_normal(64).astype(np.float32)
        res = AutoTransposePreprocess().forward(data, ErrorBound(1e-3))
        assert res.meta["perm"] == [0]
        np.testing.assert_array_equal(res.data, data)


def verify_error_bound_helper(data, recon, rel):
    from repro.metrics import verify_error_bound
    rng_v = float(data.max() - data.min())
    return verify_error_bound(data, recon, rel * rng_v)
