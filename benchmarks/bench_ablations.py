"""Ablation benches for the design choices §3.2 calls out.

* standard vs top-k histogram (recommended pairing with the interp
  predictor);
* optional secondary encoder, stdlib DEFLATE in the paper's zstd role
  ("if the compression ratios are still in need of improvement");
* fused vs staged encoder construction (FZ-GPU vs FZMod-Speed);
* quant-code radius (alphabet size vs outlier volume).
"""

from __future__ import annotations

import numpy as np
import pytest
from _common import emit

from repro.baselines import FZGPU
from repro.core import PipelineBuilder, decompress, fzmod_default, fzmod_speed
from repro.data import load_field
from repro.kernels import histogram as khist
from repro.kernels import interp, lorenzo


@pytest.fixture(scope="module")
def smooth_field() -> np.ndarray:
    return load_field("nyx", "temperature", scale=0.08)


class TestHistogramAblation:
    def test_topk_equals_standard_counts(self, benchmark, smooth_field):
        eb = float(smooth_field.max() - smooth_field.min()) * 1e-4
        codes = interp.compress(smooth_field, eb).codes
        std = khist.histogram(codes, 1024)
        topk = benchmark(khist.histogram_topk, codes, 1024, 16)
        np.testing.assert_array_equal(std.counts, topk.counts)
        lines = ["Ablation: histogram module choice (interp codes, nyx)",
                 f"nonzero symbols      {std.nonzero_symbols}",
                 f"top-16 mass          {topk.topk_mass:.4f}",
                 f"entropy (bits/sym)   {std.entropy_bits():.3f}"]
        emit("ablation_histogram", "\n".join(lines))
        # interp concentrates codes -> top-k covers almost everything,
        # which is when the paper recommends the top-k module
        assert topk.topk_mass > 0.75

    def test_interp_concentrates_more_than_lorenzo(self, smooth_field):
        eb = float(smooth_field.max() - smooth_field.min()) * 1e-4
        ci = interp.compress(smooth_field, eb).codes
        cl = lorenzo.compress(smooth_field, eb).codes.reshape(-1)
        mi = khist.histogram_topk(ci, 1024, 8).topk_mass
        ml = khist.histogram_topk(cl, 1024, 8).topk_mass
        assert mi >= ml


class TestSecondaryAblation:
    def test_deflate_gain(self, benchmark, smooth_field):
        base = fzmod_default()
        packed = fzmod_default(secondary="deflate")
        cf_base = base.compress(smooth_field, 1e-2)
        cf_packed = benchmark.pedantic(packed.compress,
                                       args=(smooth_field, 1e-2),
                                       rounds=1, iterations=1)
        gain = cf_base.stats.output_bytes / cf_packed.stats.output_bytes
        lines = ["Ablation: secondary deflate encoder (fzmod-default, nyx, "
                 "eb=1e-2)",
                 f"CR without secondary {cf_base.stats.cr:10.2f}",
                 f"CR with secondary    {cf_packed.stats.cr:10.2f}",
                 f"size gain            {gain:10.3f}x"]
        emit("ablation_secondary", "\n".join(lines))
        assert gain >= 0.99  # never meaningfully worse
        recon = decompress(cf_packed.blob)
        rng = float(smooth_field.max() - smooth_field.min())
        assert np.abs(smooth_field - recon).max() <= 1e-2 * rng * 1.001


class TestFusionAblation:
    def test_fused_fzgpu_beats_staged_speed_ratio(self, benchmark,
                                                  smooth_field):
        """Same data-reduction techniques; the fused construction (finer
        elimination granularity, two-level bitmap) wins on ratio, as the
        paper observes for FZ-GPU vs FZMod-Speed."""
        staged = fzmod_speed()
        fused = FZGPU()
        cf_staged = benchmark.pedantic(staged.compress,
                                       args=(smooth_field, 1e-2),
                                       rounds=1, iterations=1)
        cf_fused = fused.compress(smooth_field, 1e-2)
        lines = ["Ablation: fused (FZ-GPU) vs staged (FZMod-Speed) encoder, "
                 "nyx eb=1e-2",
                 f"fused CR   {cf_fused.stats.cr:8.2f}",
                 f"staged CR  {cf_staged.stats.cr:8.2f}"]
        emit("ablation_fusion", "\n".join(lines))
        assert cf_fused.stats.cr > cf_staged.stats.cr


class TestRadiusAblation:
    @pytest.mark.parametrize("radius", [128, 512, 4096])
    def test_radius_tradeoff(self, benchmark, smooth_field, radius):
        """Small radii shrink the Huffman alphabet but push residuals into
        the outlier channel; the default (512) balances the two."""
        pipe = (PipelineBuilder(f"r{radius}").with_predictor("lorenzo")
                .with_encoder("huffman").with_radius(radius).build())
        cf = benchmark.pedantic(pipe.compress, args=(smooth_field, 1e-4),
                                rounds=1, iterations=1)
        recon = decompress(cf.blob)
        rng = float(smooth_field.max() - smooth_field.min())
        assert np.abs(smooth_field - recon).max() <= 1e-4 * rng * 1.001

    def test_radius_outlier_relationship(self, benchmark, smooth_field):
        counts = {}
        for radius in (64, 512, 4096):
            pipe = (PipelineBuilder(f"r{radius}").with_predictor("lorenzo")
                    .with_encoder("huffman").with_radius(radius).build())
            cf = benchmark.pedantic(pipe.compress, args=(smooth_field, 1e-5),
                                    rounds=1, iterations=1) \
                if radius == 64 else pipe.compress(smooth_field, 1e-5)
            counts[radius] = cf.stats.outlier_count
        lines = ["Ablation: quant-code radius vs outlier volume "
                 "(nyx, eb=1e-5)"] + [
            f"radius {r:>5}: outliers {c}" for r, c in counts.items()]
        emit("ablation_radius", "\n".join(lines))
        assert counts[64] >= counts[512] >= counts[4096]


class TestCalibrationSensitivity:
    def test_fig1_ordering_robustness(self, benchmark):
        """How far can every calibration constant move before a Figure-1
        ordering flips?  At ±20% nothing flips on the H100 — the modelled
        shapes come from pipeline structure, not parameter tuning."""
        from repro.perf import (H100, RunStats, ordering_robustness,
                                robustness_summary)
        stats = RunStats(input_bytes=1 << 29, cr=15.0)
        res = benchmark.pedantic(ordering_robustness, args=(stats, H100),
                                 kwargs={"spread": 0.2}, rounds=1,
                                 iterations=1)
        emit("ablation_calibration_sensitivity",
             "Ablation: cost-model calibration sensitivity "
             "(H100, +-20% on every constant)\n"
             + robustness_summary(res))
        for key, checks in res.items():
            assert all(checks.values()), key
