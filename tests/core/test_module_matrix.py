"""Composability matrix: every predictor x encoder x secondary combination
must form a working, bound-honouring pipeline.

This is the framework's core promise (§3.3: "it is quite simple to
construct pipelines with vastly different compression characteristics") —
any registered module combination composes without special-casing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PipelineBuilder, decompress
from repro.metrics import verify_error_bound
from tests.conftest import eb_abs_for

PREDICTORS = ("lorenzo", "interp", "regression")
ENCODERS = ("huffman", "bitshuffle", "fixedlen")
SECONDARIES = (None, "deflate")


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(99)
    z, y, x = np.mgrid[0:10, 0:18, 0:22]
    base = np.sin(x / 4.0) * np.cos(y / 5.0) + 0.05 * z
    return (base * 40 + rng.standard_normal(base.shape) * 0.01
            ).astype(np.float32)


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("encoder", ENCODERS)
class TestPredictorEncoderMatrix:
    def test_composes_and_honours_bound(self, field, predictor, encoder):
        pipe = (PipelineBuilder(f"{predictor}+{encoder}")
                .with_predictor(predictor).with_encoder(encoder).build())
        cf = pipe.compress(field, 1e-3)
        recon = decompress(cf.blob)
        assert verify_error_bound(field, recon, eb_abs_for(field, 1e-3)), \
            (predictor, encoder)
        assert cf.stats.cr > 1.0

    def test_deflate_secondary_honours_bound(self, field, predictor, encoder):
        pipe = (PipelineBuilder(f"{predictor}+{encoder}+deflate")
                .with_predictor(predictor).with_encoder(encoder)
                .with_secondary("deflate").build())
        recon = decompress(pipe.compress(field, 1e-3).blob)
        assert verify_error_bound(field, recon, eb_abs_for(field, 1e-3)), \
            (predictor, encoder)

    def test_header_names_both_modules(self, field, predictor, encoder):
        pipe = (PipelineBuilder("m").with_predictor(predictor)
                .with_encoder(encoder).build())
        cf = pipe.compress(field, 1e-2)
        assert cf.header.modules["predictor"] == predictor
        assert cf.header.modules["encoder"] == encoder


@pytest.mark.parametrize("secondary", SECONDARIES,
                         ids=[s or "none" for s in SECONDARIES])
class TestSecondaryMatrix:
    def test_every_secondary_composes(self, field, secondary):
        pipe = (PipelineBuilder("s").with_predictor("lorenzo")
                .with_encoder("huffman").with_secondary(secondary).build())
        cf = pipe.compress(field, 1e-3)
        recon = decompress(cf.blob)
        assert verify_error_bound(field, recon, eb_abs_for(field, 1e-3))


class TestPreprocessMatrix:
    @pytest.mark.parametrize("preprocess", ["abs-eb", "rel-eb",
                                            "abs-and-rel"])
    def test_bound_modes_compose(self, field, preprocess):
        from repro.types import EbMode, ErrorBound
        pipe = (PipelineBuilder("p").with_preprocess(preprocess)
                .with_predictor("lorenzo").with_encoder("huffman").build())
        mode = EbMode.ABS if preprocess == "abs-eb" else EbMode.REL
        value = 0.05 if preprocess == "abs-eb" else 1e-3
        cf = pipe.compress(field, ErrorBound(value, mode))
        recon = decompress(cf.blob)
        eb_abs = value if preprocess == "abs-eb" else eb_abs_for(field, value)
        assert verify_error_bound(field, recon, eb_abs)

    def test_pwr_composes_on_positive_data(self):
        from repro.types import EbMode, ErrorBound
        rng = np.random.default_rng(3)
        data = np.exp(rng.standard_normal((20, 20))).astype(np.float32)
        pipe = (PipelineBuilder("p").with_preprocess("pwr-eb")
                .with_predictor("interp").with_encoder("huffman").build())
        cf = pipe.compress(data, ErrorBound(1e-2, EbMode.ABS))
        recon = decompress(cf.blob)
        rel = np.abs(recon.astype(np.float64) / data.astype(np.float64) - 1)
        assert rel.max() <= 1e-2 * 1.01


class TestCharacterSpread:
    def test_matrix_spans_the_tradeoff_space(self, field):
        """The point of composability: different corners of the matrix land
        in genuinely different CR regimes."""
        crs = {}
        for pred in PREDICTORS:
            for enc in ENCODERS:
                pipe = (PipelineBuilder("x").with_predictor(pred)
                        .with_encoder(enc).build())
                crs[(pred, enc)] = pipe.compress(field, 1e-3).stats.cr
        assert max(crs.values()) > 1.5 * min(crs.values())
