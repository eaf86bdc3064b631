"""Tests for modules, registry, builder, presets and the container format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (DEFAULT_REGISTRY, Pipeline, PipelineBuilder,
                        decompress, fzmod_default, fzmod_quality, fzmod_speed,
                        get_preset, register)
from repro.core.header import ContainerHeader, assemble, parse, split_sections
from repro.core.module import EncodedStream
from repro.core.modules_std import (BitshuffleEncoder, DeflateSecondary,
                                    HuffmanEncoder, NoSecondary,
                                    RelEbPreprocess)
from repro.core.registry import ModuleRegistry
from repro.errors import (CodecError, HeaderError, ModuleNotFoundInRegistry,
                          PipelineError)
from repro.types import EbMode, ErrorBound, Stage
from tests.conftest import eb_abs_for


class TestRegistry:
    def test_default_catalog_complete(self):
        cat = DEFAULT_REGISTRY.catalog()
        assert {n for n, _ in cat["preprocess"]} == {"abs-eb", "rel-eb",
                                                     "pwr-eb", "abs-and-rel",
                                                     "auto-transpose"}
        assert {n for n, _ in cat["predictor"]} == {"lorenzo", "interp",
                                                    "regression"}
        assert {n for n, _ in cat["statistics"]} == {"histogram",
                                                     "histogram-topk"}
        assert {n for n, _ in cat["encoder"]} == {"huffman", "bitshuffle",
                                                  "fixedlen"}
        assert {n for n, _ in cat["secondary"]} == {"deflate", "none"}

    def test_unknown_module(self):
        with pytest.raises(ModuleNotFoundInRegistry):
            DEFAULT_REGISTRY.get(Stage.PREDICTOR, "oracle")

    def test_duplicate_registration_rejected(self):
        reg = ModuleRegistry()
        reg.register(NoSecondary())
        with pytest.raises(PipelineError):
            reg.register(NoSecondary())
        reg.register(NoSecondary(), replace=True)  # explicit override OK

    def test_custom_module_registration(self):
        class UpperSecondary(NoSecondary):
            name = "test-upper"

        mod = register(UpperSecondary())
        try:
            assert DEFAULT_REGISTRY.get(Stage.SECONDARY, "test-upper") is mod
        finally:
            DEFAULT_REGISTRY._modules[Stage.SECONDARY].pop("test-upper")


class TestPreprocess:
    def test_rel_eb_scales_by_range(self):
        data = np.array([0.0, 10.0], dtype=np.float32)
        res = RelEbPreprocess().forward(data, ErrorBound(1e-2, EbMode.REL))
        assert res.eb_abs == pytest.approx(0.1)

    def test_abs_mode_passes_through(self):
        from repro.core.modules_std import AbsEbPreprocess
        data = np.array([0.0, 10.0], dtype=np.float32)
        res = AbsEbPreprocess().forward(data, ErrorBound(0.5, EbMode.ABS))
        assert res.eb_abs == 0.5

    def test_constant_field_degenerates_to_value(self):
        data = np.full(10, 3.0, dtype=np.float32)
        res = RelEbPreprocess().forward(data, ErrorBound(1e-3, EbMode.REL))
        assert res.eb_abs == pytest.approx(1e-3)


class TestEncoders:
    def test_huffman_requires_statistics(self):
        enc = HuffmanEncoder()
        with pytest.raises(CodecError):
            enc.encode(np.array([1, 2], dtype=np.uint16), 1024, None)

    def test_huffman_roundtrip_via_stream(self, rng):
        from repro.kernels.histogram import histogram
        codes = rng.integers(0, 1024, 5000).astype(np.uint16)
        enc = HuffmanEncoder()
        stream = enc.encode(codes, 1024, histogram(codes, 1024))
        out = enc.decode(stream, codes.size, 1024)
        np.testing.assert_array_equal(out, codes)

    def test_bitshuffle_roundtrip_via_stream(self, rng):
        codes = rng.integers(0, 1024, 5000).astype(np.uint16)
        enc = BitshuffleEncoder()
        stream = enc.encode(codes, 1024, None)
        out = enc.decode(stream, codes.size, 1024)
        np.testing.assert_array_equal(out, codes)

    @pytest.mark.parametrize("codes,num_bins", [
        (np.zeros(0, np.uint16), 1024),
        (np.array([0, 1023, 512], np.uint16), 1024),
        (np.array([65535, 0, 32768], np.uint16), 65536),
        (np.array([2**32 - 1, 0, 2**31], np.uint32), 2**32)])
    def test_bitshuffle_roundtrip_at_the_alphabet_edges(self, codes,
                                                        num_bins):
        enc = BitshuffleEncoder()
        out = enc.decode(enc.encode(codes, num_bins, None), codes.size,
                         num_bins)
        assert out.dtype == codes.dtype
        np.testing.assert_array_equal(out, codes)

    def test_bitshuffle_codes_of_any_integer_dtype_give_the_same_stream(
            self, rng):
        codes = rng.integers(0, 1024, 5000)
        enc = BitshuffleEncoder()
        narrow = enc.encode(codes.astype(np.uint16), 1024, None)
        for dtype in (np.int64, np.int32, np.uint32, np.int16):
            wide = enc.encode(codes.astype(dtype), 1024, None)
            assert wide.meta == narrow.meta
            assert wide.sections == narrow.sections

    @pytest.mark.parametrize("codes,num_bins", [
        (np.array([33280], np.uint16), 1024),     # 512 + 2**15
        (np.array([-32257]), 1024),               # 512 - 2**15 - 1
        (np.array([70000], np.uint32), 65536),
        (np.array([5], np.uint16), 0),
        (np.array([5], np.uint32), 2**32 + 2)])
    def test_bitshuffle_rejects_codes_wider_than_the_shuffle(self, codes,
                                                             num_bins):
        with pytest.raises(CodecError):
            BitshuffleEncoder().encode(codes, num_bins, None)

    def test_bitshuffle_decode_rejects_out_of_range_codes(self):
        """In range for the 16-bit shuffle, outside ``[0, num_bins)``."""
        enc = BitshuffleEncoder()
        for code in (1024, 33279, -1, -32256):
            stream = enc.encode(np.array([0, code]), 1024, None)
            with pytest.raises(CodecError):
                enc.decode(stream, 2, 1024)

    def test_secondary_roundtrips(self, rng):
        body = bytes(rng.integers(0, 256, 5000).tolist()) + b"\x00" * 3000
        for sec in (DeflateSecondary(), NoSecondary()):
            assert sec.decode(sec.encode(body)) == body


class TestHeader:
    def _header(self) -> ContainerHeader:
        return ContainerHeader(shape=(4, 5), dtype="<f4", eb_value=1e-3,
                               eb_mode="rel", eb_abs=0.01, radius=512,
                               modules={"predictor": "lorenzo"},
                               stage_meta={"encoder": {"count": 20}})

    def test_roundtrip(self):
        h = self._header()
        sections = {"a": b"12345", "b": b"xyz"}
        hb, body = assemble(h, sections)
        h2, body2 = parse(hb + body)
        assert h2.shape == (4, 5)
        assert h2.np_dtype == np.dtype("<f4")
        assert split_sections(h2, body2) == sections

    def test_bad_magic(self):
        with pytest.raises(HeaderError):
            parse(b"XXXX" + b"\x00" * 40)

    def test_truncated(self):
        h = self._header()
        hb, body = assemble(h, {"a": b"1234"})
        with pytest.raises(HeaderError):
            parse(hb[:6])

    def test_section_overflow_detected(self):
        h = self._header()
        hb, body = assemble(h, {"a": b"1234"})
        h2, _ = parse(hb + body)
        with pytest.raises(HeaderError):
            split_sections(h2, body[:2])

    def test_unsupported_version(self):
        import struct
        h = self._header()
        hb, body = assemble(h, {})
        bad = b"FZMD" + struct.pack("<H", 99) + hb[6:]
        with pytest.raises(HeaderError):
            parse(bad + body)


class TestBuilder:
    def test_full_build(self):
        pipe = (PipelineBuilder("mine")
                .with_preprocess("rel-eb").with_predictor("interp")
                .with_statistics("histogram-topk").with_encoder("huffman")
                .with_secondary("deflate").with_radius(256).build())
        assert pipe.name == "mine"
        assert pipe.radius == 256
        assert pipe.predictor.name == "interp"
        assert pipe.secondary.name == "deflate"

    def test_missing_predictor_rejected(self):
        with pytest.raises(PipelineError):
            PipelineBuilder().with_encoder("huffman").build()

    def test_missing_encoder_rejected(self):
        with pytest.raises(PipelineError):
            PipelineBuilder().with_predictor("lorenzo").build()

    def test_bad_radius_rejected(self):
        with pytest.raises(PipelineError):
            PipelineBuilder().with_radius(0)

    def test_huffman_gets_default_histogram(self):
        pipe = (PipelineBuilder().with_predictor("lorenzo")
                .with_encoder("huffman").build())
        assert pipe.statistics is not None

    def test_built_pipeline_works(self, smooth_2d):
        pipe = (PipelineBuilder("t").with_predictor("interp")
                .with_encoder("bitshuffle").build())
        cf = pipe.compress(smooth_2d, 1e-3)
        recon = decompress(cf.blob)
        eb = eb_abs_for(smooth_2d, 1e-3)
        assert np.abs(smooth_2d - recon).max() <= eb * (1 + 1e-4)


class TestPresets:
    def test_preset_module_wiring(self):
        d = fzmod_default()
        assert (d.predictor.name, d.encoder.name) == ("lorenzo", "huffman")
        s = fzmod_speed()
        assert (s.predictor.name, s.encoder.name) == ("lorenzo", "bitshuffle")
        assert s.statistics is None
        q = fzmod_quality()
        assert (q.predictor.name, q.encoder.name) == ("interp", "huffman")
        assert q.statistics.name == "histogram-topk"

    def test_get_preset(self):
        assert get_preset("fzmod-speed").name == "fzmod-speed"
        with pytest.raises(KeyError):
            get_preset("fzmod-turbo")

    def test_preset_with_secondary(self, smooth_2d):
        pipe = get_preset("fzmod-default", secondary="deflate")
        cf = pipe.compress(smooth_2d, 1e-3)
        recon = decompress(cf.blob)
        eb = eb_abs_for(smooth_2d, 1e-3)
        assert np.abs(smooth_2d - recon).max() <= eb * (1 + 1e-4)
