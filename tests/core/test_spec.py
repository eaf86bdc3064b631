"""PipelineSpec: the canonical pipeline description.

Covers the spec value object itself, the delegation of every construction
entry point (from_names, builder, presets) through ``Pipeline.from_spec``,
serialization through the container header, and the registry-isolation
regression for ``get_preset(registry=...)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (DEFAULT_REGISTRY, ModuleRegistry, Pipeline,
                        PipelineBuilder, PipelineSpec, PRESET_NAMES,
                        PRESET_SPECS, decompress, fzmod_default, get_preset,
                        get_preset_spec)
from repro.core.header import parse
from repro.core.modules_std import (HuffmanEncoder, LorenzoPredictor,
                                    RelEbPreprocess, StandardHistogram)
from repro.errors import (HeaderError, ModuleNotFoundInRegistry,
                          PipelineError)
from repro.types import Stage


class TestSpecValueObject:
    def test_defaults(self):
        spec = PipelineSpec()
        assert spec.predictor == "lorenzo"
        assert spec.statistics is None
        assert spec.radius == 512

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PipelineSpec().predictor = "interp"

    def test_replace_revalidates(self):
        spec = PipelineSpec()
        assert spec.replace(radius=16).radius == 16
        with pytest.raises(PipelineError):
            spec.replace(radius=0)

    @pytest.mark.parametrize("bad", [
        dict(predictor=""), dict(encoder=None), dict(preprocess=7),
        dict(statistics=""), dict(radius=0), dict(radius="512"),
    ])
    def test_validation(self, bad):
        with pytest.raises(PipelineError):
            PipelineSpec(**bad)

    def test_json_round_trip(self):
        spec = PipelineSpec(predictor="interp", statistics="histogram-topk",
                            secondary="deflate", radius=128, name="mine")
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(HeaderError):
            PipelineSpec.from_json({"predictor": "lorenzo"})
        with pytest.raises(HeaderError):
            PipelineSpec.from_json("not-a-dict")

    def test_stage_names_skips_absent_stages(self):
        names = PipelineSpec().stage_names()
        assert "statistics" not in names and "secondary" not in names
        assert names["predictor"] == "lorenzo"

    def test_describe_mentions_every_stage(self):
        text = PipelineSpec(statistics="histogram",
                            secondary="deflate").describe()
        for part in ("rel-eb", "lorenzo", "histogram", "huffman", "deflate"):
            assert part in text


class TestConstructionDelegation:
    def test_from_spec_equals_from_names(self):
        spec = PipelineSpec(predictor="interp", encoder="huffman",
                            statistics="histogram-topk", name="q")
        a = Pipeline.from_spec(spec)
        b = Pipeline.from_names(predictor="interp", encoder="huffman",
                                statistics="histogram-topk", name="q")
        assert a.spec == b.spec

    def test_effective_spec_resolves_statistics_default(self):
        # Huffman needs statistics; from_spec injects the histogram, and
        # the *effective* spec reports it explicitly
        pipe = Pipeline.from_spec(PipelineSpec(statistics=None))
        assert pipe.spec.statistics == "histogram"
        assert pipe.spec.secondary == "none"

    def test_spec_round_trips_through_from_spec(self):
        pipe = fzmod_default(secondary="deflate", radius=256)
        again = Pipeline.from_spec(pipe.spec)
        assert again.spec == pipe.spec
        assert again.module_names() == pipe.module_names()

    def test_builder_spec_and_build_delegate(self):
        b = (PipelineBuilder("mine").with_predictor("interp")
             .with_encoder("bitshuffle").with_radius(64))
        spec = b.spec()
        assert spec == PipelineSpec(predictor="interp", encoder="bitshuffle",
                                    radius=64, name="mine")
        assert b.build().spec == Pipeline.from_spec(spec).spec

    def test_builder_from_spec_round_trip(self):
        spec = PipelineSpec(predictor="interp", encoder="huffman",
                            secondary="deflate", radius=32, name="x")
        assert PipelineBuilder.from_spec(spec).spec() == spec

    def test_builder_still_validates(self):
        with pytest.raises(PipelineError):
            PipelineBuilder().spec()

    def test_presets_are_specs(self):
        for name in PRESET_NAMES:
            assert name in PRESET_SPECS
            pipe = get_preset(name)
            assert pipe.name == name
            assert pipe.spec.predictor == PRESET_SPECS[name].predictor

    def test_get_preset_spec_customises(self):
        spec = get_preset_spec("fzmod-speed", secondary="deflate",
                               radius=128)
        assert spec.secondary == "deflate" and spec.radius == 128
        # the stored preset table is untouched (specs are frozen values)
        assert PRESET_SPECS["fzmod-speed"].secondary is None

    def test_get_preset_unknown_name(self):
        with pytest.raises(KeyError):
            get_preset("fzmod-bogus")


class TestHeaderSerialization:
    def test_spec_round_trips_through_container(self, smooth_2d):
        pipe = fzmod_default(secondary="deflate")
        cf = pipe.compress(smooth_2d, 1e-3)
        header, _ = parse(cf.blob)
        assert header.pipeline_spec() == pipe.spec
        assert header.pipeline_spec().secondary == "deflate"

    def test_header_without_spec_reports_none(self, smooth_2d):
        cf = fzmod_default().compress(smooth_2d, 1e-3)
        header, _ = parse(cf.blob)
        header.pipeline = None
        assert header.pipeline_spec() is None

    def test_pre_spec_blob_still_decodes(self, smooth_2d):
        # simulate a blob written before the header's pipeline field
        # existed: strip it, re-serialize the header over the same body,
        # and check modules-table decoding still reconstructs the field
        import json
        import struct
        import zlib
        cf = fzmod_default().compress(smooth_2d, 1e-3)
        header, stored = parse(cf.blob)
        header.pipeline = None
        hjson = json.dumps(header.to_json(),
                           separators=(",", ":")).encode("utf-8")
        assert b'"pipeline"' not in hjson
        prefix = struct.pack("<4sHII", b"FZMD", 1, len(hjson),
                             zlib.crc32(hjson) & 0xFFFFFFFF)
        out = decompress(prefix + hjson + stored)
        assert np.array_equal(out, decompress(cf.blob))


class TestRegistryIsolation:
    def _custom_registry(self) -> ModuleRegistry:
        reg = ModuleRegistry()
        for mod in (RelEbPreprocess(), LorenzoPredictor(),
                    StandardHistogram(), HuffmanEncoder()):
            reg.register(mod)
        from repro.core.modules_std import NoSecondary
        reg.register(NoSecondary())
        return reg

    def test_get_preset_honours_registry(self, smooth_2d):
        """Regression: get_preset used to drop its registry entirely."""
        reg = self._custom_registry()
        pipe = get_preset("fzmod-default", registry=reg)
        assert pipe.predictor is reg.get(Stage.PREDICTOR, "lorenzo")
        assert pipe.predictor is not DEFAULT_REGISTRY.get(Stage.PREDICTOR,
                                                          "lorenzo")
        cf = pipe.compress(smooth_2d, 1e-3)
        assert cf.stats.cr > 1

    def test_get_preset_missing_module_fails_loudly(self):
        reg = self._custom_registry()
        # fzmod-quality needs interp + histogram-topk, absent here
        with pytest.raises(ModuleNotFoundInRegistry):
            get_preset("fzmod-quality", registry=reg)

    def test_unregister_returns_and_removes(self):
        reg = self._custom_registry()
        mod = reg.unregister(Stage.ENCODER, "huffman")
        assert mod.name == "huffman"
        with pytest.raises(ModuleNotFoundInRegistry):
            reg.get(Stage.ENCODER, "huffman")
        with pytest.raises(ModuleNotFoundInRegistry):
            reg.unregister(Stage.ENCODER, "huffman")

    def test_module_decorator_registers_instance(self):
        reg = ModuleRegistry()

        @reg.module
        class Woven(HuffmanEncoder):
            """Test-only encoder."""
            name = "woven"

        assert reg.get(Stage.ENCODER, "woven").name == "woven"
        assert Woven.name == "woven"  # class returned undecorated

    def test_module_decorator_replace(self):
        reg = ModuleRegistry()
        reg.register(HuffmanEncoder())
        with pytest.raises(PipelineError):
            @reg.module
            class Clash(HuffmanEncoder):
                """Duplicate name."""

        @reg.module(replace=True)
        class Override(HuffmanEncoder):
            """Replacement module."""

        assert isinstance(reg.get(Stage.ENCODER, "huffman"), Override)
