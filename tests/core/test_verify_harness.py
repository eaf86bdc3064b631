"""Tests for the pipeline verification harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (PipelineBuilder, fzmod_default, fzmod_quality,
                        fzmod_speed, register, verify_pipeline)
from repro.core.modules_std import NoSecondary
from repro.types import Stage


class TestShippedPipelinesPass:
    @pytest.mark.parametrize("preset", [fzmod_default, fzmod_speed,
                                        fzmod_quality],
                             ids=["default", "speed", "quality"])
    def test_presets_pass_all_checks(self, preset):
        report = verify_pipeline(preset())
        assert report.passed, report.table()

    def test_extended_modules_pass(self):
        pipe = (PipelineBuilder("ext").with_predictor("regression")
                .with_encoder("fixedlen").with_secondary("deflate")
                .build())
        report = verify_pipeline(pipe)
        assert report.passed, report.table()

    def test_report_structure(self):
        report = verify_pipeline(fzmod_speed())
        names = {c.name for c in report.checks}
        assert names == {"bound", "container", "no_expansion",
                         "determinism", "corruption", "monotonicity"}
        assert report.failures() == []
        assert "PASS" in report.table()


class TestHarnessCatchesBrokenModules:
    def test_lossy_secondary_is_caught(self):
        """A 'secondary' that corrupts one byte must fail verification."""
        from repro.core.registry import DEFAULT_REGISTRY

        class EvilSecondary(NoSecondary):
            name = "evil-test-secondary"

            def encode(self, body: bytes) -> bytes:
                return body

            def decode(self, body: bytes) -> bytes:
                if len(body) > 100:
                    out = bytearray(body)
                    out[50] ^= 0x01  # silent corruption
                    return bytes(out)
                return body

        register(EvilSecondary())
        try:
            pipe = (PipelineBuilder("evil").with_predictor("lorenzo")
                    .with_encoder("huffman")
                    .with_secondary("evil-test-secondary").build())
            report = verify_pipeline(pipe)
            assert not report.passed
            failed = {c.name for c in report.failures()}
            assert "bound" in failed or "container" in failed
        finally:
            DEFAULT_REGISTRY._modules[Stage.SECONDARY].pop(
                "evil-test-secondary")

    def test_bound_violating_predictor_is_caught(self):
        """A predictor that quietly doubles the bound must fail."""
        from repro.core.modules_std import LorenzoPredictor
        from repro.core.registry import DEFAULT_REGISTRY

        class SloppyPredictor(LorenzoPredictor):
            name = "sloppy-test-predictor"

            def encode(self, data, eb_abs, radius):
                return super().encode(data, eb_abs * 4.0, radius)

        register(SloppyPredictor())
        try:
            pipe = (PipelineBuilder("sloppy")
                    .with_predictor("sloppy-test-predictor")
                    .with_encoder("huffman").build())
            report = verify_pipeline(pipe)
            assert not report.passed
            assert any(c.name == "bound" for c in report.failures())
        finally:
            DEFAULT_REGISTRY._modules[Stage.PREDICTOR].pop(
                "sloppy-test-predictor")


class TestCliVerify:
    def test_cli_verify_preset(self, capsys):
        from repro.cli import main
        assert main(["verify", "--pipeline", "fzmod-speed"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_verify_custom(self, capsys):
        from repro.cli import main
        rc = main(["verify", "--predictor", "interp",
                   "--encoder", "bitshuffle"])
        assert rc == 0

    def test_cli_verify_needs_both_parts(self, capsys):
        from repro.cli import main
        assert main(["verify", "--predictor", "interp"]) == 1
