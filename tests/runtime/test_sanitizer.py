"""Runtime contract sanitizer (``FZMOD_SANITIZE=1``).

The runtime half of fzlint's ``out=`` aliasing contract (FZL016):
aliasing raised at the call site, the violation counter in the global
metrics registry, and byte-identical output with the checks on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import SanitizerError
from repro.kernels.delta import delta_forward
from repro.kernels.lorenzo import lorenzo_forward, lorenzo_inverse
from repro.kernels.quantize import dequantize
from repro.obs.metrics import GLOBAL_METRICS
from repro.runtime.memory import (SANITIZER, sanitizing_enabled,
                                  set_sanitizing)


@pytest.fixture
def sanitize():
    """Enable the sanitizer for one test, restoring env control after."""
    set_sanitizing(True)
    yield SANITIZER
    set_sanitizing(None)


def counter(name: str) -> int:
    return GLOBAL_METRICS.counter(name).value


class TestOutAliasing:
    def test_hidden_view_alias_raises_and_counts(self, sanitize):
        deltas = np.arange(32, dtype=np.int64)
        before = counter("sanitizer.aliasing")
        with pytest.raises(SanitizerError, match="aliases input"):
            lorenzo_inverse(deltas, out=deltas.reshape(-1))
        assert counter("sanitizer.aliasing") == before + 1

    def test_documented_inplace_is_exempt(self, sanitize):
        grid = np.arange(32, dtype=np.int64)
        expected = np.cumsum(np.arange(32))
        result = lorenzo_inverse(grid, out=grid)
        assert result is grid
        np.testing.assert_array_equal(result, expected)
        lorenzo_forward(grid, out=grid)          # also documented

    def test_distinct_out_is_fine(self, sanitize):
        codes = np.arange(16, dtype=np.int64)
        out = np.empty(16, dtype=np.float32)
        dequantize(codes, 0.5, np.float32, out=out)

    def test_strict_kernels_reject_even_identical(self, sanitize):
        values = np.arange(16, dtype=np.int64)
        with pytest.raises(SanitizerError):
            delta_forward(values, out=values)


class TestSeededBugsMatchStaticFindings:
    """The same seeded bug is caught by both halves of the contract:
    fzlint's dataflow pass flags it statically, and executing it under
    ``FZMOD_SANITIZE=1`` raises at the same operation."""

    BUGGY = """\
import numpy as np

def hidden_alias(kernel, deltas):
    flat = deltas.reshape(-1)
    return kernel(deltas, out=flat)
"""

    def test_static_pass_flags_the_alias(self, tmp_path):
        from repro.analysis import LintEngine
        path = tmp_path / "kernels" / "seeded.py"
        path.parent.mkdir()
        path.write_text(self.BUGGY, encoding="utf-8")
        res = LintEngine(select=["FZL016"]).run([path.parent], cwd=tmp_path)
        assert {f.rule for f in res.findings} == {"FZL016"}

    def test_runtime_sanitizer_catches_the_alias(self, sanitize, tmp_path):
        namespace: dict = {}
        exec(compile(self.BUGGY, "seeded.py", "exec"), namespace)
        with pytest.raises(SanitizerError):
            namespace["hidden_alias"](lorenzo_inverse,
                                      np.arange(32, dtype=np.int64))


class TestByteIdentity:
    def test_blob_identical_with_sanitizer_on(self):
        rng = np.random.default_rng(7)
        field = rng.standard_normal((64, 64)).astype(np.float32)
        set_sanitizing(False)
        try:
            plain = repro.compress(field, "fzmod-default", 1e-3).blob
        finally:
            set_sanitizing(None)
        set_sanitizing(True)
        try:
            sanitized = repro.compress(field, "fzmod-default", 1e-3)
            assert sanitized.blob == plain
            recon = repro.decompress(sanitized.blob)
        finally:
            set_sanitizing(None)
        assert np.abs(recon - field).max() <= 1e-3 * np.ptp(field) + 1e-7

    def test_sharded_blob_identical_with_sanitizer_on(self):
        rng = np.random.default_rng(11)
        field = rng.standard_normal((128, 128)).astype(np.float32)
        set_sanitizing(False)
        try:
            plain = repro.compress(field, "fzmod-default", 1e-3,
                                   workers=2, shard_mb=0.05).blob
        finally:
            set_sanitizing(None)
        set_sanitizing(True)
        try:
            sanitized = repro.compress(field, "fzmod-default", 1e-3,
                                       workers=2, shard_mb=0.05).blob
        finally:
            set_sanitizing(None)
        assert sanitized == plain


class TestSwitches:
    def test_env_override_round_trip(self, monkeypatch):
        monkeypatch.setenv("FZMOD_SANITIZE", "1")
        assert sanitizing_enabled()
        monkeypatch.setenv("FZMOD_SANITIZE", "0")
        assert not sanitizing_enabled()
        set_sanitizing(True)
        try:
            assert sanitizing_enabled()          # override beats env
        finally:
            set_sanitizing(None)
        assert not sanitizing_enabled()
