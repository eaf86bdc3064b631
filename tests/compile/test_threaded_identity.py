"""Byte-identity of slab-parallel execution at every thread width.

The slab-parallelism contract (see ``repro.runtime.threads`` and the
"Slab parallelism" section of ``repro/compile/fused.py``): for every
thread count the compiled plans must emit the *identical* container
bytes the ``threads=1`` run emits, and decode back the identical field
— across presets, dtypes, and the facade's engines (the process-pool
engines pick the width up from ``FZMOD_THREADS``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import get_preset
from repro.runtime.memory import set_sanitizing

PRESETS = ("fzmod-default", "fzmod-speed", "fzmod-quality")
WIDTHS = (2, 3, 8)


@pytest.fixture
def field(rng) -> np.ndarray:
    base = np.cumsum(rng.standard_normal((24, 32, 32)), axis=0)
    return (base * 3.0).astype(np.float32)


def _blob(data, preset, *, threads, **kw):
    return repro.compress(data, preset, 1e-3, threads=threads, **kw).blob


class TestSingleStreamMatrix:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_compress_bytes_identical(self, field, preset, width):
        ref = _blob(field, preset, threads=1)
        assert _blob(field, preset, threads=width) == ref

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtypes(self, field, dtype):
        data = field.astype(dtype)
        ref = _blob(data, "fzmod-default", threads=1)
        for width in WIDTHS:
            assert _blob(data, "fzmod-default", threads=width) == ref
        back1 = repro.decompress(ref, threads=1)
        for width in WIDTHS:
            back = repro.decompress(ref, threads=width)
            assert back.dtype == data.dtype
            assert back.tobytes() == back1.tobytes()

    @pytest.mark.parametrize("shape", [(4096,), (64, 48), (12, 16, 16)])
    def test_ndim_sweep(self, rng, shape):
        data = np.cumsum(rng.standard_normal(shape), axis=0) \
            .astype(np.float32)
        ref = _blob(data, "fzmod-default", threads=1)
        for width in WIDTHS:
            assert _blob(data, "fzmod-default", threads=width) == ref
            assert repro.decompress(ref, threads=width).tobytes() \
                == repro.decompress(ref, threads=1).tobytes()

    def test_more_threads_than_rows(self, rng):
        data = np.cumsum(rng.standard_normal((3, 64, 64)), axis=0) \
            .astype(np.float32)
        ref = _blob(data, "fzmod-default", threads=1)
        assert _blob(data, "fzmod-default", threads=16) == ref

    def test_interpreter_parity(self, field, module_call_twin):
        # the threaded fused container still matches the module-call steps
        # (LorenzoPredictor.encode and the histogram module, unthreaded)
        ref = module_call_twin(get_preset("fzmod-default")).compress(
            field, 1e-3).blob
        assert _blob(field, "fzmod-default", threads=4) == ref


class TestEngineMatrix:
    def test_sharded_engine_under_fzmod_threads(self, field, monkeypatch):
        ref = repro.compress(field, "fzmod-default", 1e-3, workers=2).blob
        monkeypatch.setenv("FZMOD_THREADS", "3")
        got = repro.compress(field, "fzmod-default", 1e-3, workers=2).blob
        assert got == ref

    def test_streaming_engine_under_fzmod_threads(self, field, tmp_path,
                                                  monkeypatch):
        out_a = tmp_path / "a.fzms"
        out_b = tmp_path / "b.fzms"
        repro.compress(field, "fzmod-default", 1e-3, stream=True,
                       out=out_a, workers=2)
        monkeypatch.setenv("FZMOD_THREADS", "3")
        repro.compress(field, "fzmod-default", 1e-3, stream=True,
                       out=out_b, workers=2)
        assert out_b.read_bytes() == out_a.read_bytes()

    def test_pipeline_entrypoint(self, field):
        pipe = get_preset("fzmod-default")
        ref = pipe.compress(field, 1e-3, threads=1)
        got = pipe.compress(field, 1e-3, threads=4)
        assert got.blob == ref.blob
        assert pipe.decompress(got.blob, threads=4).tobytes() \
            == pipe.decompress(ref.blob, threads=1).tobytes()


class TestSanitizedThreaded:
    def test_sanitizer_on_with_threads(self, field):
        # the sanitizer's poison/verify hooks must be thread-safe and
        # must not perturb the threaded container bytes
        ref = _blob(field, "fzmod-default", threads=1)
        prev = set_sanitizing(True)
        try:
            got = repro.compress(field, "fzmod-default", 1e-3, threads=4)
            back = repro.decompress(got.blob, threads=4)
        finally:
            set_sanitizing(prev if isinstance(prev, bool) else None)
        assert got.blob == ref
        bound = 1e-3 * float(field.max() - field.min())
        assert float(np.abs(field - back).max()) <= bound * 1.001

    def test_env_threads_apply_to_default_calls(self, field, monkeypatch):
        ref = _blob(field, "fzmod-default", threads=1)
        monkeypatch.setenv("FZMOD_THREADS", "4")
        assert repro.compress(field, "fzmod-default", 1e-3).blob == ref
