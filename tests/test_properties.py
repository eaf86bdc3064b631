"""Cross-cutting property tests (hypothesis) over the whole stack.

Module-level properties live next to their modules; these are the
invariants that only exist at the *system* level:

* determinism — same input, same pipeline, same bytes;
* decode idempotence — decompressing twice gives identical arrays;
* size accounting — reported stats equal physical reality;
* bound composition — REL bounds resolved through any preprocessor still
  hold end-to-end;
* monotonicity — bounds tighten ⇒ reconstructions improve, sizes grow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ALL_COMPRESSOR_NAMES, get_compressor
from repro.core import decompress, fzmod_default, fzmod_quality
from repro.kernels import interp
from repro.metrics import psnr, verify_error_bound


def _field(seed: int, ndim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(6, 24, ndim))
    return np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)


class TestDeterminism:
    @given(st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_compression_is_deterministic(self, seed, ndim):
        data = _field(seed, ndim)
        a = fzmod_default().compress(data, 1e-3).blob
        b = fzmod_default().compress(data, 1e-3).blob
        assert a == b

    @pytest.mark.parametrize("name", ALL_COMPRESSOR_NAMES)
    def test_all_compressors_deterministic(self, name):
        data = _field(7, 2)
        comp = get_compressor(name)
        assert comp.compress(data, 1e-3).blob == comp.compress(data, 1e-3).blob

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_decode_idempotent(self, seed):
        data = _field(seed, 2)
        blob = fzmod_default().compress(data, 1e-3).blob
        np.testing.assert_array_equal(decompress(blob), decompress(blob))


class TestAccounting:
    @given(st.integers(0, 30), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_stats_match_reality(self, seed, ndim):
        data = _field(seed, ndim)
        cf = fzmod_default().compress(data, 1e-3)
        assert cf.stats.output_bytes == len(cf.blob)
        assert cf.stats.input_bytes == data.nbytes
        assert cf.stats.element_count == data.size
        assert sum(cf.stats.section_sizes.values()) <= len(cf.blob) + 4096

    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_header_geometry_round_trips(self, seed):
        data = _field(seed, 3)
        cf = fzmod_default().compress(data, 1e-3)
        assert cf.header.shape == data.shape
        assert cf.header.np_dtype == data.dtype


class TestMonotonicity:
    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_tighter_bounds_improve_quality_and_grow_size(self, seed):
        data = _field(seed, 2)
        pipe = fzmod_default()
        prev_q = -np.inf
        prev_size = 0
        for eb in (1e-1, 1e-3, 1e-5):
            cf = pipe.compress(data, eb)
            recon = decompress(cf.blob)
            q = psnr(data, recon)
            assert q >= prev_q - 1e-9
            assert cf.stats.output_bytes >= prev_size * 0.8
            prev_q, prev_size = q, cf.stats.output_bytes


class TestBoundComposition:
    @given(st.integers(0, 40), st.sampled_from([1e-2, 1e-4]),
           st.sampled_from(ALL_COMPRESSOR_NAMES))
    @settings(max_examples=30, deadline=None)
    def test_end_to_end_bound_every_compressor(self, seed, eb, name):
        data = _field(seed, 2)
        comp = get_compressor(name)
        cf = comp.compress(data, eb)
        recon = comp.decompress(cf)
        rng_v = float(data.max() - data.min())
        assert verify_error_bound(data, recon, eb * rng_v)

    @given(st.integers(0, 2**16), st.integers(1, 3),
           st.sampled_from([np.float32, np.float64]), st.booleans(),
           st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]),
           st.sampled_from([1e-3, 1.0, 1e5]))
    @settings(max_examples=80, deadline=None)
    def test_quality_bound_is_exact(self, seed, ndim, dtype, dynamic, rel,
                                    scale):
        """``max|x - x̂| <= eb`` with no tolerance: ``fzmod-quality``
        (static G-Interp) through its container, and the dynamic mode the
        ``sz3`` baseline runs, through the kernel."""
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(2, 24, ndim))
        data = (np.cumsum(rng.standard_normal(shape), axis=0)
                * scale + scale).astype(dtype)
        if dynamic:
            eb = rel * float(np.ptp(data))
            recon = interp.decompress(interp.compress(data, eb, dynamic=True))
        else:
            cf = fzmod_quality().compress(data, rel)
            eb = cf.header.eb_abs
            recon = decompress(cf.blob)
        assert recon.dtype == dtype
        assert np.abs(data.astype(np.float64) - recon).max() <= eb

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_blob_is_self_contained(self, seed):
        """Round-tripping through bytes-on-disk changes nothing."""
        data = _field(seed, 2)
        blob = fzmod_default().compress(data, 1e-3).blob
        copied = bytes(bytearray(blob))  # fresh buffer
        np.testing.assert_array_equal(decompress(blob), decompress(copied))


class TestThreadSafety:
    def test_concurrent_compression_is_safe_and_deterministic(self):
        """Module instances are shared; pipelines must be usable from
        several threads at once (shard and slab threads rely on this)."""
        from concurrent.futures import ThreadPoolExecutor
        data = _field(11, 2)
        pipe = fzmod_default()

        def job(_):
            return pipe.compress(data, 1e-3).blob

        with ThreadPoolExecutor(max_workers=8) as pool:
            blobs = list(pool.map(job, range(16)))
        assert all(b == blobs[0] for b in blobs)
        np.testing.assert_array_equal(decompress(blobs[0]),
                                      decompress(blobs[-1]))
