"""Tests for the hierarchical zero-word elimination coder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import dictionary as d


class TestEliminateRestore:
    def test_all_zero_stream(self):
        stream = b"\x00" * 10_000
        z = d.eliminate(stream)
        assert d.restore(z) == stream
        assert z.nbytes() < 100  # two-level bitmap collapses

    def test_no_zero_stream(self, rng):
        stream = bytes(rng.integers(1, 256, 2048).tolist())
        z = d.eliminate(stream)
        assert d.restore(z) == stream

    def test_mixed(self, rng):
        stream = (b"\x00" * 997 + bytes(rng.integers(0, 256, 313).tolist())) * 5
        z = d.eliminate(stream)
        assert d.restore(z) == stream

    def test_unaligned_length(self, rng):
        stream = bytes(rng.integers(0, 256, 1001).tolist())
        z = d.eliminate(stream, word_bytes=32)
        assert d.restore(z) == stream

    def test_empty(self):
        z = d.eliminate(b"")
        assert d.restore(z) == b""

    @pytest.mark.parametrize("word", [1, 4, 8, 32, 64])
    def test_word_sizes(self, rng, word):
        stream = bytes((rng.integers(0, 256, 4096)
                        * (rng.random(4096) < 0.1)).astype(np.uint8).tolist())
        z = d.eliminate(stream, word_bytes=word)
        assert d.restore(z) == stream

    def test_single_level_round_trip(self, rng):
        stream = b"\x00" * 5000 + bytes(rng.integers(0, 256, 100).tolist())
        z = d.eliminate(stream, two_level=False)
        assert z.bitmap2 == b""
        assert d.restore(z) == stream

    def test_two_level_beats_single_level_on_sparse(self):
        stream = b"\x00" * 100_000 + b"\x01"
        z1 = d.eliminate(stream, two_level=False)
        z2 = d.eliminate(stream, two_level=True)
        assert z2.nbytes() < z1.nbytes()

    def test_bad_word_bytes(self):
        with pytest.raises(CodecError):
            d.eliminate(b"abc", word_bytes=0)

    def test_corrupt_payload_detected(self):
        z = d.eliminate(b"\x00" * 64 + b"\x01" * 64)
        bad = d.ZeroEliminated(bitmap2=z.bitmap2, bitmap1=z.bitmap1,
                               words=z.words[:-1], orig_len=z.orig_len,
                               word_bytes=z.word_bytes)
        with pytest.raises(CodecError):
            d.restore(bad)

    @pytest.mark.parametrize("word_bytes", [9, 1 << 30, 1 << 40])
    def test_a_word_wider_than_the_stream_sizes_nothing(self, word_bytes):
        """Eight bytes in one zero word: ``word_bytes`` comes from a
        container (the ``fzgpu``/``pfpl`` metadata), and the word past the
        stream is only its padding, so it sizes no allocation."""
        import tracemalloc
        z = d.ZeroEliminated(bitmap2=b"", bitmap1=b"\x00", words=b"",
                             orig_len=8, word_bytes=word_bytes)
        tracemalloc.start()
        try:
            assert d.restore(z) == bytes(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @given(st.binary(min_size=0, max_size=5000), st.sampled_from([1, 4, 32]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, stream, word, two_level):
        z = d.eliminate(stream, word_bytes=word, two_level=two_level)
        assert d.restore(z) == stream


class TestCompressionBehaviour:
    def test_ratio_scales_with_sparsity(self, rng):
        dense = bytes(rng.integers(1, 256, 32768).tolist())
        sparse = bytes((rng.integers(0, 256, 32768)
                        * (rng.random(32768) < 0.01)).astype(np.uint8).tolist())
        rd = len(dense) / d.eliminate(dense).nbytes()
        rs = len(sparse) / d.eliminate(sparse).nbytes()
        assert rs > 3 * rd
