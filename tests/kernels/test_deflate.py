"""Tests for the stdlib-DEFLATE lossless backend."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import deflate


class TestRoundTrip:
    @given(st.binary(min_size=0, max_size=4000))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, data):
        assert deflate.decompress(deflate.compress(data)) == data

    def test_empty(self):
        blob = deflate.compress(b"")
        assert blob[:8] == bytes(8)
        assert deflate.decompress(blob) == b""

    def test_layout_is_length_then_one_zlib_stream(self):
        data = b"ABCDEFGH" * 1000
        blob = deflate.compress(data)
        assert struct.unpack_from("<Q", blob) == (len(data),)
        assert zlib.decompress(blob[8:]) == data
        assert len(blob) < len(data) // 50

    def test_random_data_expands_by_the_framing_only(self, rng):
        data = rng.integers(0, 256, 1 << 16, dtype="u1").tobytes()
        # zlib's stored-block bound: 5 B per 16 KiB block, 6 B of zlib
        # header and trailer; plus the 8 B length prefix
        bound = len(data) + 5 * (len(data) // (1 << 14) + 1) + 6 + 8
        assert len(deflate.compress(data)) <= bound


class TestPrefixChecks:
    @pytest.fixture(scope="class")
    def blob(self):
        return deflate.compress(b"the quick brown fox " * 50)

    @pytest.mark.parametrize("keep", [0, 1, 7, 8, 9, 17, -1])
    def test_truncated(self, blob, keep):
        with pytest.raises(CodecError):
            deflate.decompress(blob[:keep])

    @pytest.mark.parametrize("delta", [-1, 1, -1000, 1 << 40])
    def test_declared_length_that_lies(self, blob, delta):
        (n,) = struct.unpack_from("<Q", blob)
        with pytest.raises(CodecError):
            deflate.decompress(struct.pack("<Q", n + delta) + blob[8:])

    @pytest.mark.parametrize("n", [(1 << 63) - 1, (1 << 64) - 1])
    def test_declared_length_beyond_addressable(self, blob, n):
        with pytest.raises(CodecError):
            deflate.decompress(struct.pack("<Q", n) + blob[8:])

    def test_trailing_bytes(self, blob):
        with pytest.raises(CodecError):
            deflate.decompress(blob + b"\x00")

    def test_second_stream_appended(self, blob):
        with pytest.raises(CodecError):
            deflate.decompress(blob + blob[8:])

    def test_not_zlib(self):
        with pytest.raises(CodecError):
            deflate.decompress(struct.pack("<Q", 5) + b"hello")

    def test_flipped_checksum(self, blob):
        bad = bytearray(blob)
        bad[-1] ^= 0xFF
        with pytest.raises(CodecError):
            deflate.decompress(bytes(bad))

    def test_bomb_is_refused_before_it_inflates(self):
        """1 MiB of zeros declared as 1 KiB: the inflate stops at 1 KiB + 1."""
        import tracemalloc
        blob = struct.pack("<Q", 1024) + zlib.compress(bytes(1 << 20), 9)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError):
                deflate.decompress(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
