"""Tests for cuSZp2-style per-block fixed-length encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import fixedlen as fl


class TestRoundTrip:
    def test_basic(self, rng):
        v = rng.integers(0, 10000, 5000).astype(np.uint32)
        enc = fl.encode(v)
        np.testing.assert_array_equal(fl.decode(enc), v)

    def test_unaligned_count(self, rng):
        v = rng.integers(0, 100, 1003).astype(np.uint32)
        np.testing.assert_array_equal(fl.decode(fl.encode(v)), v)

    def test_all_zero_blocks_cost_one_byte_each(self):
        v = np.zeros(3200, dtype=np.uint32)
        enc = fl.encode(v)
        assert len(enc.payload) == 0
        assert len(enc.widths) == 100

    def test_mixed_widths(self, rng):
        v = np.zeros(320, dtype=np.uint32)
        v[0:32] = rng.integers(0, 2, 32)          # width 1
        v[32:64] = rng.integers(0, 2**16, 32)      # width <= 16
        v[64:96] = rng.integers(0, 2**31, 32)      # width <= 31
        enc = fl.encode(v)
        np.testing.assert_array_equal(fl.decode(enc), v)
        widths = np.frombuffer(enc.widths, dtype=np.uint8)
        assert widths[0] <= 1 and widths[3] == 0

    def test_width_is_minimal(self):
        v = np.full(32, 7, dtype=np.uint32)  # needs exactly 3 bits
        widths = np.frombuffer(fl.encode(v).widths, dtype=np.uint8)
        assert widths[0] == 3

    @pytest.mark.parametrize("block", [8, 32, 128])
    def test_custom_blocks(self, rng, block):
        v = rng.integers(0, 2**20, 500).astype(np.uint32)
        enc = fl.encode(v, block=block)
        np.testing.assert_array_equal(fl.decode(enc), v)

    def test_empty(self):
        enc = fl.encode(np.zeros(0, dtype=np.uint32))
        assert fl.decode(enc).size == 0

    def test_single_value(self):
        enc = fl.encode(np.array([12345], dtype=np.uint32))
        np.testing.assert_array_equal(fl.decode(enc), [12345])

    def test_max_uint32(self):
        v = np.array([2**32 - 1] * 33, dtype=np.uint32)
        np.testing.assert_array_equal(fl.decode(fl.encode(v)), v)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            fl.encode(np.array([-1], dtype=np.int64))

    def test_corrupt_widths_detected(self, rng):
        enc = fl.encode(rng.integers(0, 100, 100).astype(np.uint32))
        bad = fl.FixedLenEncoded(widths=enc.widths[:-1], payload=enc.payload,
                                 count=enc.count, block=enc.block)
        with pytest.raises(CodecError):
            fl.decode(bad)

    def test_corrupt_payload_detected(self, rng):
        enc = fl.encode(rng.integers(1, 100, 100).astype(np.uint32))
        bad = fl.FixedLenEncoded(widths=enc.widths, payload=enc.payload[:-1],
                                 count=enc.count, block=enc.block)
        with pytest.raises(CodecError):
            fl.decode(bad)

    @pytest.mark.parametrize("width", [33, 64, 255])
    def test_width_above_32_refused(self, width):
        # a width byte encode never writes must not decode to garbage
        nbytes = (width * fl.BLOCK_VALUES + 7) // 8
        bad = fl.FixedLenEncoded(widths=bytes([width]),
                                 payload=b"\x5a" * nbytes,
                                 count=fl.BLOCK_VALUES)
        with pytest.raises(CodecError, match="exceeds 32 bits"):
            fl.decode(bad)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=400),
           st.sampled_from([8, 32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values, block):
        v = np.asarray(values, dtype=np.uint32)
        np.testing.assert_array_equal(fl.decode(fl.encode(v, block=block)), v)


class TestSizeBehaviour:
    def test_small_values_compress(self, rng):
        v = rng.integers(0, 4, 32000).astype(np.uint32)
        enc = fl.encode(v)
        assert enc.nbytes() < v.nbytes / 8  # <= 2 bits + width bytes

    def test_adversarial_one_big_value_per_block(self, rng):
        """One huge value per block forces the whole block wide — the
        known weakness vs entropy coding."""
        v = rng.integers(0, 2, 3200).astype(np.uint32)
        v[::32] = 2**30
        enc = fl.encode(v)
        assert enc.nbytes() > v.size * 31 // 8 - 200
