"""Tests for zigzag mapping and bit-plane shuffling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import bitshuffle as bs


class TestZigzag:
    @pytest.mark.parametrize("signed,unsigned", [(0, 0), (-1, 1), (1, 2),
                                                 (-2, 3), (2, 4)])
    def test_known_mapping(self, signed, unsigned):
        assert int(bs.zigzag(np.array([signed]))[0]) == unsigned

    def test_roundtrip_extremes(self):
        v = np.array([0, -1, 1, -2**62, 2**62 - 1], dtype=np.int64)
        np.testing.assert_array_equal(bs.unzigzag(bs.zigzag(v)), v)

    def test_small_magnitude_maps_small(self, rng):
        v = rng.integers(-100, 100, 1000)
        assert int(bs.zigzag(v).max()) <= 200

    @given(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        v = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(bs.unzigzag(bs.zigzag(v)), v)


class TestShuffle:
    @pytest.mark.parametrize("width", [16, 32])
    def test_roundtrip(self, rng, width):
        v = rng.integers(0, 2**width - 1, 3000,
                         dtype=np.uint64).astype(np.uint32)
        payload = bs.shuffle(v, width)
        out = bs.unshuffle(payload, v.size, width)
        np.testing.assert_array_equal(out, v)

    def test_partial_block_padding(self, rng):
        v = rng.integers(0, 2**16 - 1, 100).astype(np.uint16)
        payload = bs.shuffle(v, 16)
        out = bs.unshuffle(payload, 100, 16)
        np.testing.assert_array_equal(out, v)

    @pytest.mark.parametrize("block", [64, 256, 4096])
    def test_custom_blocks(self, rng, block):
        v = rng.integers(0, 2**16 - 1, 1000).astype(np.uint16)
        out = bs.unshuffle(bs.shuffle(v, 16, block=block), 1000, 16,
                           block=block)
        np.testing.assert_array_equal(out, v)

    def test_small_values_make_zero_bytes(self, rng):
        """The compressibility premise: small values -> mostly zero planes."""
        v = rng.integers(0, 4, 4096).astype(np.uint16)
        payload = np.frombuffer(bs.shuffle(v, 16), dtype=np.uint8)
        # 14 of 16 planes are zero
        assert np.mean(payload == 0) > 0.8

    def test_plane_layout(self):
        """Plane 0 is the MSB plane: value 0x8000 sets only plane-0 bits."""
        v = np.zeros(bs.BLOCK_VALUES, dtype=np.uint16)
        v[:] = 0x8000
        payload = np.frombuffer(bs.shuffle(v, 16), dtype=np.uint8)
        plane_bytes = bs.BLOCK_VALUES // 8
        assert (payload[:plane_bytes] == 0xFF).all()
        assert (payload[plane_bytes:] == 0).all()

    def test_width_validation(self):
        with pytest.raises(CodecError):
            bs.shuffle(np.array([1], dtype=np.uint8), 8)
        with pytest.raises(CodecError):
            bs.unshuffle(b"", 0, 12)

    def test_value_overflow_rejected(self):
        with pytest.raises(CodecError):
            bs.shuffle(np.array([2**20], dtype=np.uint32), 16)

    def test_payload_size_mismatch_rejected(self):
        v = np.arange(10, dtype=np.uint16)
        payload = bs.shuffle(v, 16)
        with pytest.raises(CodecError):
            bs.unshuffle(payload[:-1], 10, 16)

    def test_empty(self):
        assert bs.unshuffle(b"", 0, 16).size == 0

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property_32(self, values):
        v = np.asarray(values, dtype=np.uint32)
        out = bs.unshuffle(bs.shuffle(v, 32), v.size, 32)
        np.testing.assert_array_equal(out, v)


# ---------------------------------------------------------------------- #
# identity against the former np.unpackbits formulation                    #
# ---------------------------------------------------------------------- #
def ref_shuffle(values: np.ndarray, width_bits: int, block: int) -> bytes:
    """The one-byte-per-bit shuffle ``src/`` shipped before the word
    transpose: unpack every bit, transpose, pack again."""
    dt = np.dtype(DTYPES[width_bits])
    v = np.asarray(values).astype(dt).reshape(-1)
    v = np.concatenate([v, np.zeros((-v.size) % block, dtype=dt)])
    nblocks = v.size // block
    raw = v.reshape(nblocks, block).astype(dt.newbyteorder(">"))
    bits = np.unpackbits(raw.view(np.uint8), axis=-1)
    planes = bits.reshape(nblocks, block, width_bits).transpose(0, 2, 1)
    return np.packbits(planes.reshape(nblocks, -1), axis=-1).tobytes()


def ref_unshuffle(payload: bytes, count: int, width_bits: int,
                  block: int) -> np.ndarray:
    """Inverse of :func:`ref_shuffle`, same vintage."""
    dt = np.dtype(DTYPES[width_bits])
    nblocks = -(-count // block)
    raw = np.frombuffer(payload, dtype=np.uint8)
    planes = np.unpackbits(raw.reshape(nblocks, -1), axis=-1)
    bits = planes.reshape(nblocks, width_bits, block).transpose(0, 2, 1)
    packed = np.packbits(bits.reshape(nblocks, -1), axis=-1)
    return packed.reshape(-1).view(dt.newbyteorder(">")).astype(dt)[:count]


WIDTHS = [16, 32]
DTYPES = {16: np.uint16, 32: np.uint32}
BLOCKS = [8, 32, 64, 256, 4096]
SIZES = [lambda block: 1, lambda block: 7, lambda block: 8,
         lambda block: block - 1, lambda block: block,
         lambda block: block + 1, lambda block: 3 * block + 5]


def _check_against_reference(v: np.ndarray, width: int, block: int) -> None:
    before = v.copy()
    payload = bs.shuffle(v, width, block=block)
    assert payload == ref_shuffle(v, width, block)
    np.testing.assert_array_equal(v, before)    # the caller's buffer stands
    for inverse in (bs.unshuffle, ref_unshuffle):
        out = inverse(payload, v.size, width, block)
        assert out.dtype == v.dtype
        np.testing.assert_array_equal(out, v)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("width", WIDTHS)
class TestShuffleAgainstReference:
    def test_constant_values(self, width, block):
        for size_of in SIZES:
            for fill in (0, 2**width - 1):
                _check_against_reference(
                    np.full(size_of(block), fill, dtype=DTYPES[width]),
                    width, block)

    def test_one_hot_values(self, width, block):
        """One set bit at every bit position of eight consecutive value
        slots: every cell of the 8x8 tile, in every byte plane."""
        for slot in range(8, 16):
            for bit in range(width):
                v = np.zeros(19, dtype=DTYPES[width])
                v[slot] = 1 << bit
                _check_against_reference(v, width, block)

    @given(st.sampled_from(SIZES), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 8, 16, 32]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_values(self, width, block, size_of, seed, live_bits):
        """Dense and sparse bit planes (``live_bits`` low bits are random,
        the planes above them are zero)."""
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 2**min(live_bits, width), size_of(block),
                         dtype=np.uint64)
        _check_against_reference(v.astype(DTYPES[width]), width, block)


class TestShuffleEdges:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_empty_input_shuffles_to_nothing(self, width):
        assert bs.shuffle(np.zeros(0, dtype=DTYPES[width]), width) == b""
        assert bs.shuffle([], width) == b""

    def test_negative_count_rejected(self):
        with pytest.raises(CodecError):
            bs.unshuffle(b"", -1, 16)

    @pytest.mark.parametrize("block", [0, -8, -1, 4, 12, 4097])
    def test_block_must_be_a_positive_multiple_of_8(self, block):
        with pytest.raises(CodecError):
            bs.shuffle(np.arange(10, dtype=np.uint16), 16, block=block)
        with pytest.raises(CodecError):
            bs.unshuffle(b"\x00" * 32, 10, 16, block=block)

    @pytest.mark.parametrize("block", [8, 4096])
    def test_read_only_buffers(self, rng, block):
        """Neither direction writes through to what it was handed (at
        ``block == 8`` the transposed payload view is already contiguous,
        so a flip "on a copy" could silently be a flip on the input)."""
        v = rng.integers(0, 2**16, 100).astype(np.uint16)
        v.setflags(write=False)
        payload = bs.shuffle(v, 16, block=block)
        view = memoryview(payload)
        out = bs.unshuffle(view, v.size, 16, block=block)
        assert out.flags.writeable
        np.testing.assert_array_equal(out, v)
        assert bytes(view) == ref_shuffle(v, 16, block)

    def test_values_of_another_dtype_are_range_checked(self):
        assert (bs.shuffle(np.array([3, 65535], dtype=np.int64), 16)
                == bs.shuffle(np.array([3, 65535], dtype=np.uint16), 16))
        with pytest.raises(CodecError):
            bs.shuffle(np.array([3, 65536], dtype=np.int64), 16)

    def test_shuffled_size(self):
        assert bs.shuffled_size(0) == 0
        assert bs.shuffled_size(1) == 2 * bs.BLOCK_VALUES
        assert bs.shuffled_size(4097, 32) == 4 * 2 * bs.BLOCK_VALUES
        assert bs.shuffled_size(9, 16, block=8) == 32
        with pytest.raises(CodecError):
            bs.shuffled_size(9, 8)


class TestZigzagWidths:
    """``int16``/``int32``/``int64`` stay in their own width; the result is
    the ``int64`` result truncated to it."""

    @staticmethod
    def _zigzag(v: int) -> int:
        return 2 * v if v >= 0 else -2 * v - 1

    @pytest.mark.parametrize("signed,unsigned", [
        (np.int16, np.uint16), (np.int32, np.uint32), (np.int64, np.uint64)])
    def test_extremes_keep_their_width(self, signed, unsigned):
        info = np.iinfo(signed)
        values = [info.min, info.min + 1, -2, -1, 0, 1, 2, info.max - 1,
                  info.max]
        v = np.array(values, dtype=signed)
        zz = bs.zigzag(v)
        assert zz.dtype == unsigned
        assert zz.tolist() == [self._zigzag(x) for x in values]
        if signed is not np.int64:
            np.testing.assert_array_equal(
                zz, bs.zigzag(v.astype(np.int64)).astype(unsigned))
        back = bs.unzigzag(zz)
        assert back.dtype == signed
        np.testing.assert_array_equal(back, v)
        np.testing.assert_array_equal(
            back, bs.unzigzag(zz.astype(np.uint64)).astype(signed))

    @pytest.mark.parametrize("values", [[-3, 4], np.array([-3, 4], np.int8),
                                        np.array([-3.0, 4.0])])
    def test_other_inputs_go_through_int64(self, values):
        zz = bs.zigzag(values)
        assert zz.dtype == np.uint64 and zz.tolist() == [5, 8]

    def test_other_unsigned_inputs_go_through_uint64(self):
        back = bs.unzigzag(np.array([5, 8], dtype=np.uint8))
        assert back.dtype == np.int64 and back.tolist() == [-3, 4]

    def test_input_is_not_modified(self):
        v = np.array([-3, 4], dtype=np.int32)
        zz = bs.zigzag(v)
        bs.unzigzag(zz)
        assert v.tolist() == [-3, 4] and zz.tolist() == [5, 8]
