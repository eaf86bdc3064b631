"""Tests for zigzag mapping, bit-plane shuffling and the bitshuffle
encoder's chunked tail."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modules_std import _TAIL_VALUES, BitshuffleEncoder
from repro.errors import CodecError
from repro.kernels import bitshuffle as bs
from repro.kernels import dictionary
from repro.obs.spans import GLOBAL_TRACER, set_telemetry


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


# ---------------------------------------------------------------------- #
# the encoder's chunked tail against the whole-field kernels              #
# ---------------------------------------------------------------------- #
TAIL = _TAIL_VALUES
#: alphabet size per shuffle width
NUM_BINS = {16: 1024, 32: 1 << 20}
COUNTS = [0, 1, 4095, 4096, TAIL - 1, TAIL + 1, 3 * TAIL + 100]


def _whole_field(codes: np.ndarray, num_bins: int, width: int,
                 word_bytes: int = dictionary.WORD_BYTES
                 ) -> dictionary.ZeroEliminated:
    """The sections as whole-field passes compute them."""
    zz = bs.zigzag(codes.astype(np.int64) - num_bins // 2)
    return dictionary.eliminate(bs.shuffle(zz.astype(DTYPES[width]), width),
                                word_bytes=word_bytes, two_level=False)


def _check_chunked(codes: np.ndarray, num_bins: int, width: int,
                   word_bytes: int = dictionary.WORD_BYTES) -> None:
    enc = BitshuffleEncoder(word_bytes)
    stream = enc.encode(codes, num_bins, None)
    z = _whole_field(codes, num_bins, width, word_bytes)
    assert stream.sections == {"enc.bitmap2": z.bitmap2,
                               "enc.bitmap1": z.bitmap1, "enc.words": z.words}
    assert stream.meta == {"count": codes.size, "orig_len": z.orig_len,
                           "word_bytes": word_bytes, "width": width}
    out = enc.decode(stream, codes.size, num_bins)
    assert out.dtype == DTYPES[width]
    np.testing.assert_array_equal(out, codes)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("width", WIDTHS)
class TestChunkedEncoderMatchesWholeField:
    """Chunk seams, partial blocks and the last chunk's padding: the
    encoder's sections equal ``eliminate(shuffle(zigzag(codes - centre)))``
    and its decode inverts them."""

    def test_random_codes(self, width, count, rng):
        num_bins = NUM_BINS[width]
        _check_chunked(rng.integers(0, num_bins, count).astype(DTYPES[width]),
                       num_bins, width)

    def test_codes_that_zigzag_to_zero(self, width, count):
        num_bins = NUM_BINS[width]
        _check_chunked(np.full(count, num_bins // 2, DTYPES[width]),
                       num_bins, width)

    def test_all_zero_codes(self, width, count):
        _check_chunked(np.zeros(count, DTYPES[width]), NUM_BINS[width], width)

    def test_codes_at_both_alphabet_edges(self, width, count, rng):
        num_bins = NUM_BINS[width]
        codes = rng.choice(np.array([0, num_bins - 1], DTYPES[width]), count)
        _check_chunked(codes, num_bins, width)


class TestChunkedEncoderEdges:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_chunks_of_different_live_planes(self, width, rng):
        """Small residuals leave the top byte planes zero, and those are
        skipped per chunk: a chunk with one wide code among chunks of
        narrow ones, and the reverse."""
        num_bins = NUM_BINS[width]
        codes = (num_bins // 2 + rng.integers(-3, 4, 3 * TAIL + 100)
                 ).astype(DTYPES[width])
        codes[TAIL + 17] = num_bins - 1
        _check_chunked(codes, num_bins, width)
        codes = rng.integers(0, num_bins, 3 * TAIL + 100).astype(DTYPES[width])
        codes[TAIL:2 * TAIL] = num_bins // 2
        _check_chunked(codes, num_bins, width)

    @pytest.mark.parametrize("word_bytes", [1, 3, 24, 64, 5000, 1 << 20])
    def test_words_that_do_not_divide_a_block(self, word_bytes, rng):
        """Chunks grow to a whole number of words; a last word past the
        stream is zero-padded, as ``eliminate`` pads it."""
        codes = rng.integers(0, 1024, TAIL + 4097).astype(np.uint16)
        codes[:5000] = 512
        _check_chunked(codes, 1024, 16, word_bytes)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64,
                                       np.uint32, np.uint64])
    def test_codes_of_other_dtypes(self, dtype, rng):
        codes = rng.integers(0, 1024, 2 * TAIL + 5)
        _check_chunked(codes.astype(dtype), 1024, 16)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_code_that_overflows_the_shuffle_in_the_last_chunk(
            self, width, side):
        num_bins = NUM_BINS[width]
        half, centre = 1 << (width - 1), num_bins // 2
        codes = np.full(3 * TAIL + 100, centre, np.int64)
        codes[-1] = centre + half if side == "above" else centre - half - 1
        with pytest.raises(CodecError):
            BitshuffleEncoder().encode(codes, num_bins, None)
        codes[-1] -= 1 if side == "above" else -1   # the edge that fits
        BitshuffleEncoder().encode(codes, num_bins, None)

    def test_unsigned_codes_of_every_width_are_range_checked(self):
        """A uint64 code above 2**63 is not a negative residual."""
        codes = np.full(10, 512, np.uint64)
        codes[-1] = 2**64 - 1
        with pytest.raises(CodecError):
            BitshuffleEncoder().encode(codes, 1024, None)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_out_of_range_code_in_the_last_chunk(self, width):
        """In range for the shuffle, not for the alphabet: decode refuses
        it, in the last chunk after the others decoded."""
        num_bins = NUM_BINS[width]
        codes = np.full(3 * TAIL + 100, num_bins // 2, np.int64)
        codes[-1] = num_bins
        enc = BitshuffleEncoder()
        stream = enc.encode(codes, num_bins, None)
        with pytest.raises(CodecError):
            enc.decode(stream, codes.size, num_bins)

    def test_one_span_per_call(self, rng):
        codes = rng.integers(0, 1024, 3 * TAIL + 100).astype(np.uint16)
        enc = BitshuffleEncoder()
        prev = set_telemetry(True)
        try:
            with GLOBAL_TRACER.capture() as spans:
                enc.decode(enc.encode(codes, 1024, None), codes.size, 1024)
        finally:
            set_telemetry(prev)
        by_name = {s.name: s for s in spans}
        assert [s.name for s in spans] == ["kernel.bitshuffle.encode",
                                           "kernel.bitshuffle.decode"]
        z = _whole_field(codes, 1024, 16)
        for name in by_name:
            attrs = by_name[name].attrs
            assert attrs["values"] == codes.size and attrs["width"] == 16
            assert attrs["blocks"] == -(-codes.size // bs.BLOCK_VALUES)
            assert attrs["chunks"] == 4
            assert attrs["words"] == z.orig_len // 32
            assert attrs["kept"] == len(z.words) // 32
