"""Unit + property tests for the bit-packing primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import bitio


class TestPackVarlen:
    def test_single_symbol(self):
        payload, bits = bitio.pack_varlen(np.array([0b101], dtype=np.uint32),
                                          np.array([3]))
        assert bits == 3
        assert payload == bytes([0b1010_0000])

    def test_concatenation_order_msb_first(self):
        # 0b1 (len 1) followed by 0b0110 (len 4) -> 10110xxx
        payload, bits = bitio.pack_varlen(np.array([1, 0b0110], dtype=np.uint32),
                                          np.array([1, 4]))
        assert bits == 5
        assert payload[0] >> 3 == 0b10110

    def test_empty(self):
        payload, bits = bitio.pack_varlen(np.zeros(0, dtype=np.uint32),
                                          np.zeros(0, dtype=np.int64))
        assert payload == b"" and bits == 0

    def test_rejects_bad_lengths(self):
        with pytest.raises(CodecError):
            bitio.pack_varlen(np.array([1], dtype=np.uint32), np.array([0]))
        with pytest.raises(CodecError):
            bitio.pack_varlen(np.array([1], dtype=np.uint32), np.array([33]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(CodecError):
            bitio.pack_varlen(np.array([1, 2], dtype=np.uint32), np.array([3]))

    @given(st.lists(st.tuples(st.integers(1, 16), st.integers(0, 2**16 - 1)),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_total_bits_matches_lengths(self, pairs):
        lengths = np.array([ln for ln, _ in pairs], dtype=np.int64)
        codes = np.array([v & ((1 << ln) - 1) for ln, v in pairs],
                         dtype=np.uint32)
        payload, bits = bitio.pack_varlen(codes, lengths)
        assert bits == int(lengths.sum())
        assert len(payload) == (bits + 7) // 8


def _pack_varlen_per_bit(codes: np.ndarray, lengths: np.ndarray
                         ) -> tuple[bytes, int]:
    """The packer this module replaced: one array element per output bit.
    Kept as the byte-identity reference for :func:`bitio.pack_varlen`."""
    codes = np.asarray(codes, dtype=np.uint32)
    lengths = np.asarray(lengths, dtype=np.int64)
    total_bits = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    sym_of_bit = np.repeat(np.arange(codes.size, dtype=np.int64), lengths)
    bit_in_sym = (np.arange(total_bits, dtype=np.int64)
                  - np.repeat(starts, lengths))
    shift = (lengths[sym_of_bit] - 1 - bit_in_sym).astype(np.uint32)
    bits = ((codes[sym_of_bit] >> shift) & np.uint32(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total_bits


class TestPackVarlenByteIdentity:
    @given(st.lists(st.tuples(st.integers(1, 32), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_per_bit_reference(self, pairs):
        # codes carry garbage above their length: only the low bits count
        lengths = np.array([ln for ln, _ in pairs], dtype=np.int64)
        codes = np.array([v for _, v in pairs], dtype=np.uint32)
        assert (bitio.pack_varlen(codes, lengths)
                == _pack_varlen_per_bit(codes, lengths))

    @pytest.mark.parametrize("length", range(1, 33))
    def test_every_length_at_every_offset_of_a_word(self, length):
        for lead in range(64):
            lengths = np.array([1] * lead + [length, 7], dtype=np.int64)
            codes = np.full(lengths.size, 0xFFFFFFFF, dtype=np.uint32)
            codes[::2] = 0xA5A5A5A5
            assert (bitio.pack_varlen(codes, lengths)
                    == _pack_varlen_per_bit(codes, lengths))

    @pytest.mark.parametrize("end", [63, 64, 65])
    @pytest.mark.parametrize("length", [1, 2, 31, 32])
    def test_code_around_a_word_boundary(self, end, length):
        # a code ending at bit 63 fits, at 64 exactly fills the first
        # word, at 65 straddles into the second
        lead = end - length
        lengths = np.array([16] * (lead // 16) + [1] * (lead % 16)
                           + [length, 32, 32, 5], dtype=np.int64)
        codes = np.arange(lengths.size, dtype=np.uint32) * 0x9E3779B1
        payload, bits = bitio.pack_varlen(codes, lengths)
        assert (payload, bits) == _pack_varlen_per_bit(codes, lengths)
        assert bits == int(lengths.sum())

    def test_last_code_straddles_into_the_final_word(self):
        lengths = np.array([32, 31, 3], dtype=np.int64)    # 63 + 3
        codes = np.array([0xDEADBEEF, 0x7FFFFFFF, 0b101], dtype=np.uint32)
        assert (bitio.pack_varlen(codes, lengths)
                == _pack_varlen_per_bit(codes, lengths))


class TestPackVarlenBlockSeams:
    """The packer walks its input ``PACK_BLOCK`` codes at a time; where a
    block ends must not show in the bytes."""

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_sizes_around_a_whole_number_of_blocks(self, rng, blocks, delta):
        n = blocks * bitio.PACK_BLOCK + delta
        lengths = rng.integers(1, 33, n)
        codes = rng.integers(0, 2 ** 32, n, dtype=np.uint32)   # garbage above
        assert (bitio.pack_varlen(codes, lengths)
                == _pack_varlen_per_bit(codes, lengths))

    @pytest.mark.parametrize("offset", range(64))
    def test_seam_at_every_bit_offset_of_a_word(self, offset):
        # the first block ends ``offset`` bits into a word and the second
        # opens with a 32-bit code: past offset 32 that code straddles the
        # seam's word boundary as well, and its leading bits belong to a
        # word the first block wrote
        lengths = np.ones(2 * bitio.PACK_BLOCK, dtype=np.int64)
        lengths[:offset] = 2
        lengths[bitio.PACK_BLOCK] = 32
        lengths[bitio.PACK_BLOCK + 1::3] = 32
        lengths[bitio.PACK_BLOCK + 2::5] = 17
        assert int(lengths[:bitio.PACK_BLOCK].sum()) % 64 == offset
        codes = np.arange(lengths.size, dtype=np.uint32) * 0x9E3779B1
        codes[bitio.PACK_BLOCK] = 0xFFFFFFFF
        assert (bitio.pack_varlen(codes, lengths)
                == _pack_varlen_per_bit(codes, lengths))

    def test_bad_length_in_a_later_block_rejected(self):
        codes = np.zeros(bitio.PACK_BLOCK + 2, dtype=np.uint32)
        for bad in (0, 33, -1, 256 + 8):
            lengths = np.full(codes.size, 8, dtype=np.int64)
            lengths[-1] = bad
            with pytest.raises(CodecError):
                bitio.pack_varlen(codes, lengths)


class TestUnpackWindows:
    def test_window_values(self):
        # stream = 1010 1100 (one byte)
        payload = bytes([0b10101100])
        win = bitio.unpack_windows(payload, 8, 4)
        assert list(win[:5]) == [0b1010, 0b0101, 0b1011, 0b0110, 0b1100]

    def test_tail_reads_zero(self):
        payload = bytes([0b11111111])
        win = bitio.unpack_windows(payload, 8, 8)
        # window at offset 7 covers bit 7 plus 7 zero-padded bits
        assert win[7] == 0b10000000

    def test_empty_stream(self):
        assert bitio.unpack_windows(b"", 0, 8).size == 0

    def test_rejects_wide_window(self):
        with pytest.raises(CodecError):
            bitio.unpack_windows(b"\x00", 8, 25)

    @given(st.binary(min_size=1, max_size=64), st.integers(1, 24))
    @settings(max_examples=50, deadline=None)
    def test_windows_match_manual_bits(self, payload, width):
        total = len(payload) * 8
        win = bitio.unpack_windows(payload, total, width)
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        padded = np.concatenate([bits, np.zeros(width, dtype=np.uint8)])
        for p in [0, total // 2, total - 1]:
            expect = int("".join(map(str, padded[p:p + width])), 2)
            assert int(win[p]) == expect
