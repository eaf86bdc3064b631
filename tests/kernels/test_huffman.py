"""Tests for the chunked canonical Huffman codec."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import huffman


def _hist(symbols: np.ndarray, bins: int) -> np.ndarray:
    return np.bincount(symbols, minlength=bins).astype(np.int64)


def _encoded_stream() -> tuple[np.ndarray, huffman.HuffmanEncoded]:
    syms = np.random.default_rng(7).integers(0, 40, size=5000).astype(np.uint32)
    return syms, huffman.encode(syms, huffman.build_codebook(_hist(syms, 64)))


class TestCodebook:
    def test_two_symbols_one_bit_each(self):
        counts = np.array([5, 3], dtype=np.int64)
        book = huffman.build_codebook(counts)
        np.testing.assert_array_equal(book.lengths, [1, 1])

    def test_single_symbol_gets_length_one(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 100
        book = huffman.build_codebook(counts)
        assert book.lengths[7] == 1
        assert (book.lengths[np.arange(16) != 7] == 0).all()

    def test_skewed_distribution_short_codes_for_frequent(self):
        counts = np.array([1000, 10, 10, 10], dtype=np.int64)
        book = huffman.build_codebook(counts)
        assert book.lengths[0] < book.lengths[1]

    def test_kraft_equality_for_full_tree(self, rng):
        counts = rng.integers(1, 1000, 64)
        book = huffman.build_codebook(counts)
        kraft = sum(2.0 ** -int(l) for l in book.lengths if l > 0)
        assert kraft == pytest.approx(1.0)

    def test_length_limit_enforced(self):
        # exponential weights force deep trees without a limit
        counts = np.zeros(64, dtype=np.int64)
        counts[:40] = (2 ** np.arange(40, dtype=np.int64))[::-1]
        book = huffman.build_codebook(counts, max_len=12)
        assert int(book.lengths.max()) <= 12
        kraft = sum(2.0 ** -int(l) for l in book.lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_package_merge_optimality_reference(self):
        """For mild distributions the limit is inactive: lengths must match
        the unbounded Huffman expected stream size."""
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 50, 20)
        unbounded = huffman._huffman_lengths_unbounded(counts)
        limited = huffman.package_merge_lengths(counts, max_len=16)
        cost_u = int((counts * unbounded).sum())
        cost_l = int((counts * limited).sum())
        assert cost_l == cost_u

    def test_empty_histogram_rejected(self):
        with pytest.raises(CodecError):
            huffman.build_codebook(np.zeros(8, dtype=np.int64))

    def test_canonical_codes_are_prefix_free(self, rng):
        counts = rng.integers(0, 100, 40)
        counts[0] = 1  # ensure at least one
        book = huffman.build_codebook(counts)
        codes, lengths = book.codes, book.lengths.astype(int)
        entries = [(format(int(codes[s]), f"0{lengths[s]}b"))
                   for s in range(40) if lengths[s] > 0]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a)

    def test_decode_tables_consistent(self, rng):
        counts = rng.integers(1, 100, 16)
        book = huffman.build_codebook(counts)
        tsym, tlen = book.decode_tables()
        for s in range(16):
            ln = int(book.lengths[s])
            window = int(book.codes[s]) << (book.max_len - ln)
            assert tsym[window] == s
            assert tlen[window] == ln


class TestEncodeDecode:
    @pytest.mark.parametrize("n,bins", [(100, 8), (5000, 256), (40000, 1024)])
    def test_round_trip(self, rng, n, bins):
        syms = rng.integers(0, bins, n).astype(np.uint32)
        book = huffman.build_codebook(_hist(syms, bins))
        enc = huffman.encode(syms, book)
        first, second = huffman.decode(enc), huffman.decode(enc)
        np.testing.assert_array_equal(first, syms)
        np.testing.assert_array_equal(second, syms)
        # every decode does the work: callers own (and may mutate) the result
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable

    def test_chunked_round_trip(self, rng):
        syms = rng.integers(0, 64, 10000).astype(np.uint32)
        book = huffman.build_codebook(_hist(syms, 64))
        enc = huffman.encode(syms, book, chunk=777)
        assert enc.chunk_symbols.size == int(np.ceil(10000 / 777))
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    def test_parallel_matches_serial_reference(self, rng):
        syms = rng.integers(0, 300, 3000).astype(np.uint32)
        book = huffman.build_codebook(_hist(syms, 300))
        enc = huffman.encode(syms, book, chunk=512)
        np.testing.assert_array_equal(huffman.decode(enc),
                                      huffman.decode_serial_reference(enc))

    def test_single_symbol_stream(self):
        syms = np.full(1000, 3, dtype=np.uint32)
        book = huffman.build_codebook(_hist(syms, 8))
        enc = huffman.encode(syms, book)
        assert len(enc.payload) == 125  # 1 bit per symbol
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    def test_empty_stream(self):
        book = huffman.build_codebook(np.array([1, 1], dtype=np.int64))
        enc = huffman.encode(np.zeros(0, dtype=np.uint32), book)
        assert huffman.decode(enc).size == 0

    def test_expected_bits_exact(self, rng):
        syms = rng.integers(0, 32, 2000).astype(np.uint32)
        counts = _hist(syms, 32)
        book = huffman.build_codebook(counts)
        enc = huffman.encode(syms, book)
        assert int(enc.chunk_bits.sum()) == huffman.expected_bits(counts, book)

    def test_symbol_outside_codebook_rejected(self):
        book = huffman.build_codebook(np.array([1, 1], dtype=np.int64))
        with pytest.raises(CodecError):
            huffman.encode(np.array([5], dtype=np.uint32), book)

    def test_symbol_absent_from_histogram_rejected(self):
        book = huffman.build_codebook(np.array([1, 0, 1], dtype=np.int64))
        with pytest.raises(CodecError):
            huffman.encode(np.array([1], dtype=np.uint32), book)

    def test_corrupt_payload_detected(self, rng):
        syms = rng.integers(0, 16, 500).astype(np.uint32)
        book = huffman.build_codebook(_hist(syms, 16))
        enc = huffman.encode(syms, book)
        bad = huffman.HuffmanEncoded(
            payload=enc.payload[:-2], chunk_symbols=enc.chunk_symbols,
            chunk_bits=enc.chunk_bits, count=enc.count,
            lengths=enc.lengths, max_len=enc.max_len)
        with pytest.raises(CodecError):
            huffman.decode(bad)

    def test_corrupt_payload_never_decodes_to_the_original(self):
        syms, enc = _encoded_stream()
        payload = bytearray(enc.payload)
        payload[len(payload) // 2] ^= 0xFF
        try:
            out = huffman.decode(replace(enc, payload=bytes(payload)))
        except CodecError:
            return                                   # loud failure is fine
        assert not np.array_equal(out, syms)

    def test_count_tamper_raises(self):
        _, enc = _encoded_stream()
        with pytest.raises(CodecError, match="count mismatch"):
            huffman.decode(replace(enc, count=enc.count + 1))

    def test_constant_streams_of_different_sizes_do_not_collide(self):
        # a single-symbol stream packs to all-padding payload bytes, so
        # counts 7 and 8 share payload *and* lengths
        a, b = (huffman.encode(np.full(n, 3, dtype=np.uint32),
                               huffman.build_codebook(_hist([3] * n, 8)))
                for n in (7, 8))
        assert a.payload == b.payload
        assert huffman.decode(a).size == 7
        assert huffman.decode(b).size == 8

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=2000),
           st.integers(64, 1000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values, chunk):
        syms = np.asarray(values, dtype=np.uint32)
        book = huffman.build_codebook(_hist(syms, 64))
        enc = huffman.encode(syms, book, chunk=chunk)
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    def test_compresses_skewed_stream(self, rng):
        syms = np.where(rng.random(20000) < 0.95, 0,
                        rng.integers(0, 512, 20000)).astype(np.uint32)
        book = huffman.build_codebook(_hist(syms, 512))
        enc = huffman.encode(syms, book)
        # ~0.95 prob on one symbol -> far below 9 bits/sym
        assert len(enc.payload) * 8 < 3 * syms.size
