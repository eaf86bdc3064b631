"""Tests for the chunked canonical Huffman codec."""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import bitio, huffman
from repro.obs.spans import GLOBAL_TRACER, set_telemetry
from repro.runtime.threads import thread_budget
from tests.kernels.test_bitio import _pack_varlen_per_bit


def _hist(symbols: np.ndarray, bins: int) -> np.ndarray:
    return np.bincount(symbols, minlength=bins).astype(np.int64)


def _with_span_attrs(name: str, call):
    """``call()`` with telemetry on: its result and span ``name``'s attrs."""
    prev = set_telemetry(True)
    try:
        with GLOBAL_TRACER.capture() as records:
            result = call()
    finally:
        set_telemetry(prev)
    return result, next(r.attrs for r in records if r.name == name)


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


def _reference_huffman_lengths(counts: np.ndarray) -> np.ndarray:
    """The heap-of-symbol-lists Huffman ``huffman._huffman_lengths_unbounded``
    replaced; its ``(weight, tie)`` keys fix the merge order of every
    container written so far."""
    sym = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if sym.size == 1:
        lengths[sym[0]] = 1
        return lengths
    heap = [(int(counts[s]), int(s), [int(s)]) for s in sym]
    heapq.heapify(heap)
    tie = counts.size
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        lengths[s1] += 1
        lengths[s2] += 1
        heapq.heappush(heap, (w1 + w2, tie, s1 + s2))
        tie += 1
    return lengths


def _reference_package_merge(counts: np.ndarray, max_len: int) -> np.ndarray:
    """The tree-walking package-merge ``huffman.package_merge_lengths``
    replaced: every package is a node, the solution is expanded leaf by
    leaf."""
    counts = np.asarray(counts, dtype=np.int64)
    sym = np.flatnonzero(counts)
    n = sym.size
    lengths = np.zeros(counts.size, dtype=np.int64)
    if n == 1:
        lengths[sym[0]] = 1
        return lengths
    order = sym[np.argsort(counts[sym], kind="stable")]
    weights = counts[order].tolist()
    lefts = [-1] * n
    rights = [-1] * n

    def make_package(a: int, b: int) -> int:
        weights.append(weights[a] + weights[b])
        lefts.append(a)
        rights.append(b)
        return len(weights) - 1

    prev_level = list(range(n))
    for _ in range(max_len - 1):
        packages = [make_package(prev_level[i], prev_level[i + 1])
                    for i in range(0, len(prev_level) - 1, 2)]
        prev_level = sorted(list(range(n)) + packages,
                            key=lambda i: weights[i])
    per_leaf = np.zeros(n, dtype=np.int64)
    stack = list(prev_level[:2 * n - 2])
    while stack:
        node = stack.pop()
        if node < n:
            per_leaf[node] += 1
        else:
            stack.append(lefts[node])
            stack.append(rights[node])
    lengths[order] = per_leaf
    return lengths


def _reference_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical codes one symbol at a time, in ``(length, symbol)`` order."""
    lengths = lengths.astype(np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    order = np.lexsort((np.arange(lengths.size), lengths))
    code = prev_len = 0
    for s in order[lengths[order] > 0]:
        code <<= int(lengths[s]) - prev_len
        codes[s] = code
        code += 1
        prev_len = int(lengths[s])
    return codes


def _reference_decode_tables(lengths: np.ndarray, codes: np.ndarray,
                             max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense decode tables filled one symbol's window range at a time."""
    tsym = np.zeros(1 << max_len, dtype=np.uint32)
    tlen = np.zeros(1 << max_len, dtype=np.uint8)
    for s in np.flatnonzero(lengths):
        ln = int(lengths[s])
        lo = int(codes[s]) << (max_len - ln)
        tsym[lo:lo + (1 << (max_len - ln))] = s
        tlen[lo:lo + (1 << (max_len - ln))] = ln
    return tsym, tlen


_FIBONACCI = [1, 1]
while len(_FIBONACCI) < 72:
    _FIBONACCI.append(_FIBONACCI[-1] + _FIBONACCI[-2])


def _histogram(rng: np.random.Generator, shape: str, live: int,
               gaps: bool) -> np.ndarray:
    """``live`` positive counts of the given shape in shuffled bins, with
    zero bins interleaved when ``gaps``."""
    i = np.arange(live, dtype=np.float64)
    weights = {
        "uniform": lambda: rng.integers(1, 1000, live),
        "power-law": lambda: 1 + (1e6 / (1 + i) ** 1.5).astype(np.int64),
        "bump": lambda: 1 + (5e5 * np.exp(
            -0.5 * ((i - live / 2) / (1 + live / 9)) ** 2)).astype(np.int64),
        "all-equal": lambda: np.full(live, 7),
        # unbounded depth is live - 1 up to 72 symbols: far past any limit
        "fibonacci": lambda: np.array(_FIBONACCI)[np.minimum(
            np.arange(live), len(_FIBONACCI) - 1)],
    }[shape]().astype(np.int64)
    rng.shuffle(weights)
    counts = np.zeros(live * (3 if gaps else 1), dtype=np.int64)
    counts[np.sort(rng.choice(counts.size, live, replace=False))] = weights
    return counts


#: (live symbols, max_len): the alphabet sizes the encoder meets, plus
#: exactly ``2**max_len`` symbols where the reference is still quick
_ALPHABETS = ([(live, max_len) for max_len in (4, 8, 12, 16)
               for live in (1, 2, 3, 300, 1024)] + [(16, 4), (256, 8)])


class TestCodebookAgainstReferences:
    """The vectorised codebook construction is the loops it replaced."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["uniform", "power-law", "bump",
                                  "all-equal", "fibonacci"]),
           alphabet=st.sampled_from(_ALPHABETS), gaps=st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_lengths_codes_and_tables_match(self, seed, shape, alphabet,
                                            gaps):
        live, max_len = alphabet
        counts = _histogram(np.random.default_rng(seed), shape, live, gaps)
        np.testing.assert_array_equal(
            huffman._huffman_lengths_unbounded(counts),
            _reference_huffman_lengths(counts))
        if live > 1 << max_len:
            with pytest.raises(CodecError, match="cannot be coded"):
                huffman.package_merge_lengths(counts, max_len)
            with pytest.raises(CodecError, match="cannot be coded"):
                huffman.build_codebook(counts, max_len=max_len)
            return
        np.testing.assert_array_equal(
            huffman.package_merge_lengths(counts, max_len),
            _reference_package_merge(counts, max_len))

        book = huffman.build_codebook(counts, max_len=max_len)
        lengths = book.lengths.astype(np.int64)
        assert np.array_equal(lengths > 0, counts > 0)
        if live >= 2:       # an optimal code is complete: Kraft with equality
            assert (sum(1 << (max_len - int(ln)) for ln in lengths[lengths > 0])
                    == 1 << max_len)
        codes = _reference_codes(book.lengths)
        np.testing.assert_array_equal(book.codes, codes)
        tsym, tlen = book.decode_tables()
        ref_sym, ref_len = _reference_decode_tables(book.lengths, codes,
                                                    max_len)
        np.testing.assert_array_equal(tsym, ref_sym)
        np.testing.assert_array_equal(tlen, ref_len)
        assert (tsym.dtype, tlen.dtype) == (ref_sym.dtype, ref_len.dtype)

    def test_incomplete_and_empty_books(self):
        # a pinned codebook need not be complete, or hold any code at all
        for lengths in ([3, 0, 1, 3], [0, 0, 0], [2], []):
            book = huffman.Codebook(lengths=np.array(lengths, dtype=np.uint8),
                                    max_len=6)
            codes = _reference_codes(book.lengths)
            np.testing.assert_array_equal(book.codes, codes)
            for got, want in zip(book.decode_tables(),
                                 _reference_decode_tables(book.lengths,
                                                          codes, 6)):
                np.testing.assert_array_equal(got, want)

    def test_empty_histogram_rejected(self):
        for build in (huffman._huffman_lengths_unbounded,
                      lambda c: huffman.package_merge_lengths(c, 16),
                      huffman.build_codebook):
            with pytest.raises(CodecError, match="empty histogram"):
                build(np.zeros(8, dtype=np.int64))

    def test_package_weights_past_int64_rejected_not_wrapped(self):
        # a package holds each leaf at most once per level below its own,
        # so (max_len - 1) * sum(counts) bounds every weight
        counts = np.array(_FIBONACCI[:40], dtype=np.int64) << 34
        assert int(counts.sum()) * 15 >= 1 << 63 > int(counts.sum())
        with pytest.raises(CodecError, match="too large"):
            huffman.package_merge_lengths(counts, 16)
        with pytest.raises(CodecError, match="too large"):
            huffman.build_codebook(counts, max_len=16)
        # the same shape just inside the bound is still the reference
        counts >>= 4
        assert int(counts.sum()) * 15 < 1 << 63
        np.testing.assert_array_equal(
            huffman.package_merge_lengths(counts, 16),
            _reference_package_merge(counts, 16))

    def test_codes_wider_than_32_bits_rejected(self):
        book = huffman.Codebook(lengths=np.array([1, 40], dtype=np.uint8),
                                max_len=40)
        with pytest.raises(CodecError, match="32 bits"):
            _ = book.codes

    @pytest.mark.parametrize("counts,limited", [
        (np.array([9, 0, 5, 3, 0, 1]), False),
        (np.array(_FIBONACCI[:30]), True)])
    def test_build_span_says_why_it_cost_what_it_did(self, counts, limited):
        book, attrs = _with_span_attrs(
            "kernel.huffman.build_codebook",
            lambda: huffman.build_codebook(counts, max_len=16))
        assert attrs["symbols"] == np.count_nonzero(counts)
        assert attrs["limited"] is limited
        assert attrs["longest"] == int(book.lengths.max())
        assert (attrs["longest"] == 16) is limited


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

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_payload_across_packer_block_seams(self, rng, blocks, delta):
        # encode gathers from its tables a block at a time; the bytes are
        # those of the codes packed as one array
        n = blocks * bitio.PACK_BLOCK + delta
        syms = np.minimum(rng.geometric(0.3, n), 299).astype(np.uint16)
        book = huffman.build_codebook(_hist(syms, 300))
        enc, attrs = _with_span_attrs("kernel.huffman.encode",
                                      lambda: huffman.encode(syms, book))
        payload, nbits = bitio.pack_varlen(book.codes[syms],
                                           book.lengths[syms])
        assert (enc.payload, int(enc.chunk_bits[0])) == (payload, nbits)
        # a block is PACK_BLOCK packed elements of ``group`` codes each
        group = 63 // int(book.lengths.max())
        assert attrs["group"] == group
        assert attrs["blocks"] == -(-n // (group * bitio.PACK_BLOCK))
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    def test_absent_symbol_in_a_later_block_rejected(self):
        syms = np.zeros(bitio.PACK_BLOCK + 5, dtype=np.uint32)
        syms[-1] = 1
        book = huffman.build_codebook(np.array([1, 0, 1], dtype=np.int64))
        with pytest.raises(CodecError, match="absent from the histogram"):
            huffman.encode(syms, book)

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


def _book_with_longest(longest: int, bins: int, seed: int
                       ) -> huffman.Codebook:
    """A complete book whose longest code is ``longest``: lengths
    ``1 .. longest - 1`` and two of ``longest``, on random bins (the rest
    absent)."""
    lengths = list(range(1, longest)) + [longest, longest]
    rng = np.random.default_rng(seed)
    table = np.zeros(max(bins, len(lengths)), dtype=np.uint8)
    table[rng.permutation(table.size)[:len(lengths)]] = lengths
    return huffman.Codebook(lengths=table, max_len=max(longest, 16))


def _per_bit_chunks(syms: np.ndarray, book: huffman.Codebook,
                    chunk: int) -> tuple[bytes, list[int]]:
    """The reference encoding: each chunk packed one bit at a time."""
    parts = [_pack_varlen_per_bit(book.codes[syms[lo:lo + chunk]],
                                  book.lengths[syms[lo:lo + chunk]])
             for lo in range(0, syms.size, chunk)]
    return b"".join(p for p, _ in parts), [bits for _, bits in parts]


class TestGroupedPacker:
    """``encode`` merges ``63 // longest`` codes into each packed element;
    the bytes are those of the codes packed one bit at a time."""

    @given(st.integers(1, 24), st.integers(1, 600), st.integers(1, 300),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_per_bit_reference(self, longest, n, chunk, seed,
                                       threads):
        group = 63 // longest
        if chunk % group == 0 and group > 1:
            chunk += 1                      # chunks end inside a group
        book = _book_with_longest(longest, 64, seed)
        live = np.flatnonzero(book.lengths)
        syms = np.random.default_rng(seed).choice(live, n).astype(np.uint16)
        with thread_budget(threads):
            enc = huffman.encode(syms, book, chunk=chunk)
        payload, bits = _per_bit_chunks(syms, book, chunk)
        assert enc.payload == payload
        assert enc.chunk_bits.tolist() == bits
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    @pytest.mark.parametrize("longest", [24, 16, 15, 5])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sizes_around_whole_blocks_of_groups(self, longest, delta,
                                                 threads):
        group = 63 // longest
        n = 2 * group * bitio.PACK_BLOCK + delta
        book = _book_with_longest(longest, 300, longest)
        live = np.flatnonzero(book.lengths)
        syms = np.random.default_rng(delta + 1).choice(live, n)
        chunk = n // 2 + 1                  # not a multiple of the group
        with thread_budget(threads):
            enc, attrs = _with_span_attrs(
                "kernel.huffman.encode",
                lambda: huffman.encode(syms, book, chunk=chunk))
        payload, bits = _per_bit_chunks(syms, book, chunk)
        assert (enc.payload, enc.chunk_bits.tolist()) == (payload, bits)
        assert attrs["group"] == group

    @pytest.mark.parametrize("where", ["group-start", "group-middle",
                                       "group-end", "short-last-group"])
    def test_absent_symbol_in_a_later_group_rejected(self, where):
        book = _book_with_longest(16, 40, 3)
        live, absent = (np.flatnonzero(book.lengths),
                        np.flatnonzero(book.lengths == 0)[0])
        n = 3 * bitio.PACK_BLOCK + 3 * 100 + 2        # a short last group
        syms = np.resize(live, n)
        at = {"group-start": 3 * bitio.PACK_BLOCK + 30,
              "group-middle": 3 * bitio.PACK_BLOCK + 31,
              "group-end": 3 * bitio.PACK_BLOCK + 32,
              "short-last-group": n - 1}[where]
        syms[at] = absent
        with pytest.raises(CodecError,
                           match="^stream contains a symbol absent from "
                                 "the histogram$"):
            huffman.encode(syms, book)

    @pytest.mark.parametrize("bad", [
        np.array([40], dtype=np.uint16), np.array([1 << 20], dtype=np.uint32),
        np.array([2**64 - 1], dtype=np.uint64),
        np.array([-41], dtype=np.int64), np.array([-1], dtype=np.int8)],
        ids=repr)
    def test_out_of_range_symbol_in_a_later_group_rejected(self, bad):
        book = _book_with_longest(16, 40, 3)
        syms = np.resize(np.flatnonzero(book.lengths),
                         3 * bitio.PACK_BLOCK + 7).astype(bad.dtype)
        syms[-5] = bad[0]
        with pytest.raises(CodecError,
                           match="^symbol out of codebook range$"):
            huffman.encode(syms, book)


class TestHostileChunkTable:
    """The chunk table is container metadata: every lie in it must end in
    ``CodecError`` before anything is sized by it."""

    @pytest.mark.parametrize("tamper", [
        lambda e: replace(e, chunk_symbols=np.array([-5])),
        lambda e: replace(e, chunk_symbols=np.array([-5]), count=-5),
        lambda e: replace(e, chunk_bits=np.array([-8])),
        lambda e: replace(e, chunk_symbols=np.array([1 << 40])),
        lambda e: replace(e, chunk_symbols=np.array([1 << 40]),
                          count=1 << 40),
        # a code is at least one bit
        lambda e: replace(e, chunk_symbols=e.chunk_bits + 1,
                          count=int(e.chunk_bits[0]) + 1),
        lambda e: replace(e, chunk_bits=e.chunk_bits + 8 * len(e.payload)),
        lambda e: replace(e, chunk_bits=np.array([1 << 62])),
        lambda e: replace(e, chunk_bits=np.repeat(e.chunk_bits, 2),
                          chunk_symbols=np.repeat(e.chunk_symbols, 2),
                          count=2 * e.count),
        lambda e: replace(e, chunk_bits=np.repeat(e.chunk_bits, 2)),
        lambda e: replace(e, chunk_symbols=np.zeros(0, dtype=np.int64)),
        lambda e: replace(e, max_len=0),
        lambda e: replace(e, max_len=25),
        lambda e: replace(e, max_len=60),
    ])
    def test_rejected_as_codec_error(self, tamper):
        _, enc = _encoded_stream()
        with pytest.raises(CodecError):
            huffman.decode(tamper(enc))

    def test_trailing_payload_bytes_are_ignored(self):
        syms, enc = _encoded_stream()
        padded = replace(enc, payload=enc.payload + b"\xff\xff")
        np.testing.assert_array_equal(huffman.decode(padded), syms)


def _stream(rng: np.random.Generator, alphabet: str, max_len: int,
            n: int, spread: float, deep: bool) -> tuple[np.ndarray, np.ndarray]:
    """Random symbols and the histogram their codebook is built from.

    ``spread`` runs from one dominant symbol (about one bit per symbol)
    to a flat distribution over up to 4096 symbols (about twelve);
    ``deep`` skews the histogram exponentially so codes reach ``max_len``.
    """
    bins = {"one": 1, "two": 2,
            "many": min(1 << max_len, 3 + int(spread ** 2 * 4093))}[alphabet]
    p = np.exp(-np.arange(bins) / (0.3 + spread * bins))
    syms = rng.choice(bins, size=n, p=p / p.sum()).astype(np.uint32)
    counts = np.bincount(syms, minlength=bins).astype(np.int64)
    if deep:
        counts <<= np.minimum(np.arange(bins), 40)
    return syms, counts


def _reference_or_codec_error(enc: huffman.HuffmanEncoded) -> None:
    """A stream the decoder accepts decodes as the bit-serial reference
    does; anything else is a ``CodecError``, never another exception."""
    try:
        out = huffman.decode(enc)
    except CodecError:
        return
    np.testing.assert_array_equal(out, huffman.decode_serial_reference(enc))


class TestSegmentSweepAgainstReference:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           alphabet=st.sampled_from(["one", "two", "many"]),
           max_len=st.sampled_from([8, 12, 16, 20]),
           n=st.integers(1, 5000), spread=st.floats(0.0, 1.0),
           deep=st.booleans(), chunks=st.sampled_from([1, 2, 3, 7]),
           as_view=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_decode_matches_reference_or_rejects(
            self, seed, alphabet, max_len, n, spread, deep, chunks, as_view):
        rng = np.random.default_rng(seed)
        syms, counts = _stream(rng, alphabet, max_len, n, spread, deep)
        book = huffman.build_codebook(counts, max_len=max_len)
        enc = huffman.encode(syms, book, chunk=-(-n // chunks))
        if as_view:     # the compiled decode plan hands over section views
            enc = replace(enc, payload=memoryview(enc.payload))
        out = huffman.decode(enc)
        np.testing.assert_array_equal(out, syms)
        np.testing.assert_array_equal(out,
                                      huffman.decode_serial_reference(enc))

        which = int(rng.integers(enc.chunk_bits.size))
        flipped = bytearray(enc.payload)
        flipped[int(rng.integers(len(flipped)))] ^= 1 << int(rng.integers(8))
        _reference_or_codec_error(replace(enc, payload=bytes(flipped)))
        _reference_or_codec_error(replace(enc, payload=enc.payload[:-1]))
        for delta in (-8, -1, 1, 8):
            bits = enc.chunk_bits.copy()
            bits[which] += delta
            _reference_or_codec_error(replace(enc, chunk_bits=bits))
        for delta in (-1, 1):
            nsyms = enc.chunk_symbols.copy()
            nsyms[which] += delta
            _reference_or_codec_error(replace(enc, chunk_symbols=nsyms,
                                              count=enc.count + delta))

    @staticmethod
    def _two_length_book() -> huffman.Codebook:
        # symbol 0 -> "0", 1 -> "10", 2 -> "110", 3 -> "111"
        return huffman.Codebook(lengths=np.array([1, 2, 3, 3]), max_len=8)

    @pytest.mark.parametrize("nbits", [1, 5, 63])
    def test_chunk_shorter_than_one_segment(self, nbits):
        syms = np.zeros(nbits, dtype=np.uint32)         # one bit each
        enc = huffman.encode(syms, self._two_length_book())
        assert int(enc.chunk_bits[0]) == nbits < huffman._segment_bits(nbits)
        np.testing.assert_array_equal(huffman.decode(enc), syms)

    @pytest.mark.parametrize("segments", [1, 2, 64])
    def test_chunk_an_exact_multiple_of_the_segment(self, segments):
        nbits = 512 * segments
        assert huffman._segment_bits(nbits) == 512
        syms = np.zeros(nbits - 2, dtype=np.uint32)
        syms[-1] = 3                    # three bits, ending flush with nbits
        enc = huffman.encode(syms, self._two_length_book())
        assert int(enc.chunk_bits[0]) == nbits
        np.testing.assert_array_equal(huffman.decode(enc), syms)
        _reference_or_codec_error(replace(enc, chunk_bits=enc.chunk_bits - 1))

    @pytest.mark.parametrize("inside", [1, 2])
    def test_final_code_straddles_the_last_segment_boundary(self, inside):
        # the last segment holds nothing but the final code's last bits
        nbits = 512 * 3 + inside
        syms = np.zeros(nbits - 2, dtype=np.uint32)
        syms[-1] = 2                                    # three bits
        enc = huffman.encode(syms, self._two_length_book())
        assert int(enc.chunk_bits[0]) == nbits
        assert huffman._segment_bits(nbits) == 512
        np.testing.assert_array_equal(huffman.decode(enc), syms)
        # the same bytes with the final code cut short, or one symbol more
        # than the bits hold, are refused
        for bits, nsyms in ((nbits - inside, syms.size),
                            (nbits, syms.size + 1)):
            with pytest.raises(CodecError):
                huffman.decode(replace(
                    enc, chunk_bits=np.array([bits]),
                    chunk_symbols=np.array([nsyms]), count=nsyms))

    def test_unknown_window_off_the_true_parse_is_not_read(self):
        # codes 00, 01, 10; no code starts with 11
        book = huffman.Codebook(lengths=np.array([2, 2, 2]), max_len=8)
        good = huffman.encode(np.array([0, 1, 0, 1, 0], dtype=np.uint32), book)
        np.testing.assert_array_equal(huffman.decode(good), [0, 1, 0, 1, 0])
        # 01 10 ...: bit 1 reads 11, but every code starts on an even bit
        odd = huffman.encode(np.array([1, 2, 0, 0, 0], dtype=np.uint32), book)
        np.testing.assert_array_equal(huffman.decode(odd), [1, 2, 0, 0, 0])
        # the six padding bits of the last byte are outside the stream
        payload = bytearray(good.payload)
        payload[-1] |= 0x01
        np.testing.assert_array_equal(
            huffman.decode(replace(good, payload=bytes(payload))),
            [0, 1, 0, 1, 0])

    @pytest.mark.parametrize("code", [0, 700, 1999])
    def test_unknown_window_at_a_true_code_start_is_refused(self, code):
        book = huffman.Codebook(lengths=np.array([2, 2, 2]), max_len=8)
        syms = np.random.default_rng(code).integers(0, 3, 2000)
        enc = huffman.encode(syms.astype(np.uint32), book)
        assert int(enc.chunk_bits[0]) == 4000 > 4 * huffman._segment_bits(4000)
        bits = np.unpackbits(np.frombuffer(enc.payload, dtype=np.uint8))
        bits[2 * code:2 * code + 2] = 1                 # 11 at a code start
        bad = replace(enc, payload=np.packbits(bits).tobytes())
        with pytest.raises(CodecError, match="unknown code window"):
            huffman.decode(bad)

    def test_segment_length_follows_the_bit_count(self):
        assert huffman._segment_bits(1) == 512
        assert huffman._segment_bits(1 << 14) == 512      # four lead-ins
        assert huffman._segment_bits(1 << 20) == 512      # sqrt / 2
        assert huffman._segment_bits(1 << 22) == 1024
        assert huffman._segment_bits(1 << 24) == 2048
        assert huffman._segment_bits(1 << 40) == 2048

    def test_position_dtype_widens_at_its_limit(self, monkeypatch):
        # chunks near 2**31 bits walk int64 positions; run that path,
        # re-walks and exit table included, on small chunks
        limit = (1 << 31) - (1 << 17)
        assert huffman._position_dtype(limit - 1) is np.int32
        assert huffman._position_dtype(limit) is np.int64
        monkeypatch.setattr(huffman, "_position_dtype", lambda nbits: np.int64)
        for syms, enc in (_encoded_stream(), _misaligned_run_stream(),
                          _unsynchronisable_stream(5000)):
            np.testing.assert_array_equal(huffman.decode(enc), syms)

    def test_decode_span_reports_the_iteration_shape(self, rng):
        syms = rng.integers(0, 64, 10000).astype(np.uint32)
        enc = huffman.encode(syms, huffman.build_codebook(_hist(syms, 64)),
                             chunk=6000)
        prev = set_telemetry(True)
        try:
            with GLOBAL_TRACER.capture() as records:
                huffman.decode(enc)
        finally:
            set_telemetry(prev)
        attrs = next(r.attrs for r in records
                     if r.name == "kernel.huffman.decode")
        # each is the maximum over the chunks
        widths = [huffman._segment_bits(int(b)) for b in enc.chunk_bits]
        assert attrs["segment_bits"] == max(widths)
        assert attrs["segments"] == max(
            -(-int(b) // t) for b, t in zip(enc.chunk_bits, widths))
        # every code is at least one bit: a lane reaches its segment
        # within the lead-in's steps and empties it within T more
        assert 0 < attrs["walk_steps"] <= (attrs["segment_bits"]
                                           + huffman._LEAD_IN)


#: 00, 01, 10, 110, 111: a parse one bit off inside a run of 01 codes reads
#: 10 10 10 ... and stays off for as long as the run lasts
_RUN_BOOK = huffman.Codebook(lengths=np.array([2, 2, 2, 3, 3]), max_len=8)


def _misaligned_run_stream() -> tuple[np.ndarray, huffman.HuffmanEncoded]:
    """Random codes with a run of ``01`` codes over the start of segment 2
    that begins on an odd bit, so the lead-in of lane 2 (which starts on
    an even bit) is out of step when it reaches the segment."""
    T = 512
    assert huffman._segment_bits(3000) == T
    rng = np.random.default_rng(11)
    lengths = _RUN_BOOK.lengths.astype(int)
    syms = []
    while sum(lengths[syms]) < 2 * T - huffman._LEAD_IN - 40:
        syms.append(int(rng.integers(0, 5)))
    if sum(lengths[syms]) % 2 == 0:
        syms.append(3)                                  # three bits
    while sum(lengths[syms]) < 2 * T + 40:
        syms.append(1)
    syms += rng.integers(0, 5, 600).tolist()
    syms = np.asarray(syms, dtype=np.uint32)
    return syms, huffman.encode(syms, _RUN_BOOK)


def _unsynchronisable_stream(n: int) -> tuple[np.ndarray, huffman.HuffmanEncoded]:
    """``110`` and then ``01`` n times: every lead-in starts on an even bit
    and reads ``10`` from there on, so no lane falls into step by itself."""
    syms = np.ones(n + 1, dtype=np.uint32)
    syms[0] = 3
    return syms, huffman.encode(syms, _RUN_BOOK)


def _assert_lies_are_refused(enc: huffman.HuffmanEncoded, seed: int) -> None:
    """Flipped payload bits and re-sealed chunk tables decode as the
    reference does, or end in ``CodecError``."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        flipped = bytearray(enc.payload)
        flipped[int(rng.integers(len(flipped)))] ^= 1 << int(rng.integers(8))
        _reference_or_codec_error(replace(enc, payload=bytes(flipped)))
    for delta in (-8, -1, 1, 8):
        _reference_or_codec_error(replace(enc, chunk_bits=enc.chunk_bits + delta))
    for delta in (-1, 1):
        _reference_or_codec_error(replace(
            enc, chunk_symbols=enc.chunk_symbols + delta,
            count=enc.count + delta))


class TestResynchronisingWalk:
    """Every path of the lock-step walker against the bit-serial
    reference: lanes that fall into step in their lead-in, lanes walked
    again from their predecessor's exit, and the exit table."""

    @staticmethod
    def _decode(enc: huffman.HuffmanEncoded) -> tuple[np.ndarray, dict]:
        return _with_span_attrs("kernel.huffman.decode",
                                lambda: huffman.decode(enc))

    @pytest.mark.parametrize("width", [3, 5])
    def test_fixed_length_books_are_never_walked_again(self, width):
        # every code start is a multiple of g = width, and so is every
        # lane's start: each lead-in is in step from its first code
        book = huffman.Codebook(lengths=np.full(1 << width, width), max_len=8)
        syms = np.random.default_rng(width).integers(
            0, 1 << width, 20000).astype(np.uint32)
        enc = huffman.encode(syms, book)
        out, attrs = self._decode(enc)
        np.testing.assert_array_equal(out, syms)
        np.testing.assert_array_equal(out, huffman.decode_serial_reference(enc))
        assert attrs["segments"] > 1
        assert attrs["rewalked_lanes"] == attrs["exit_table_lanes"] == 0
        _assert_lies_are_refused(enc, width)

    def test_misaligned_run_across_a_boundary_is_walked_again(self):
        syms, enc = _misaligned_run_stream()
        out, attrs = self._decode(enc)
        np.testing.assert_array_equal(out, syms)
        np.testing.assert_array_equal(out, huffman.decode_serial_reference(enc))
        assert attrs["rewalked_lanes"] > 0
        assert attrs["exit_table_lanes"] == 0
        _assert_lies_are_refused(enc, 2)

    def test_stream_no_lead_in_resynchronises_uses_the_exit_table(self):
        syms, enc = _unsynchronisable_stream(20000)
        out, attrs = self._decode(enc)
        np.testing.assert_array_equal(out, syms)
        np.testing.assert_array_equal(out, huffman.decode_serial_reference(enc))
        assert attrs["rewalked_lanes"] > 0
        assert attrs["exit_table_lanes"] > 0
        _assert_lies_are_refused(enc, 3)

    def test_decode_span_sums_the_repairs_over_chunks(self):
        syms, enc = _unsynchronisable_stream(20000)
        _, one = self._decode(enc)
        twice = replace(enc, payload=enc.payload * 2, count=2 * enc.count,
                        chunk_symbols=np.tile(enc.chunk_symbols, 2),
                        chunk_bits=np.tile(enc.chunk_bits, 2))
        out, both = self._decode(twice)
        np.testing.assert_array_equal(out, np.tile(syms, 2))
        for key in ("rewalked_lanes", "exit_table_lanes"):
            assert both[key] == 2 * one[key]
        for key in ("segments", "segment_bits", "walk_steps"):
            assert both[key] == one[key]

    @pytest.mark.parametrize("bins", [(1 << 24) - 1, 1 << 24])
    def test_symbols_next_to_the_unknown_marker_decode(self, bins):
        # 2**24 - 1 in the symbol field of a 32-bit table value marks an
        # unknown window, so a book that wide has 64-bit values
        lengths = np.zeros(bins, dtype=np.uint8)
        lengths[[0, 5, lengths.size - 2, lengths.size - 1]] = 2
        book = huffman.Codebook(lengths=lengths, max_len=8)
        syms = np.random.default_rng(4).choice(
            np.flatnonzero(lengths), 3000).astype(np.uint32)
        enc = huffman.encode(syms, book)
        np.testing.assert_array_equal(huffman.decode(enc), syms)
