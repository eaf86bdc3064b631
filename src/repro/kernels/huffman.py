"""Canonical Huffman codec with chunked, segment-parallel decoding.

This models cuSZ's Huffman stage faithfully in structure:

* **Length-limited optimal codebook** via the package-merge algorithm
  (max code length 16 by default), built from a histogram supplied by one
  of the :mod:`repro.kernels.histogram` modules.
* **Canonical code assignment** so the codebook serialises as one byte of
  code length per symbol.
* **Coarse-grained chunking**: symbols are encoded in independent,
  byte-aligned chunks (as cuSZ does for its GPU codec) so chunks can be
  decoded concurrently and memory stays bounded; a chunk is packed a
  cache-sized block of symbols at a time (:mod:`repro.kernels.bitio`).
* **Segment-sweep decoder**: a chunk's bit range is cut into segments of
  ``T`` bits (``T`` derived from the chunk's bit count), which become
  lanes advanced in lock-step.  The code length at *every* bit offset
  comes from eight shifted gathers through the ``max_len``-bit decode
  table; one backward sweep of ``T`` gathers then tells, for every offset
  a chain could enter a segment at, where it enters the next one, a
  scalar walk over the segments picks the true entries, and a forward
  walk of all segments from those entries (at most ``T`` gathers) visits
  every code start.  Exact — no speculation, no re-synchronisation — and
  the Python-level step count is about ``2 * T + segments``, not the
  symbol count.  This is the NumPy analogue of cuSZ's many coarse lanes.

Encoding and decoding are exact inverses for arbitrary symbol streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..obs.spans import span
from ..runtime.threads import active_threads, run_slabs
from .bitio import PACK_BLOCK, pack_blocks, unpack_windows

#: Default maximum code length; keeps the decode table at 2**16 entries.
DEFAULT_MAX_LEN = 16

#: Default symbols per chunk (cuSZ-style coarse grains).
DEFAULT_CHUNK = 1 << 20


def _leaves(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live symbols sorted by ``(count, symbol)``, and their counts."""
    sym = np.flatnonzero(counts)
    if sym.size == 0:
        raise CodecError("cannot build a codebook from an empty histogram")
    order = sym[np.argsort(counts[sym], kind="stable")]
    return order, counts[order]


def _huffman_lengths_unbounded(counts: np.ndarray) -> np.ndarray:
    """Classic Huffman code lengths (no length limit).

    Used only to decide whether package-merge is needed; zero-count
    symbols get length 0.
    """
    order, leaves = _leaves(counts)
    n = order.size
    # Two queues, each in order: the sorted leaves, and the merges as they
    # are made (their weights never decrease).  The lighter head, the leaf
    # on a tie, is what a heap keyed (weight, leaves by symbol < merges by
    # age) pops: the merge order every container so far was built with.
    weight = leaves.tolist() + [math.inf] * n
    parent = [0] * (2 * n - 1)
    leaf, merge = 0, n                      # the heads of the two queues
    for node in range(n, 2 * n - 1):
        total = 0
        for _ in range(2):
            if leaf < n and weight[leaf] <= weight[merge]:
                child, leaf = leaf, leaf + 1
            else:
                child, merge = merge, merge + 1
            parent[child] = node
            total += weight[child]
        weight[node] = total
    # a merge is younger than its children: one pass from the root down
    # (a lone symbol is its own root's child, and gets its one bit)
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, n - 1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.zeros(counts.size, dtype=np.int64)
    lengths[order] = np.asarray(depth)[parent[:n]] + 1
    return lengths


def package_merge_lengths(counts: np.ndarray, max_len: int) -> np.ndarray:
    """Optimal length-limited code lengths (package-merge, boundary form).

    Returns an array of code lengths (0 for zero-count symbols) satisfying
    the Kraft inequality with ``max(lengths) <= max_len``.

    Level 1 is the leaves sorted by ``(count, symbol)``; the next level is
    the leaves merged with the pairwise sums ("packages") of this one, a
    leaf before a package of equal weight.  The ``2n - 2`` lightest items
    of the last level are the solution, and a leaf's length is the number
    of them it occurs in.  Packages keep the order they were made in, so
    what is chosen at a level is a prefix of it: ``take`` items, ``c`` of
    them leaves (the lightest: one more bit each), the rest packages, made
    of the first ``2 * (take - c)`` items below.  Only that boundary is
    carried down; no package is ever expanded.
    """
    order, leaves = _leaves(np.asarray(counts, dtype=np.int64))
    n = order.size
    lengths = np.zeros(len(counts), dtype=np.int64)
    if n == 1:
        lengths[order] = 1
        return lengths
    if n > (1 << max_len):
        raise CodecError(f"{n} symbols cannot be coded with max length {max_len}")
    # a package holds a leaf at most once per level below its own
    if sum(leaves.tolist()) * (max_len - 1) >= 1 << 63:
        raise CodecError("histogram counts too large for package-merge")

    level = leaves
    is_leaf = []
    for _ in range(max_len - 1):
        paired = level[:level.size & ~1]
        items = np.concatenate((leaves, paired[0::2] + paired[1::2]))
        merged = np.argsort(items, kind="stable")
        level = items[merged]
        is_leaf.append(merged < n)
    take = 2 * n - 2
    chosen = []
    for leaf_at in reversed(is_leaf):
        chosen.append(int(np.count_nonzero(leaf_at[:take])))
        take = 2 * (take - chosen[-1])
    chosen.append(take)         # level 1 holds nothing but leaves
    lengths[order] = (np.arange(n) < np.array(chosen)[:, None]).sum(axis=0)
    return lengths


@dataclass
class Codebook:
    """Canonical Huffman codebook.

    ``lengths[s] == 0`` marks symbols absent from the stream.  Codes are
    assigned canonically (sorted by ``(length, symbol)``), so the whole book
    serialises as the lengths array alone.
    """

    lengths: np.ndarray
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        if self.lengths.ndim != 1:
            raise CodecError("codebook lengths must be 1-D")
        if self.lengths.size and int(self.lengths.max()) > self.max_len:
            raise CodecError("codebook length exceeds max_len")
        # Kraft inequality check for any non-trivial book.
        nz = self.lengths[self.lengths > 0].astype(np.int64)
        if nz.size:
            kraft = float((2.0 ** (-nz.astype(np.float64))).sum())
            if kraft > 1.0 + 1e-9:
                raise CodecError(f"codebook violates Kraft inequality ({kraft})")

    @property
    def num_bins(self) -> int:
        return int(self.lengths.size)

    def _tiling(self, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coded symbols in canonical ``(length, symbol)`` order, their
        lengths, and how many ``bits``-bit windows each one's code prefixes.
        In that order the codes tile the windows from 0 up."""
        order = np.argsort(self.lengths, kind="stable")
        order = order[np.count_nonzero(self.lengths == 0):]
        ln = self.lengths[order].astype(np.int64)
        return order, ln, np.left_shift(1, bits - ln)

    @property
    def codes(self) -> np.ndarray:
        """Canonical code value per symbol (``uint32``, right-aligned)."""
        top = int(self.lengths.max(initial=0))
        if top > 32:
            raise CodecError("canonical codes are at most 32 bits")
        codes = np.zeros(self.lengths.size, dtype=np.uint32)
        order, ln, span = self._tiling(top)
        codes[order] = (np.cumsum(span) - span) >> (top - ln)
        return codes

    def decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense decode tables indexed by a ``max_len``-bit window.

        ``table_sym[w]`` is the symbol whose code prefixes window ``w``;
        ``table_len[w]`` its code length (0 for windows reachable only past
        the end of a stream).
        """
        tsym = np.zeros(1 << self.max_len, dtype=np.uint32)
        tlen = np.zeros(1 << self.max_len, dtype=np.uint8)
        order, ln, span = self._tiling(self.max_len)
        covered = int(span.sum())
        tsym[:covered] = np.repeat(order.astype(np.uint32), span)
        tlen[:covered] = np.repeat(ln.astype(np.uint8), span)
        return tsym, tlen


def build_codebook(counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN
                   ) -> Codebook:
    """Build an optimal length-limited canonical codebook from a histogram."""
    counts = np.asarray(counts, dtype=np.int64)
    with span("kernel.huffman.build_codebook", bins=int(counts.size),
              bytes_in=int(counts.nbytes)) as sp:
        lengths = _huffman_lengths_unbounded(counts)
        limited = int(lengths.max()) > max_len
        if limited:
            lengths = package_merge_lengths(counts, max_len)
        book = Codebook(lengths=lengths, max_len=max_len)
        sp.set(bytes_out=int(book.lengths.nbytes),
               symbols=int(np.count_nonzero(lengths)), limited=limited,
               longest=int(lengths.max()))
        return book


@dataclass(frozen=True)
class HuffmanEncoded:
    """A Huffman-encoded symbol stream.

    Attributes
    ----------
    payload:
        concatenation of byte-aligned chunk payloads.
    chunk_symbols / chunk_bits:
        per-chunk symbol counts and meaningful bit counts (chunks start at
        byte boundaries: chunk ``i`` begins at byte
        ``sum(ceil(chunk_bits[:i] / 8))``).
    count:
        total number of symbols.
    lengths:
        codebook serialisation (code length per symbol).
    max_len:
        codebook length limit.
    """

    payload: bytes
    chunk_symbols: np.ndarray
    chunk_bits: np.ndarray
    count: int
    lengths: np.ndarray
    max_len: int

    def nbytes(self) -> int:
        """Serialised footprint (payload + tables + codebook)."""
        return (len(self.payload) + self.chunk_symbols.nbytes
                + self.chunk_bits.nbytes + self.lengths.nbytes)


def encode_empty(num_bins: int, max_len: int = DEFAULT_MAX_LEN
                 ) -> HuffmanEncoded:
    """The canonical encoding of an empty symbol stream (no codebook).

    Predictors can legitimately emit zero codes (e.g. a one-element field
    where the single value is an interpolation anchor); encoders must
    round-trip that case.
    """
    return HuffmanEncoded(payload=b"",
                          chunk_symbols=np.zeros(0, dtype=np.int64),
                          chunk_bits=np.zeros(0, dtype=np.int64),
                          count=0,
                          lengths=np.zeros(num_bins, dtype=np.uint8),
                          max_len=max_len)


def encode(symbols: np.ndarray, book: Codebook,
           chunk: int = DEFAULT_CHUNK) -> HuffmanEncoded:
    """Encode a symbol array with a canonical codebook, in chunks."""
    symbols = np.ascontiguousarray(np.asarray(symbols).reshape(-1))
    with span("kernel.huffman.encode", symbols=int(symbols.size),
              bytes_in=int(symbols.nbytes)) as sp:
        if symbols.size and int(symbols.max()) >= book.num_bins:
            raise CodecError("symbol out of codebook range")
        # masking the table masks every code gathered from it
        codes_lut = book.codes.astype(np.uint64)
        codes_lut &= (np.uint64(1) << book.lengths) - np.uint64(1)

        def pack_chunk(start: int) -> tuple[bytes, int, int]:
            part = symbols[start:start + chunk]

            def fetch(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
                block = part[lo:hi]
                width = book.lengths.take(block)
                if int(width.min()) == 0:
                    raise CodecError(
                        "stream contains a symbol absent from the histogram")
                return codes_lut.take(block), width

            payload, nbits = pack_blocks(part.size, book.max_len, fetch)
            return payload, part.size, nbits

        starts = range(0, symbols.size, chunk)
        budget = active_threads()
        if budget > 1:
            # chunks are independent by format (byte-aligned, own bit
            # counts): pack them concurrently on the slab pool and splice
            # in chunk order — byte-identical to the serial loop
            packed = run_slabs(pack_chunk, starts, threads=budget)
        else:
            packed = [pack_chunk(start) for start in starts]
        parts = [payload for payload, _, _ in packed]
        csyms = [nsyms for _, nsyms, _ in packed]
        cbits = [nbits for _, _, nbits in packed]
        enc = HuffmanEncoded(payload=b"".join(parts),
                             chunk_symbols=np.asarray(csyms, dtype=np.int64),
                             chunk_bits=np.asarray(cbits, dtype=np.int64),
                             count=int(symbols.size),
                             lengths=book.lengths.copy(),
                             max_len=book.max_len)
        sp.set(bytes_out=len(enc.payload),
               blocks=sum(-(-nsyms // PACK_BLOCK) for nsyms in csyms))
        return enc


def _segment_bits(nbits: int) -> int:
    """Segment length for a chunk of ``nbits``: the power of two nearest
    ``sqrt(nbits) / 2``, within [64, 2048].

    A chunk costs about ``2 * T`` vectorised steps over ``nbits / T``
    lanes plus a scalar walk over the lanes; the square root balances the
    per-step call overhead against the per-lane one.
    """
    return 1 << min(max(round(math.log2(nbits) / 2) - 1, 6), 11)


def _index_dtype(cells: int) -> type[np.signedinteger]:
    """Narrowest index dtype for a table of ``cells`` entries."""
    return np.int32 if cells <= np.iinfo(np.int32).max else np.int64


def _decode_chunk(payload: bytes, nbits: int, nsyms: int,
                  tsym: np.ndarray, tlen: np.ndarray, max_len: int
                  ) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Segment-sweep decode of one chunk.

    The caller has checked ``nsyms <= nbits``, ``max_len <= 24`` and that
    ``payload`` holds ``ceil(nbits / 8)`` bytes.  Returns the symbols and
    ``(segments, segment_bits, walk_steps)``.
    """
    if nsyms == 0:
        return np.zeros(0, dtype=np.uint32), (0, 0, 0)
    T = _segment_bits(nbits)
    S = -(-nbits // T)
    seg_bytes = T // 8
    nbytes = (nbits + 7) // 8
    # Tables are laid out (offset in segment, segment): one row holds the
    # same offset of every segment, so a lock-step move of all segments is
    # one gather over near-contiguous memory.
    raw = np.zeros((S + 1) * seg_bytes, dtype=np.uint8)     # zero past the end
    raw[:nbytes] = np.frombuffer(payload, dtype=np.uint8, count=nbytes)
    raw = raw.reshape(S + 1, seg_bytes)
    byte_at = np.empty((seg_bytes + 3, S), dtype=np.uint8)
    byte_at[:seg_bytes] = raw[:S].T
    byte_at[seg_bytes:] = raw[1:, :3].T     # look-ahead into the next segment
    # word[j, s]: the 32 bits starting at byte j of segment s, big-endian
    word = byte_at[:seg_bytes].astype(np.uint32)
    for ahead in (1, 2, 3):
        word <<= np.uint32(8)
        word |= byte_at[ahead:seg_bytes + ahead]
    del raw, byte_at
    mask = np.uint32((1 << max_len) - 1)

    # lens[o, s]: length of the code starting at bit o of segment s
    lens = np.empty((seg_bytes, 8, S), dtype=np.uint8)
    window = np.empty_like(word)
    row = np.empty(word.shape, dtype=np.uint8)
    for bit in range(8):
        np.right_shift(word, np.uint32(32 - max_len - bit), out=window)
        window &= mask
        lens[:, bit, :] = tlen.take(window, out=row, mode="clip")
    del window, row
    lens = lens.reshape(T, S)
    tail = nbits - (S - 1) * T      # offsets of the last segment in the chunk
    lens[tail:, -1] = 1             # padding: any length but "unknown"
    if int(lens.min()) == 0:
        raise CodecError("corrupt Huffman stream: unknown code window")

    # nxt[o, s]: flat index of the code after the one at (o, s).  Rows T..
    # mean "left the segment, at offset o - T of the next one" and loop on
    # themselves, so a finished segment stands still.
    idx = _index_dtype((T + max_len) * S)
    left = T * S
    nxt = np.zeros((T + max_len) * S, dtype=idx)
    np.multiply(lens.reshape(-1), idx(S), out=nxt[:left], dtype=idx)
    nxt += np.arange(nxt.size, dtype=idx)
    nxt_at = nxt.reshape(T + max_len, S)
    nxt_at[tail:T, -1] = left       # padding offsets leave at once

    # Backward sweep: leave[o, s] is the offset at which a chain entering
    # segment s at offset o enters segment s + 1.
    leave = np.empty((T + max_len, S), dtype=np.uint8)
    leave[T:] = np.arange(max_len, dtype=np.uint8)[:, None]
    leave_flat = leave.reshape(-1)
    for o in range(T - 1, -1, -1):
        leave_flat.take(nxt_at[o], out=leave[o], mode="clip")
    # a code is at most max_len bits, so a segment is entered below max_len
    head = leave[:max_len].tolist()
    del leave, leave_flat
    entry = np.empty(S, dtype=idx)
    enter = 0
    for s in range(S):
        entry[s] = enter
        enter = head[enter][s]

    # Forward walk of every segment from its true entry, in lock-step;
    # every code is at least one bit, so T steps empty every segment.
    trail = np.empty((T + 1, S), dtype=idx)
    trail[0] = entry * idx(S) + np.arange(S, dtype=idx)
    steps = 0
    while int(trail[steps].min()) < left:
        nxt.take(trail[steps], out=trail[steps + 1], mode="clip")
        steps += 1
    visited = trail[:steps].T       # segment-major: stream order
    at = visited[visited < left]
    del trail, visited, nxt, nxt_at
    # ``at`` may end with one padding offset, reached by a code that ran
    # to or past the chunk's end; it is never among the first nsyms of a
    # well-formed chunk.
    if at.size < nsyms:
        raise CodecError("Huffman stream too short for symbol count")
    at = at[:nsyms]
    offset = at // idx(S)
    segment = at - offset * idx(S)
    last = int(segment[-1]) * T + int(offset[-1])
    if last >= nbits:
        raise CodecError("Huffman stream too short for symbol count")
    if last + int(lens[offset[-1], segment[-1]]) != nbits:
        raise CodecError("Huffman chunk bit-length mismatch")
    byte = offset >> 3
    byte *= idx(S)
    byte += segment
    window = word.reshape(-1)[byte]
    offset &= 7
    window >>= np.uint32(32 - max_len) - offset.astype(np.uint32)
    window &= mask
    return tsym[window], (S, T, steps)


def _chunk_table(enc: HuffmanEncoded) -> list[tuple[int, int, int, int]]:
    """``(byte offset, bytes, bits, symbols)`` per chunk, checked against
    the payload and the declared count before anything is sized by it."""
    if not 1 <= enc.max_len <= 24:
        raise CodecError("Huffman max_len must be in [1, 24]")
    csyms = [int(n) for n in enc.chunk_symbols]
    cbits = [int(n) for n in enc.chunk_bits]
    if len(csyms) != len(cbits):
        raise CodecError("Huffman chunk tables differ in length")
    # a code is at least one bit, so a chunk holds at most nbits symbols
    if any(not 0 <= nsyms <= nbits for nsyms, nbits in zip(csyms, cbits)):
        raise CodecError("corrupt Huffman chunk table")
    if sum(csyms) != enc.count:
        raise CodecError("decoded symbol count mismatch")
    entries = []
    offset = 0
    for nsyms, nbits in zip(csyms, cbits):
        nbytes = (nbits + 7) // 8
        entries.append((offset, nbytes, nbits, nsyms))
        offset += nbytes
    if offset > len(enc.payload):
        raise CodecError("Huffman payload shorter than its chunk table")
    return entries


def decode(enc: HuffmanEncoded) -> np.ndarray:
    """Decode a :class:`HuffmanEncoded` stream back to symbols (uint32)."""
    with span("kernel.huffman.decode", symbols=int(enc.count),
              bytes_in=len(enc.payload)) as sp:
        entries = _chunk_table(enc)
        tsym, tlen = Codebook(lengths=enc.lengths,
                              max_len=enc.max_len).decode_tables()

        def decode_one(entry: tuple[int, int, int, int]
                       ) -> tuple[np.ndarray, tuple[int, int, int]]:
            off, nbytes, nbits, nsyms = entry
            return _decode_chunk(enc.payload[off:off + nbytes], nbits,
                                 nsyms, tsym, tlen, enc.max_len)

        budget = active_threads()
        if budget > 1:
            # chunk boundaries are known up front (byte-aligned starts from
            # the bit-count table), so chunks decode concurrently;
            # concatenation in chunk order keeps the symbol stream
            # identical to the serial loop
            done = run_slabs(decode_one, entries, threads=budget)
        else:
            done = [decode_one(entry) for entry in entries]
        out = [symbols for symbols, _ in done]
        result = np.concatenate(out) if out else np.zeros(0, dtype=np.uint32)
        segments, segment_bits, walk_steps = (
            max((shape[i] for _, shape in done), default=0) for i in range(3))
        sp.set(bytes_out=int(result.nbytes), segments=segments,
               segment_bits=segment_bits, walk_steps=walk_steps)
        return result


def decode_serial_reference(enc: HuffmanEncoded) -> np.ndarray:
    """Bit-by-bit reference decoder (tests cross-check the parallel path)."""
    book = Codebook(lengths=enc.lengths, max_len=enc.max_len)
    tsym, tlen = book.decode_tables()
    out = np.empty(enc.count, dtype=np.uint32)
    pos = 0
    offset = 0
    for nsyms, nbits in zip(enc.chunk_symbols, enc.chunk_bits):
        nbytes = (int(nbits) + 7) // 8
        windows = unpack_windows(enc.payload[offset:offset + nbytes],
                                 int(nbits), enc.max_len)
        offset += nbytes
        p = 0
        for _ in range(int(nsyms)):
            w = int(windows[p])
            out[pos] = tsym[w]
            p += int(tlen[w])
            pos += 1
    return out


def expected_bits(counts: np.ndarray, book: Codebook) -> int:
    """Exact encoded size in bits for a stream with histogram ``counts``."""
    return int((counts.astype(np.int64) * book.lengths.astype(np.int64)).sum())
