"""Canonical Huffman codec with chunked, segment-parallel decoding.

This models cuSZ's Huffman stage faithfully in structure:

* **Length-limited optimal codebook** via the package-merge algorithm
  (max code length 16 by default), built from a histogram supplied by one
  of the :mod:`repro.kernels.histogram` modules.
* **Canonical code assignment** so the codebook serialises as one byte of
  code length per symbol.
* **Coarse-grained chunking**: symbols are encoded in independent,
  byte-aligned chunks (as cuSZ does for its GPU codec) so chunks can be
  decoded concurrently and memory stays bounded.
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

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError
from ..obs.spans import span
from ..runtime.threads import active_threads, run_slabs
from .bitio import pack_varlen, unpack_windows
from .plancache import DECODE_TABLE_CACHE, digest

#: Default maximum code length; keeps the decode table at 2**16 entries.
DEFAULT_MAX_LEN = 16

#: Default symbols per chunk (cuSZ-style coarse grains).
DEFAULT_CHUNK = 1 << 20


def _huffman_lengths_unbounded(counts: np.ndarray) -> np.ndarray:
    """Classic heap-built Huffman code lengths (no length limit).

    Used only to decide whether package-merge is needed and in tests as a
    reference; zero-count symbols get length 0.
    """
    sym = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if sym.size == 0:
        raise CodecError("cannot build a codebook from an empty histogram")
    if sym.size == 1:
        lengths[sym[0]] = 1
        return lengths
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[s]), int(s), [int(s)]) for s in sym]
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


def package_merge_lengths(counts: np.ndarray, max_len: int) -> np.ndarray:
    """Optimal length-limited code lengths (package-merge).

    Returns an array of code lengths (0 for zero-count symbols) satisfying
    the Kraft inequality with ``max(lengths) <= max_len``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sym = np.flatnonzero(counts)
    n = sym.size
    if n == 0:
        raise CodecError("cannot build a codebook from an empty histogram")
    lengths = np.zeros(counts.size, dtype=np.int64)
    if n == 1:
        lengths[sym[0]] = 1
        return lengths
    if n > (1 << max_len):
        raise CodecError(f"{n} symbols cannot be coded with max length {max_len}")

    # Each item is (weight, frozenset-of-leaf-ids represented as a counter).
    # We track per-leaf multiplicity with integer arrays for speed.
    order = sym[np.argsort(counts[sym], kind="stable")]
    base_w = counts[order].astype(np.int64)

    # items at each level: list of (weight, leaf_multiplicity_vector_index)
    # To stay O(n * max_len) in memory we represent each package as an index
    # tree: (weight, left_child, right_child, leaf_id) with leaf_id >= 0 for
    # leaves.  Lengths = number of solution items containing each leaf.
    weights = list(base_w)
    lefts = [-1] * n
    rights = [-1] * n
    leaf_of = list(range(n))

    def make_package(a: int, b: int) -> int:
        weights.append(weights[a] + weights[b])
        lefts.append(a)
        rights.append(b)
        leaf_of.append(-1)
        return len(weights) - 1

    prev_level: list[int] = list(range(n))  # node ids, sorted by weight
    for _ in range(max_len - 1):
        packages = [make_package(prev_level[i], prev_level[i + 1])
                    for i in range(0, len(prev_level) - 1, 2)]
        merged = sorted(list(range(n)) + packages, key=lambda i: weights[i])
        prev_level = merged

    take = 2 * n - 2
    counts_per_leaf = np.zeros(n, dtype=np.int64)
    stack = list(prev_level[:take])
    while stack:
        node = stack.pop()
        lid = leaf_of[node]
        if lid >= 0:
            counts_per_leaf[lid] += 1
        else:
            stack.append(lefts[node])
            stack.append(rights[node])
    lengths[order] = counts_per_leaf
    if int(lengths.max()) > max_len:  # pragma: no cover - algorithmic guard
        raise CodecError("package-merge produced an over-long code")
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
    _codes: np.ndarray | None = field(default=None, repr=False)
    _table_sym: np.ndarray | None = field(default=None, repr=False)
    _table_len: np.ndarray | None = field(default=None, repr=False)

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

    @property
    def codes(self) -> np.ndarray:
        """Canonical code value per symbol (``uint32``, right-aligned)."""
        if self._codes is None:
            lengths = self.lengths.astype(np.int64)
            codes = np.zeros(lengths.size, dtype=np.uint32)
            order = np.lexsort((np.arange(lengths.size), lengths))
            order = order[lengths[order] > 0]
            code = 0
            prev_len = 0
            for s in order:
                ln = int(lengths[s])
                code <<= (ln - prev_len)
                codes[s] = code
                code += 1
                prev_len = ln
            self._codes = codes
        return self._codes

    def decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense decode tables indexed by a ``max_len``-bit window.

        ``table_sym[w]`` is the symbol whose code prefixes window ``w``;
        ``table_len[w]`` its code length (0 for windows reachable only past
        the end of a stream).
        """
        if self._table_sym is None:
            L = self.max_len
            tsym = np.zeros(1 << L, dtype=np.uint32)
            tlen = np.zeros(1 << L, dtype=np.uint8)
            lengths = self.lengths.astype(np.int64)
            codes = self.codes
            for s in np.flatnonzero(lengths):
                ln = int(lengths[s])
                lo = int(codes[s]) << (L - ln)
                hi = lo + (1 << (L - ln))
                tsym[lo:hi] = s
                tlen[lo:hi] = ln
            self._table_sym, self._table_len = tsym, tlen
        return self._table_sym, self._table_len


def build_codebook(counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN
                   ) -> Codebook:
    """Build an optimal length-limited canonical codebook from a histogram."""
    counts = np.asarray(counts, dtype=np.int64)
    with span("kernel.huffman.build_codebook", bins=int(counts.size),
              bytes_in=int(counts.nbytes)) as sp:
        unbounded = _huffman_lengths_unbounded(counts)
        if int(unbounded.max()) <= max_len:
            lengths = unbounded
        else:
            lengths = package_merge_lengths(counts, max_len)
        book = Codebook(lengths=lengths, max_len=max_len)
        sp.set(bytes_out=int(book.lengths.nbytes))
        return book


def warm_decode_book(lengths: np.ndarray, max_len: int) -> Codebook:
    """A :class:`Codebook` with canonical codes and dense decode tables
    already materialised, served from the plan cache.

    The ``2**max_len``-entry decode tables are the dominant per-call
    setup cost of :func:`decode`; keying them by the digest of the
    serialised lengths array means every container written with the same
    codebook (all shards of a shared-codebook run, every re-read of the
    same blob) shares one table pair.
    """
    def build() -> Codebook:
        # copy so a cached book never pins a caller's blob-backed view
        book = Codebook(lengths=np.array(lengths, dtype=np.uint8),
                        max_len=max_len)
        book.codes  # noqa: B018 - materialise the canonical codes
        book.decode_tables()
        return book

    key = (digest(np.ascontiguousarray(lengths)), int(max_len))
    return DECODE_TABLE_CACHE.get_or_build(
        key, build,
        nbytes=lambda book: int(book._table_sym.nbytes
                                + book._table_len.nbytes
                                + book.codes.nbytes + book.lengths.nbytes))


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
        lengths_lut = book.lengths.astype(np.int64)
        codes_lut = book.codes

        def pack_chunk(start: int) -> tuple[bytes, int, int]:
            part = symbols[start:start + chunk]
            lengths = lengths_lut[part]
            if int(lengths.min()) == 0:
                raise CodecError(
                    "stream contains a symbol absent from the histogram")
            payload, nbits = pack_varlen(codes_lut[part], lengths)
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
        sp.set(bytes_out=len(enc.payload))
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
        book = warm_decode_book(enc.lengths, enc.max_len)
        tsym, tlen = book.decode_tables()

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
