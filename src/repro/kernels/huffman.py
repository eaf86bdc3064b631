"""Canonical Huffman codec with chunked, wavefront-parallel decoding.

This models cuSZ's Huffman stage faithfully in structure:

* **Length-limited optimal codebook** via the package-merge algorithm
  (max code length 16 by default), built from a histogram supplied by one
  of the :mod:`repro.kernels.histogram` modules.
* **Canonical code assignment** so the codebook serialises as one byte of
  code length per symbol.
* **Coarse-grained chunking**: symbols are encoded in independent,
  byte-aligned chunks (as cuSZ does for its GPU codec) so chunks can be
  decoded concurrently and memory stays bounded.
* **Wavefront-doubling decoder**: within a chunk, a decode table indexed by
  the ``max_len``-bit window at *every* bit offset yields ``(symbol,
  length)`` for all offsets at once; the symbol boundary chain starting at
  offset 0 is then extracted with pointer doubling — ``ceil(log2(n))``
  vectorised gathers instead of a per-symbol loop.  This is the NumPy
  analogue of parallel-prefix Huffman decoding on GPUs.

Encoding and decoding are exact inverses for arbitrary symbol streams.
"""

from __future__ import annotations

import heapq
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

    The ``2**max_len``-entry wavefront tables are the dominant per-call
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
        if symbols.size and bool((lengths_lut[symbols] == 0).any()):
            raise CodecError("stream contains a symbol absent from the histogram")
        codes_lut = book.codes
        parts: list[bytes] = []
        csyms: list[int] = []
        cbits: list[int] = []
        starts = [s for s in range(0, max(symbols.size, 1), chunk)
                  if symbols[s:s + chunk].size]
        budget = active_threads()
        if budget > 1 and len(starts) > 1:
            # chunks are independent by format (byte-aligned, own bit
            # counts): pack them concurrently on the slab pool and splice
            # in chunk order — byte-identical to the serial loop
            def pack_chunk(start: int) -> tuple[bytes, int, int]:
                part = symbols[start:start + chunk]
                payload, nbits = pack_varlen(codes_lut[part], lengths_lut[part])
                return payload, part.size, nbits

            for payload, nsyms, nbits in run_slabs(pack_chunk, starts,
                                                   threads=budget):
                parts.append(payload)
                csyms.append(nsyms)
                cbits.append(nbits)
        else:
            for start in starts:
                part = symbols[start:start + chunk]
                payload, nbits = pack_varlen(codes_lut[part], lengths_lut[part])
                parts.append(payload)
                csyms.append(part.size)
                cbits.append(nbits)
        enc = HuffmanEncoded(payload=b"".join(parts),
                             chunk_symbols=np.asarray(csyms, dtype=np.int64),
                             chunk_bits=np.asarray(cbits, dtype=np.int64),
                             count=int(symbols.size),
                             lengths=book.lengths.copy(),
                             max_len=book.max_len)
        sp.set(bytes_out=len(enc.payload))
        return enc


def _decode_chunk(payload: bytes, nbits: int, nsyms: int,
                  tsym: np.ndarray, tlen: np.ndarray, max_len: int) -> np.ndarray:
    """Wavefront-doubling decode of one chunk."""
    if nsyms == 0:
        return np.zeros(0, dtype=np.uint32)
    if len(payload) < (nbits + 7) // 8:
        raise CodecError("Huffman chunk payload shorter than its bit length")
    windows = unpack_windows(payload, nbits, max_len)
    sym_at = tsym[windows]
    len_at = tlen[windows].astype(np.int64)
    if bool((len_at == 0).any()):
        raise CodecError("corrupt Huffman stream: unknown code window")
    # next[p] = bit offset of the following symbol; sentinel self-loop at end.
    jump = np.minimum(np.arange(nbits, dtype=np.int64) + len_at, nbits)
    jump = np.concatenate([jump, np.asarray([nbits], dtype=np.int64)])
    positions = np.empty(nsyms, dtype=np.int64)
    positions[0] = 0
    known = 1
    while known < nsyms:
        take = min(known, nsyms - known)
        positions[known:known + take] = jump[positions[:take]]
        known += take
        if known < nsyms:
            jump = jump[jump]  # next^(2k)
    if bool((positions >= nbits).any()):
        raise CodecError("Huffman stream too short for symbol count")
    out = sym_at[positions]
    end = positions[-1] + len_at[positions[-1]]
    if int(end) != nbits:
        raise CodecError("Huffman chunk bit-length mismatch")
    return out


def decode(enc: HuffmanEncoded) -> np.ndarray:
    """Decode a :class:`HuffmanEncoded` stream back to symbols (uint32)."""
    with span("kernel.huffman.decode", symbols=int(enc.count),
              bytes_in=len(enc.payload)) as sp:
        book = warm_decode_book(enc.lengths, enc.max_len)
        tsym, tlen = book.decode_tables()
        entries: list[tuple[int, int, int, int]] = []
        offset = 0
        for nsyms, nbits in zip(enc.chunk_symbols, enc.chunk_bits):
            nbytes = (int(nbits) + 7) // 8
            entries.append((offset, nbytes, int(nbits), int(nsyms)))
            offset += nbytes
        budget = active_threads()
        if budget > 1 and len(entries) > 1:
            # chunk boundaries are known up front (byte-aligned starts from
            # the bit-count table), so the wavefront decodes run
            # concurrently; concatenation in chunk order keeps the symbol
            # stream identical to the serial loop
            def decode_one(entry: tuple[int, int, int, int]) -> np.ndarray:
                off, nbytes, nbits, nsyms = entry
                return _decode_chunk(enc.payload[off:off + nbytes], nbits,
                                     nsyms, tsym, tlen, enc.max_len)

            out = run_slabs(decode_one, entries, threads=budget)
        else:
            out = [_decode_chunk(enc.payload[off:off + nbytes], nbits, nsyms,
                                 tsym, tlen, enc.max_len)
                   for off, nbytes, nbits, nsyms in entries]
        result = np.concatenate(out) if out else np.zeros(0, dtype=np.uint32)
        if result.size != enc.count:
            raise CodecError("decoded symbol count mismatch")
        sp.set(bytes_out=int(result.nbytes))
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
