"""Canonical Huffman codec with chunked, segment-parallel decoding.

This models cuSZ's Huffman stage faithfully in structure:

* **Length-limited optimal codebook** via the package-merge algorithm
  (max code length 16 by default), built from a histogram supplied by one
  of the :mod:`repro.kernels.histogram` modules.
* **Canonical code assignment** so the codebook serialises as one byte of
  code length per symbol.
* **Coarse-grained chunking**: symbols are encoded in independent,
  byte-aligned chunks (as cuSZ does for its GPU codec) so chunks can be
  decoded concurrently and memory stays bounded; a chunk's codes are
  merged ``63 // L`` to an element (``L`` the longest code) and packed a
  cache-sized block of elements at a time (:mod:`repro.kernels.bitio`).
* **Resynchronising lock-step decoder**: a chunk's bit range is cut into
  segments of ``T`` bits (``T`` derived from the chunk's bit count), one
  lane each, and all lanes step together: a step reads every lane's
  window from a 32-bit word of the payload and makes one gather through
  a ``symbol << 8 | length`` table sized by the book's longest code.
  Where a segment is entered is not stored; a lane finds it.  It starts
  128 bits early, on a multiple of the gcd of the code lengths, and a
  parse started at the wrong bit falls into step with the true one
  within a few codes.  Every entry is checked: a lane must enter where
  the lane before it exits, and lane 0 enters at bit 0.  A lane that
  does not is walked again from its predecessor's exit; a stream no
  lead-in resynchronises goes through a bounded exit table.  Exact, the
  container bytes are the encoder's alone, and the Python-level step
  count is about ``T + 128``, not the symbol count: the NumPy analogue
  of cuSZ's many coarse lanes.

Encoding and decoding are exact inverses for arbitrary symbol streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """Encode a symbol array with a canonical codebook, in chunks.

    Every run of ``group = 63 // L`` codes (``L`` the book's longest code)
    is merged into one element of at most 63 bits, and the packer works
    on those: ``1 / group`` of the element-ops per symbol, same bytes.
    """
    symbols = np.ascontiguousarray(np.asarray(symbols).reshape(-1))
    with span("kernel.huffman.encode", symbols=int(symbols.size),
              bytes_in=int(symbols.nbytes)) as sp:
        # ``take`` bounds-checks every unsigned symbol that fits an
        # ``intp``, but counts a negative one back from the end
        if (symbols.size and (symbols.dtype.kind != "u"
                              or not np.can_cast(symbols.dtype, np.intp))
                and (int(symbols.min()) < 0
                     or int(symbols.max()) >= book.num_bins)):
            raise CodecError("symbol out of codebook range")
        longest = int(book.lengths.max(initial=0))
        group = 63 // max(longest, 1)
        # masking the table masks every code gathered from it
        codes_lut = book.codes.astype(np.uint64)
        codes_lut &= (np.uint64(1) << book.lengths) - np.uint64(1)
        # an absent symbol's width overflows any group it is in, so one
        # max over the merged widths finds it
        width_lut = book.lengths.astype(np.uint16)
        width_lut[book.lengths == 0] = 64

        def merge(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Row ``j`` of ``index`` holds code ``j`` of every group;
            each column becomes one element of the codes in order."""
            index = index.astype(np.intp, order="C", casting="same_kind")
            try:
                value, width = codes_lut.take(index), width_lut.take(index)
            except IndexError:
                raise CodecError("symbol out of codebook range") from None
            # copies, so the gathered rows are freed before the packer runs
            merged, widths = value[0].copy(), width[0].copy()
            for j in range(1, index.shape[0]):
                merged <<= width[j]
                merged |= value[j]
                widths += width[j]
            return merged, widths

        def pack_chunk(start: int) -> tuple[bytes, int, int]:
            part = symbols[start:start + chunk]

            def fetch(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
                block = part[lo * group:hi * group]
                full = block.size - block.size % group
                merged, widths = merge(block[:full].reshape(-1, group).T)
                if full < block.size:
                    # the chunk's last group is short: fewer rows
                    last = merge(block[full:, None])
                    merged = np.concatenate((merged, last[0]))
                    widths = np.concatenate((widths, last[1]))
                if int(widths.max()) > 63:
                    raise CodecError(
                        "stream contains a symbol absent from the histogram")
                return merged, widths

            payload, nbits = pack_blocks(-(-part.size // group),
                                         group * longest, fetch)
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
        sp.set(bytes_out=len(enc.payload), group=group,
               blocks=sum(-(-nsyms // (group * PACK_BLOCK))
                          for nsyms in csyms))
        return enc


#: Bits of lead-in a lane walks, keeping no rows, before its own segment.
#: A parse started at the wrong bit falls into step with the true one
#: within a few codes, so a lane that starts ``_LEAD_IN`` bits early almost
#: always meets its segment on a true code start.  Every lane pays for
#: it, so it is a constant: at the floor of ``_segment_bits`` it is a
#: fifth of a lane's steps.
_LEAD_IN = 128

#: Lock-step steps between checks whether every lane is past its end.
_CHECK_EVERY = 16

#: Rounds of re-walking disagreeing lanes before the exit table.  One
#: round repairs every lane of the bench fields that needs it; a stream
#: that needs more is one no lead-in resynchronises, and the exit table
#: bounds its cost.
_REWALK_ROUNDS = 4


def _segment_bits(nbits: int) -> int:
    """Segment length for a chunk of ``nbits``: the power of two nearest
    ``sqrt(nbits) / 2``, within [512, 2048].

    A chunk costs about ``T`` lock-step steps over ``nbits / T`` lanes;
    the square root balances the per-step call overhead against the
    per-lane work, and the floor of four lead-ins keeps the lead-in a
    small share of a lane's walk.
    """
    return 1 << min(max(round(math.log2(nbits) / 2) - 1, 9), 11)


def _position_dtype(nbits: int) -> type[np.signedinteger]:
    """Dtype of the walk's bit positions for a chunk of ``nbits``.

    A lane takes at most ``T <= 2048`` steps of at most 48 bits past its
    entry, so positions stay below ``nbits + 2**17``.
    """
    return np.int32 if nbits < (1 << 31) - (1 << 17) else np.int64


@dataclass(frozen=True)
class _StepTable:
    """One gather per step: ``value[window]`` is ``symbol << 8 | length``
    of the code the ``top``-bit window starts with.

    ``top`` is the longest code in the book and ``g`` the gcd of its code
    lengths, so every true code start is a multiple of ``g``.  A window no code prefixes reads ``unknown | (top +
    g)``: a lane on a false parse keeps moving, by a multiple of ``g``, and
    a true code start that reads one is found among the decoded values.
    """

    value: np.ndarray
    top: int
    g: int
    unknown: int

    @classmethod
    def of(cls, book: Codebook) -> "_StepTable":
        lengths = book.lengths
        live = np.unique(lengths[lengths > 0]).astype(np.int64)
        if live.size == 0:
            raise CodecError("corrupt Huffman stream: unknown code window")
        top = int(live[-1])
        g = int(np.gcd.reduce(live))
        # the symbol field must leave room for the ``unknown`` marker
        dtype = np.uint32 if lengths.size < 1 << 24 else np.uint64
        unknown = (np.iinfo(dtype).max >> 8) << 8
        order, ln, span = book._tiling(top)
        value = np.full(1 << top, unknown | (top + g), dtype=dtype)
        code = order.astype(dtype) << dtype(8)
        code |= ln.astype(dtype)
        value[:int(span.sum())] = np.repeat(code, span)
        return cls(value, top, g, unknown)


def _words(payload: bytes, nbits: int, udt: type[np.unsignedinteger]
           ) -> np.ndarray:
    """The payload as a big-endian 32-bit word at every byte offset, in
    the top bits of a ``udt`` word (zero past the end)."""
    nbytes = (nbits + 7) // 8
    raw = np.zeros(nbytes + 3, dtype=np.uint8)
    raw[:nbytes] = np.frombuffer(payload, dtype=np.uint8, count=nbytes)
    words = np.ndarray((nbytes,), dtype=">u4", buffer=raw,
                       strides=(1,)).astype(udt)
    words <<= udt(8 * words.itemsize - 32)
    return words


class _Walked(NamedTuple):
    """What :func:`_walk` saw, ``K`` rows of it, one column per lane."""

    #: table values of the codes read, ``(K, lanes)``
    val: np.ndarray
    #: whether each of those codes starts before its lane's end
    inside: np.ndarray
    #: where each lane first got to or past its end
    exits: np.ndarray
    #: how many codes each lane read before that
    count: np.ndarray
    #: lock-step steps taken (``K``, when rows are kept)
    steps: int


def _walk(words: np.ndarray, tab: _StepTable, starts: np.ndarray,
          ends: np.ndarray, rows: int = 0) -> _Walked:
    """Walk lanes in lock-step from ``starts`` until each is at or past
    its entry of ``ends``.

    Row ``k`` holds step ``k`` of every lane, so a step is one gather over
    contiguous memory; ``rows`` is the first guess at the steps, and with
    ``rows=0`` no rows are kept (only the exits and counts are wanted).
    A lane past its end keeps stepping: that is cheaper than masking it.
    Positions are kept for one block of steps only.
    """
    lanes = starts.size
    udt = words.dtype.type
    pdt = np.dtype(udt).str.replace("u", "i")
    cap = max(rows, _CHECK_EVERY)
    val = np.empty((cap, lanes), dtype=tab.value.dtype)
    inside = np.empty((cap, lanes), dtype=bool)
    pos = np.empty((_CHECK_EVERY + 1, lanes), dtype=pdt)
    pos[-1] = starts
    ends = ends.astype(pdt)
    exits = starts.astype(np.int64)
    count = np.zeros(lanes, dtype=np.intp)
    before = np.empty(lanes, dtype=np.uint8)
    row_of = np.empty(lanes, dtype=np.intp)
    column = np.arange(lanes)
    byte = np.empty(lanes, dtype=pdt)
    shift = np.empty(lanes, dtype=pdt)
    window = np.empty(lanes, dtype=udt)
    length = np.empty(lanes, dtype=udt)
    drop = udt(8 * window.itemsize - tab.top)
    k = 0
    while (pos[-1] < ends).any():
        row = k if rows else 0
        if row + _CHECK_EVERY > cap:
            # rows are the leading axis: growing is a realloc in place,
            # and no view of the old buffers is used past this point
            cap += cap // 4 + _CHECK_EVERY
            val.resize((cap, lanes), refcheck=False)
            inside.resize((cap, lanes), refcheck=False)
        pos[0] = pos[-1]
        for j in range(_CHECK_EVERY):
            at = pos[j]
            np.right_shift(at, 3, out=byte)
            words.take(byte, out=window, mode="clip")
            np.bitwise_and(at, 7, out=shift)
            np.left_shift(window, shift.view(udt), out=window)
            np.right_shift(window, drop, out=window)
            found = val[row + j]
            tab.value.take(window, out=found, mode="clip")
            np.bitwise_and(found, 255, out=length)
            np.add(at.view(udt), length, out=pos[j + 1].view(udt))
        block = inside[row:row + _CHECK_EVERY]
        np.less(pos[:-1], ends, out=block)
        # a lane inside at the block's start exits at its first position
        # not inside; one still inside gets the block's last position,
        # which a later block moves on
        np.sum(block.view(np.uint8), axis=0, out=before)
        count += before
        np.multiply(before, np.intp(lanes), out=row_of)
        row_of += column
        np.copyto(exits, pos.reshape(-1).take(row_of), where=block[0])
        k += _CHECK_EVERY
    if not rows:                        # let the scratch rows go
        val, inside = val[:0].copy(), inside[:0].copy()
    return _Walked(val[:k], inside[:k], exits, count, k)


class _Walks:
    """The walks of one chunk, and which one holds each lane's codes.

    Lane ``s`` owns the bits ``[s * T, hi[s])``.  A walk of it starts at
    its *entry*, a position in the segment, and its *exit* is the first
    position at or past ``hi[s]``.  Lane 0 enters at bit 0, so when every
    lane enters where the one before it exits, every walk is on the true
    parse and its codes inside the segment are the chunk's.
    """

    def __init__(self, lanes: int) -> None:
        self.entry = np.zeros(lanes, dtype=np.int64)
        self.exit = np.zeros(lanes, dtype=np.int64)
        self.owner = np.zeros(lanes, dtype=np.int64)
        self.walks: list[tuple[np.ndarray, _Walked] | None] = []

    def add(self, lanes: np.ndarray, entry: np.ndarray, walked: _Walked
            ) -> None:
        """Record a :func:`_walk` of ``lanes`` from ``entry``."""
        self.entry[lanes] = entry
        self.exit[lanes] = walked.exits
        self.owner[lanes] = len(self.walks)
        self.walks.append((lanes, walked))

    def disagreeing(self) -> np.ndarray:
        """Lanes that do not enter where the lane before them exits."""
        return np.flatnonzero(self.entry[1:] != self.exit[:-1]) + 1

    def values(self) -> np.ndarray:
        """Every lane's in-segment values, in lane (stream) order; the
        walks are let go one by one."""
        walks, self.walks = self.walks, []
        if len(walks) == 1:
            _, walked = walks.pop()
            return walked.val.T[walked.inside.T]
        # each walk gives the codes of the lanes it still owns, lane by
        # lane; cut them into runs of consecutive lanes and splice the runs
        # (a walk owns at least its lowest lane: a repair round walks the
        # lowest disagreeing lane from a settled exit, so it agrees for good)
        runs = []
        for i in range(len(walks)):
            lanes, (val, inside, _, count, _) = walks[i]
            walks[i] = None
            mine = self.owner[lanes] == i
            owned = lanes[mine]
            inside &= mine
            cut = np.flatnonzero(np.diff(owned) != 1) + 1
            pieces = np.split(val.T[inside.T], np.cumsum(count[mine])[cut - 1])
            runs += zip(owned[np.r_[0, cut]].tolist(), pieces)
        runs.sort(key=lambda run: run[0])
        return np.concatenate([piece for _, piece in runs])


def _decode_chunk(payload: bytes, nbits: int, nsyms: int, tab: _StepTable
                  ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Lock-step forward walk of one chunk.

    The caller has checked ``nsyms <= nbits`` and that ``payload`` holds
    ``ceil(nbits / 8)`` bytes.  Returns the symbols and ``(segments,
    segment_bits, walk_steps, rewalked_lanes, exit_table_lanes)``.
    """
    if nsyms == 0:
        return np.zeros(0, dtype=np.uint32), (0, 0, 0, 0, 0)
    T = _segment_bits(nbits)
    S = -(-nbits // T)
    udt = np.uint32 if _position_dtype(nbits) is np.int32 else np.uint64
    words = _words(payload, nbits, udt)
    lo = np.arange(S, dtype=np.int64) * T
    hi = np.minimum(lo + T, nbits)
    walks = _Walks(S)
    # rows for the codes of an average lane, and a margin
    rows = (nsyms * T // nbits) * 9 // 8 + _CHECK_EVERY
    # Lead-in: a lane starts on a multiple of g (only there can it fall
    # into step with the true parse) and walks to its segment.
    starts = np.maximum(lo - _LEAD_IN, 0) // tab.g * tab.g
    lead = _walk(words, tab, starts, lo)
    walked = _walk(words, tab, lead.exits, hi, rows)
    steps = lead.steps + walked.steps
    walks.add(np.arange(S), lead.exits, walked)
    del walked

    # Repair: walk every disagreeing lane again from its predecessor's
    # exit.  That makes it agree; if its exit moves, the lane after it
    # disagrees in the next round.
    rewalked = 0
    bad = walks.disagreeing()
    for _ in range(_REWALK_ROUNDS):
        if not bad.size:
            break
        entry = walks.exit[bad - 1]
        walks.add(bad, entry, _walk(words, tab, entry, hi[bad], rows))
        rewalked += bad.size
        bad = walks.disagreeing()

    table_lanes = 0
    if bad.size:
        # No lead-in resynchronises these lanes: from the first of them
        # on, find every segment's exit from each offset it can be
        # entered at (a code is at most ``top`` bits), follow the chain
        # of true entries through that table, and walk the lanes whose
        # entry it moves.
        rest = np.arange(bad[0], S)
        table_lanes = rest.size
        offsets = np.arange(tab.top)
        exits = _walk(words, tab, (lo[rest] + offsets[:, None]).ravel(),
                      np.tile(hi[rest], tab.top)).exits
        exits = (exits.reshape(tab.top, -1) - lo[rest]).T.tolist()
        true = np.empty(rest.size, dtype=np.int64)
        enter = int(walks.exit[rest[0] - 1])
        for i, base in enumerate(lo[rest].tolist()):
            true[i] = enter
            if enter - base >= tab.top:
                # only a code start that read an unknown window jumps
                # further than ``top`` bits past the segment's start
                raise CodecError("corrupt Huffman stream: unknown code window")
            enter = base + exits[i][enter - base]
        moved = true != walks.entry[rest]
        if moved.any():
            redo, entry = rest[moved], true[moved]
            walks.add(redo, entry, _walk(words, tab, entry, hi[redo], rows))

    del words
    found = walks.values()
    if found.size and int(found.max()) >= tab.unknown:
        raise CodecError("corrupt Huffman stream: unknown code window")
    if found.size != nsyms:
        raise CodecError("Huffman chunk symbol count mismatch")
    if walks.exit[-1] != nbits:
        raise CodecError("Huffman chunk bit-length mismatch")
    found >>= found.dtype.type(8)
    return (found.astype(np.uint32, copy=False),
            (S, T, steps, rewalked, table_lanes))


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
        book = Codebook(lengths=enc.lengths, max_len=enc.max_len)
        # sized by the longest code in the book, not the declared limit
        tab = _StepTable.of(book) if enc.count else None
        payload = memoryview(enc.payload)

        def decode_one(entry: tuple[int, int, int, int]
                       ) -> tuple[np.ndarray, tuple[int, ...]]:
            off, nbytes, nbits, nsyms = entry
            return _decode_chunk(payload[off:off + nbytes], nbits, nsyms, tab)

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
        stats = [shape for _, shape in done]
        segments, segment_bits, walk_steps = (
            max((shape[i] for shape in stats), default=0) for i in range(3))
        rewalked, exit_table = (sum(shape[i] for shape in stats)
                                for i in (3, 4))
        sp.set(bytes_out=int(result.nbytes), segments=segments,
               segment_bits=segment_bits, walk_steps=walk_steps,
               rewalked_lanes=rewalked, exit_table_lanes=exit_table)
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
