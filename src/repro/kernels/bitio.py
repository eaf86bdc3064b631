"""Vectorised bit-stream packing/unpacking helpers.

Every codec in :mod:`repro.kernels` works on whole arrays at a time, never
value-by-value, following the data-parallel formulation of the GPU kernels
they model.  This module provides the shared primitives:

* :func:`pack_varlen` / :func:`unpack_windows` — pack per-symbol variable
  length codes into a byte stream (the core of the Huffman encoder, which
  hands :func:`pack_blocks` runs of codes merged into elements of up to
  63 bits: one shifted 64-bit word per element, OR-reduced per output
  word) and read a fixed-width window at *every* bit offset of a stream
  (what the bit-serial reference Huffman decoder walks; the lock-step
  decoder in :mod:`repro.kernels.huffman` reads its windows from a 32-bit
  word at every byte offset instead).

All functions operate on little-endian *bit order within a byte being MSB
first* (``np.packbits`` convention), which keeps round-trips exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import CodecError


#: Codes (for the Huffman encoder: merged groups of codes) per pass of
#: :func:`pack_blocks`; derived, not a knob: the small end of the flat
#: part, where a block's temporaries stay in L2.  A 983 k chunk of
#: 2.5-bit codes, one per element (2 cores, 4 MiB L2), packed in 22 ms at
#: 2**12 a block, 17 at 2**13, 14-15 at 2**14, 13-14 to 2**18, 18-19 as
#: one block.
PACK_BLOCK = 1 << 14


def pack_blocks(count: int, max_width: int,
                fetch: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
                ) -> tuple[bytes, int]:
    """:func:`pack_varlen` for ``count`` codes fetched a block at a time.

    ``fetch(lo, hi)`` returns the codes of ``[lo, hi)``, each masked to
    its width, as a fresh ``uint64`` array (it is shifted in place) and the
    widths, which it has checked to be in ``[1, 63]``; ``max_width``
    bounds them and sizes the output.

    Every code is shifted until its last bit is in place in the 64-bit
    word it ends in, and the codes ending in one word are OR-reduced into
    it.  A code is at most 63 bits, so some code ends in every word and
    only the first of them can have begun in the word before: its leading
    bits fall off the top of the shift and are ORed into that word on
    their own (the spill).  Blocks OR into one zeroed word array at the
    running bit offset, so a seam is just a word two blocks touch.
    """
    u32, u64 = np.uint32, np.uint64
    words = np.zeros((count * max_width + 63) // 64, dtype=u64)
    total_bits = 0
    for lo in range(0, count, PACK_BLOCK):
        value, width = fetch(lo, min(lo + PACK_BLOCK, count))
        # bit offsets count from the start of the word the block begins in
        ends = np.cumsum(width, dtype=u32)
        ends += u32(total_bits & 63)
        word_of = (ends - u32(1)) >> u32(6)
        first = np.flatnonzero(word_of[1:] != word_of[:-1]) + 1
        first = np.concatenate((np.zeros(1, dtype=first.dtype), first))
        # no spill from a code that did not straddle: it is < 2**inside
        inside = ends[first] - (word_of[first] << u32(6))
        spill = value[first] >> np.minimum(inside, u32(63))
        value <<= np.negative(ends) & u32(63)
        begin, last = int(word_of[0]), int(word_of[-1])
        out = words[total_bits >> 6:][:last + 1]
        out[begin:] |= np.bitwise_or.reduceat(value, first)
        # begin == 1: the block's first code began in the word before
        out[:last] |= spill[1 - begin:]
        total_bits += int(ends[-1]) - (total_bits & 63)
    payload = words[:(total_bits + 63) // 64].astype(">u8").view(np.uint8)
    return payload[:(total_bits + 7) // 8].tobytes(), total_bits


def pack_varlen(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length codes into a packed byte string.

    Parameters
    ----------
    codes:
        ``uint32`` array; element ``i`` holds the code value for symbol ``i``
        right-aligned (only the low ``lengths[i]`` bits are meaningful).
    lengths:
        per-symbol bit lengths, ``1 <= lengths[i] <= 32``.

    Returns
    -------
    (payload, total_bits):
        the packed bytes (zero-padded to a byte boundary) and the exact
        number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint32)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape or codes.ndim != 1:
        raise CodecError("codes and lengths must be 1-D arrays of equal shape")
    if lengths.size and (int(lengths.min()) < 1 or int(lengths.max()) > 32):
        raise CodecError("code lengths must be in [1, 32]")

    def fetch(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        width = lengths[lo:hi]
        value = codes[lo:hi].astype(np.uint64)
        value &= (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)
        return value, width

    return pack_blocks(codes.size, 32, fetch)


def unpack_windows(payload: bytes, total_bits: int, width: int) -> np.ndarray:
    """Read a ``width``-bit big-endian window starting at *every* bit offset.

    Returns a ``uint32`` array ``w`` of length ``total_bits`` where ``w[p]``
    is the value of bits ``p .. p+width-1`` of the stream (bits past the end
    read as zero).  A decode table indexed by ``w[p]`` yields the symbol
    and code length at offset ``p`` for all ``p`` simultaneously;
    :func:`repro.kernels.huffman.decode_serial_reference` walks it one
    symbol at a time.
    """
    if width < 1 or width > 24:
        raise CodecError("window width must be in [1, 24]")
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint32)
    raw = np.frombuffer(payload, dtype=np.uint8)
    # Pad so every window read of ceil((width+7)/8)+1 bytes is in bounds.
    need = (total_bits + 7) // 8 + 4
    if raw.size < need:
        raw = np.concatenate([raw, np.zeros(need - raw.size, dtype=np.uint8)])
    b = raw.astype(np.uint64)
    byte0 = np.arange(total_bits, dtype=np.int64) // 8
    bit0 = np.arange(total_bits, dtype=np.int64) % 8
    # Assemble a 32-bit big-endian word starting at byte0, then shift so the
    # requested window lands in the low `width` bits.
    word = (b[byte0] << np.uint64(24)) | (b[byte0 + 1] << np.uint64(16)) \
        | (b[byte0 + 2] << np.uint64(8)) | b[byte0 + 3]
    win = (word >> (np.uint64(32 - width) - bit0.astype(np.uint64))) \
        & np.uint64((1 << width) - 1)
    return win.astype(np.uint32)
