"""Bit-plane shuffle (FZ-GPU / PFPL building block).

Bitshuffle transposes the bit matrix of a block of fixed-width integers so
that bit *i* of every value in the block becomes contiguous.  After zigzag
mapping, small residuals have all-zero high bit planes, so the shuffled
stream contains long zero runs that the dictionary/zero-elimination stages
remove.  The transform is lossless and self-inverse up to padding.

The transpose never expands a bit to a byte.  The values are split into
byte planes (most significant byte first), every run of eight plane bytes
— eight consecutive values — is read as one little-endian ``uint64`` and
that 8x8 bit matrix is flipped about its anti-diagonal by three masked
delta-swaps (:func:`_flip`, the word-parallel form of FZ-GPU's warp-ballot
transpose); one byte-level transpose then puts the plane bytes where the
format wants them: plane 0 is the MSB plane, and the first value of a
block sits in bit 7 of a plane's first byte.  ``docs/PERFORMANCE.md`` §6
has the derivation and the measurements.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..obs.spans import span

#: Values per shuffle block.  4096 values x 16 bits -> 16 planes of 512 B.
BLOCK_VALUES = 4096

# Bit ``8*r + c`` of a word is row ``r`` (the value), column ``c`` (the bit
# of its plane byte).  The flip sends (r, c) to (7-c, 7-r) in three rounds
# of ``(shift, mask)``: swap the two 4x4 quadrants the anti-diagonal does
# not cross (bit distance 4*8 + 4), then the same for the 2x2 tiles inside
# every quadrant (2*8 + 2) and for the bits inside every tile (8 + 1); a
# mask selects the upper partner of each exchanged pair.
_FLIP_ROUNDS = ((36, np.uint64(0xF0F0F0F000000000)),
                (18, np.uint64(0xCCCC0000CCCC0000)),
                (9, np.uint64(0xAA00AA00AA00AA00)))

# Words flipped per pass: the slab and its one scratch array (256 KiB each)
# stay in L2 across the eighteen passes.  245 760 words, 2 cores: 2.2 ms as
# one slab, 1.5 at 2**13, 1.15 at 2**15..2**16, 1.4 at 2**17.
_FLIP_WORDS = 1 << 15

# the integer type of the same width and the other signedness
_UNSIGNED_OF = {np.dtype(np.int16): np.uint16, np.dtype(np.int32): np.uint32,
                np.dtype(np.int64): np.uint64}
_SIGNED_OF = {np.dtype(np.uint16): np.int16, np.dtype(np.uint32): np.int32,
              np.dtype(np.uint64): np.int64}


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,... -> 0,1,2,3,...

    Small-magnitude residuals map to small unsigned values, which is what
    makes bit planes sparse.  ``int16``/``int32``/``int64`` input maps to
    the unsigned type of the same width; anything else goes through
    ``int64``.
    """
    v = np.asarray(values)
    if v.dtype not in _UNSIGNED_OF:
        v = v.astype(np.int64)
    # the result is the array allocated last (here and in unzigzag):
    # freeing the older temporary leaves the top of the heap alone, where
    # freeing the newer one has glibc trim it and fault the pages back in
    # on the next call (0.9 -> 2.4 ms on 983 k int32 values)
    doubled = v << 1
    out = v >> (8 * v.dtype.itemsize - 1)
    out ^= doubled
    return out.view(_UNSIGNED_OF[v.dtype])


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`: ``uint16``/``uint32``/``uint64`` input
    maps to the signed type of the same width, anything else goes through
    ``uint64``."""
    v = np.asarray(values)
    if v.dtype not in _SIGNED_OF:
        v = v.astype(np.uint64)
    halved = v >> 1
    out = (v & 1).view(_SIGNED_OF[v.dtype])
    np.negative(out, out=out)
    out ^= halved.view(out.dtype)
    return out


def _uint_dtype(width_bits: int) -> type:
    if width_bits == 16:
        return np.uint16
    if width_bits == 32:
        return np.uint32
    raise CodecError("bitshuffle supports 16- or 32-bit values")


def _as_uint(values: np.ndarray, width_bits: int) -> np.ndarray:
    dt = _uint_dtype(width_bits)
    v = np.asarray(values)
    if v.dtype == dt:
        return v
    if v.size and int(v.max(initial=0)) >> width_bits:
        raise CodecError(f"value does not fit in {width_bits} bits")
    return v.astype(dt)


def shuffled_size(count: int, width_bits: int = 16,
                  block: int = BLOCK_VALUES) -> int:
    """Bytes :func:`shuffle` emits for ``count`` values: whole blocks of
    ``width_bits`` planes.  ``CodecError`` for an unsupported width, a
    negative count, or a block that is not a positive multiple of 8 (a
    plane row must end on a byte)."""
    _uint_dtype(width_bits)
    if count < 0:
        raise CodecError("bitshuffle value count must be >= 0")
    if block <= 0 or block % 8:
        raise CodecError("bitshuffle block must be a positive multiple of 8")
    return -(-count // block) * block * (width_bits // 8)


def _flip(words: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Flip every ``uint64`` of ``words``, read as an 8x8 bit matrix, about
    its anti-diagonal, in place.  An involution: shuffle and unshuffle
    share it.  ``scratch``, when given, holds at least
    ``min(words.size, _FLIP_WORDS)`` words."""
    if scratch is None:
        scratch = np.empty(min(words.size, _FLIP_WORDS), dtype=np.uint64)
    for start in range(0, words.size, _FLIP_WORDS):
        x = words[start:start + _FLIP_WORDS]
        t = scratch[:x.size]
        for shift, upper in _FLIP_ROUNDS:
            # t = the pairs that differ, at the upper partner's position
            np.left_shift(x, shift, out=t)
            t ^= x
            t &= upper
            x ^= t
            t >>= shift
            x ^= t


def _planes(v: np.ndarray, block: int, planes: np.ndarray,
            scratch: np.ndarray | None = None) -> np.ndarray:
    """The shuffle of the low byte planes of ``v``, as a view of
    ``planes``.

    ``planes`` is a C-contiguous ``uint8`` array of ``rows`` rows, each a
    whole number of blocks and at least ``v.size`` long.  It is
    overwritten with the ``rows`` least significant byte planes of ``v``,
    most significant first and zero past ``v.size``, then flipped
    (``scratch`` goes to :func:`_flip`).  The view is shaped ``(blocks,
    rows, 8, block // 8)``; with a row per byte of the shuffle width, it
    is the byte stream :func:`shuffle` emits, read in C order.
    """
    rows, padded = planes.shape
    for row in range(rows):
        np.right_shift(v, 8 * (rows - 1 - row), out=planes[row, :v.size],
                       casting="unsafe")
    planes[:, v.size:] = 0
    _flip(planes.reshape(-1).view("<u8"), scratch)
    # a flipped word holds one byte of each of 8 planes: gather every
    # plane's bytes of a block into one row
    return planes.reshape(rows, padded // block, block // 8, 8
                          ).transpose(1, 0, 3, 2)


def _values(shuffled: np.ndarray, planes: np.ndarray, values: np.ndarray,
            scratch: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_planes`: ``values`` from the low byte planes
    ``shuffled`` holds, a ``(blocks, rows, 8, block // 8)`` view of
    shuffled bytes.  ``values`` is unsigned, at least ``rows`` bytes wide
    and has the padded count; ``planes`` is a C-contiguous ``uint8``
    scratch of ``shuffled.size`` bytes.  Returns ``values``."""
    nblocks, rows, _, row_bytes = shuffled.shape
    # One plane at a time: eight long strided copies run twice as fast as
    # one transposing copy whose inner loop is the 8 bytes of a word.
    planes = planes.reshape(rows, nblocks, row_bytes, 8)
    for bit in range(8):
        planes[..., bit] = shuffled[:, :, bit].transpose(1, 0, 2)
    _flip(planes.reshape(-1).view("<u8"), scratch)
    planes = planes.reshape(rows, -1)
    np.copyto(values, planes[0])
    for row in planes[1:]:
        values <<= 8
        values |= row
    return values


def shuffle(values: np.ndarray, width_bits: int = 16,
            block: int = BLOCK_VALUES) -> bytes:
    """Bit-plane shuffle a 1-D unsigned integer array into bytes.

    The array is zero-padded to a multiple of ``block`` values; callers must
    remember the true count to undo the padding (see :func:`unshuffle`).
    """
    v = _as_uint(values, width_bits).reshape(-1)
    lanes = width_bits // 8
    padded = shuffled_size(v.size, width_bits, block) // lanes
    if not padded:
        return b""
    with span("kernel.bitshuffle.shuffle", values=int(v.size),
              width=width_bits, blocks=padded // block,
              bytes_in=int(v.nbytes), bytes_out=padded * lanes):
        # a fresh buffer: the flip never runs on the caller's array
        planes = np.empty((lanes, padded), dtype=np.uint8)
        return _planes(v, block, planes).tobytes()


def unshuffle(payload: bytes, count: int, width_bits: int = 16,
              block: int = BLOCK_VALUES) -> np.ndarray:
    """Inverse of :func:`shuffle`; returns the first ``count`` values."""
    expect = shuffled_size(count, width_bits, block)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size != expect:
        raise CodecError(f"bitshuffle payload size {raw.size}, expected {expect}")
    dt = _uint_dtype(width_bits)
    if count == 0:
        return np.zeros(0, dtype=dt)
    lanes = width_bits // 8
    nblocks = expect // (lanes * block)
    with span("kernel.bitshuffle.unshuffle", values=int(count),
              width=width_bits, blocks=nblocks, bytes_in=expect,
              bytes_out=int(count) * lanes):
        # fresh buffers again (``payload`` may be read-only)
        planes = np.empty(expect, dtype=np.uint8)
        values = np.empty(expect // lanes, dtype=dt)
        return _values(raw.reshape(nblocks, lanes, 8, block // 8), planes,
                       values)[:count]
