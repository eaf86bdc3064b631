"""The generic lossless backend: stdlib DEFLATE (the zstd-role codec).

The paper's optional fourth stage is a zstd pass.  zstd is not part of
the standard library; CPython's ``zlib`` is — LZ77 plus canonical
Huffman, in C — so it fills the same role here, at one fixed level.
DEFLATE falls back to stored blocks by itself, so there is no mode byte.

Layout: ``u64 decoded length | zlib stream``.  The declared length caps
the inflate, so a stream that expands past it is refused without being
inflated.
"""

from __future__ import annotations

import struct
import zlib

from ..errors import CodecError

#: zlib's default trade of speed for ratio
LEVEL = 6

_LEN = struct.Struct("<Q")


def compress(data: bytes) -> bytes:
    """Length prefix plus one zlib stream of ``data``."""
    return _LEN.pack(len(data)) + zlib.compress(data, LEVEL)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`; anything else is a :class:`CodecError`."""
    if len(blob) < _LEN.size:
        raise CodecError("deflate stream shorter than its length prefix")
    (n,) = _LEN.unpack_from(blob)
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(memoryview(blob)[_LEN.size:], n + 1)
    except (zlib.error, OverflowError) as exc:  # Overflow: n + 1 > ssize_t
        raise CodecError(f"corrupt deflate stream: {exc}") from None
    if (not inflater.eof or inflater.unused_data
            or inflater.unconsumed_tail or len(out) != n):
        raise CodecError("deflate stream does not hold exactly the declared "
                         "length")
    return out
