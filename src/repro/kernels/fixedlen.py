"""Per-block fixed-length encoding (cuSZp2 construction).

cuSZp2 encodes zigzagged residuals block-by-block: each block stores one
bit-width byte (the smallest width holding every value of the block) plus
its values packed at that width.  All-zero blocks cost exactly one byte.
The scheme sacrifices entropy-optimality for a branch-free fused kernel —
the throughput-vs-ratio trade at the heart of Figure 1 vs Table 3.

The NumPy formulation packs *all* blocks of equal width together, so the
pass count is independent of the block count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError

#: Values per block (cuSZp2 uses 32-thread warps over 32-value blocks).
BLOCK_VALUES = 32


@dataclass(frozen=True)
class FixedLenEncoded:
    """A fixed-length-encoded stream.

    ``widths[b]`` is the bit width of block ``b``; ``payload`` concatenates
    the packed blocks in order (each block byte-aligned).
    """

    widths: bytes
    payload: bytes
    count: int
    block: int = BLOCK_VALUES

    def nbytes(self) -> int:
        """Serialised footprint (width table + packed payload)."""
        return len(self.widths) + len(self.payload)


def encode(values: np.ndarray, block: int = BLOCK_VALUES) -> FixedLenEncoded:
    """Encode non-negative integers (< 2**32) with per-block widths."""
    v = np.asarray(values).reshape(-1)
    if v.size and (int(v.min(initial=0)) < 0):
        raise CodecError("fixed-length encoding expects non-negative values")
    count = v.size
    v = v.astype(np.uint32)
    pad = (-count) % block
    if pad:
        v = np.concatenate([v, np.zeros(pad, dtype=np.uint32)])
    blocks = v.reshape(-1, block)
    maxima = blocks.max(axis=1)
    # bit width per block, vectorised bit_length.
    widths = np.zeros(maxima.size, dtype=np.uint8)
    nz = maxima > 0
    widths[nz] = np.floor(np.log2(maxima[nz].astype(np.float64))).astype(np.uint8) + 1

    # Pack every block at its width, grouped by width so each group is one
    # vectorised shift/pack, then scatter groups into the payload at the
    # per-block byte offsets (vectorised fancy-index store per group).
    bytes_per = (widths.astype(np.int64) * block + 7) // 8
    offsets = np.concatenate(([0], np.cumsum(bytes_per)))
    payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        grp = blocks[sel]  # (g, block)
        shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
        bits = ((grp[:, :, None] >> shifts[None, None, :]) & np.uint32(1)).astype(np.uint8)
        packed = np.packbits(bits.reshape(grp.shape[0], -1), axis=-1)
        nb = packed.shape[1]
        idx = offsets[sel][:, None] + np.arange(nb)[None, :]
        payload[idx] = packed
    return FixedLenEncoded(widths=widths.tobytes(), payload=payload.tobytes(),
                           count=count, block=block)


def decode(enc: FixedLenEncoded) -> np.ndarray:
    """Inverse of :func:`encode`; returns ``uint32`` values."""
    block = enc.block
    widths = np.frombuffer(enc.widths, dtype=np.uint8)
    padded = enc.count + ((-enc.count) % block)
    if widths.size != padded // block:
        raise CodecError("width table length mismatch")
    if widths.size and int(widths.max()) > 32:
        # encode never writes these: the values are uint32
        raise CodecError(
            f"fixed-length block width {int(widths.max())} exceeds 32 bits")
    bytes_per = (widths.astype(np.int64) * block + 7) // 8
    offsets = np.concatenate(([0], np.cumsum(bytes_per)))
    payload = np.frombuffer(enc.payload, dtype=np.uint8)
    if payload.size != int(offsets[-1]):
        raise CodecError("fixed-length payload size mismatch")
    out = np.zeros((widths.size, block), dtype=np.uint32)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        nb = int(bytes_per[sel[0]])
        # Gather the byte rows for all blocks of this width at once.
        idx = offsets[sel][:, None] + np.arange(nb)[None, :]
        rows = payload[idx]
        bits = np.unpackbits(rows, axis=-1)[:, :block * w]
        bits = bits.reshape(len(sel), block, w).astype(np.uint32)
        shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
        out[sel] = (bits << shifts[None, None, :]).sum(axis=2, dtype=np.uint32)
    return out.reshape(-1)[:enc.count]
