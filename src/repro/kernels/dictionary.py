"""Zero-word dictionary / elimination coder (FZ-GPU & PFPL last stage).

After zigzag + bitshuffle the byte stream is dominated by zero *words*.
This stage removes them with a hierarchical bitmap:

* level 0: the stream is split into fixed-size words (default 32 bytes, the
  granularity of FZ-GPU's warp-level compaction); a bitmap marks non-zero
  words, and only those are stored;
* level 1: the level-0 bitmap itself is mostly zero on smooth data, so its
  zero *bytes* are removed by a second bitmap.

The hierarchy is what lets the PFPL-style pipelines reach three-digit
compression ratios on near-constant fields (Nyx at eb=1e-2 in Table 3):
CR is then bounded by the level-1 bitmap, ``8 * 8 * word`` input bytes per
output bit, rather than by the flat bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..obs.spans import span

#: Word granularity for zero elimination (bytes).
WORD_BYTES = 32


@dataclass(frozen=True)
class ZeroEliminated:
    """Container for a zero-eliminated stream."""

    bitmap2: bytes      # bitmap over level-1 bytes of bitmap1
    bitmap1: bytes      # non-zero bytes of the word bitmap, compacted
    words: bytes        # non-zero words, compacted
    orig_len: int       # original stream length in bytes
    word_bytes: int = WORD_BYTES

    def nbytes(self) -> int:
        """Serialised footprint of the compacted stream."""
        return len(self.bitmap2) + len(self.bitmap1) + len(self.words)


def _word_dtype(word_bytes: int) -> np.dtype:
    """One word as one opaque element, so that a boolean mask moves whole
    words instead of rows of bytes (5x faster on 32-byte words)."""
    return np.dtype((np.void, word_bytes))


def eliminate(stream: bytes, word_bytes: int = WORD_BYTES,
              two_level: bool = True) -> ZeroEliminated:
    """Remove zero words from ``stream`` (lossless, see module docstring).

    ``two_level=False`` stores the word bitmap raw (``bitmap2 == b""``),
    matching the flat-bitmap design of the original FZ-GPU port used by the
    FZMod-Speed module — cheaper to produce, but it caps the achievable CR
    on near-constant data, which is why the paper's speed pipeline posts
    visibly lower ratios at loose bounds.
    """
    if word_bytes < 1:
        raise CodecError("word_bytes must be >= 1")
    data = np.frombuffer(stream, dtype=np.uint8)
    orig_len = data.size
    pad = (-data.size) % word_bytes
    if pad:
        data = np.concatenate([data, np.zeros(pad, dtype=np.uint8)])
    with span("kernel.dictionary.eliminate", words=data.size // word_bytes,
              bytes_in=orig_len) as sp:
        # a word is non-zero when any lane of its widest integer view is
        lane = next(size for size in (8, 4, 2, 1) if word_bytes % size == 0)
        lanes = data.view(f"<u{lane}").reshape(-1, word_bytes // lane).T
        nonzero = lanes[0] != 0
        for column in lanes[1:]:
            nonzero |= column != 0
        bitmap1_full = np.packbits(nonzero)
        kept_words = data.view(_word_dtype(word_bytes))[nonzero].tobytes()
        if two_level:
            nz_bytes = bitmap1_full != 0
            bitmap2 = np.packbits(nz_bytes).tobytes()
            bitmap1 = bitmap1_full[nz_bytes].tobytes()
        else:
            bitmap2, bitmap1 = b"", bitmap1_full.tobytes()
        z = ZeroEliminated(bitmap2=bitmap2, bitmap1=bitmap1,
                           words=kept_words, orig_len=orig_len,
                           word_bytes=word_bytes)
        sp.set(kept=len(kept_words) // word_bytes, bytes_out=z.nbytes())
        return z


def restore(z: ZeroEliminated) -> bytes:
    """Inverse of :func:`eliminate`."""
    word_bytes = z.word_bytes
    if word_bytes < 1 or z.orig_len < 0:
        raise CodecError("word_bytes must be >= 1 and orig_len >= 0")
    nwords = -(-z.orig_len // word_bytes)
    bitmap1_len = (nwords + 7) // 8

    with span("kernel.dictionary.restore", words=nwords,
              bytes_in=z.nbytes(), bytes_out=z.orig_len) as sp:
        if not z.bitmap2:  # single-level container: bitmap1 stored raw
            bitmap1_full = np.frombuffer(z.bitmap1, dtype=np.uint8)
            if bitmap1_full.size != bitmap1_len:
                raise CodecError("flat bitmap length mismatch")
        else:
            nz_bytes = np.unpackbits(np.frombuffer(z.bitmap2, dtype=np.uint8))
            if nz_bytes.size < bitmap1_len:
                raise CodecError("level-2 bitmap too short")
            nz_bytes = nz_bytes[:bitmap1_len].astype(bool)
            bitmap1_full = np.zeros(bitmap1_len, dtype=np.uint8)
            kept = np.frombuffer(z.bitmap1, dtype=np.uint8)
            if kept.size != int(nz_bytes.sum()):
                raise CodecError("level-1 bitmap length mismatch")
            bitmap1_full[nz_bytes] = kept

        nonzero = np.unpackbits(bitmap1_full, count=nwords).view(np.bool_)
        payload = np.frombuffer(z.words, dtype=np.uint8)
        kept_words = int(np.count_nonzero(nonzero))
        if payload.size != kept_words * word_bytes:
            raise CodecError("compacted word payload length mismatch")
        sp.set(kept=kept_words)
        words = np.zeros(nwords, dtype=_word_dtype(word_bytes))
        words[nonzero] = payload.view(words.dtype)
        return words.view(np.uint8)[:z.orig_len].tobytes()
