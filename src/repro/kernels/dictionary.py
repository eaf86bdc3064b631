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


def _kept_words(data: np.ndarray, word_bytes: int, flags: np.ndarray
                ) -> bytes:
    """The non-zero words of the C-contiguous ``uint8`` array ``data``,
    whose flags go to the head of ``flags``.  Bytes past a whole number
    of words are a last word, zero-padded."""
    whole = data.size // word_bytes
    kept = b""
    if whole:
        body = data[:whole * word_bytes]
        # a word is non-zero when any lane of its widest integer view is
        lane = next(size for size in (8, 4, 2, 1) if word_bytes % size == 0)
        lanes = body.view(f"<u{lane}").reshape(-1, word_bytes // lane).T
        bits = lanes[0].copy()
        for column in lanes[1:]:
            bits |= column
        nonzero = np.not_equal(bits, 0, out=flags[:whole])
        kept = body.view(_word_dtype(word_bytes))[nonzero].tobytes()
    tail = data[whole * word_bytes:]
    if tail.size:
        flags[whole] = tail.any()
        if flags[whole]:
            kept += tail.tobytes() + bytes(word_bytes - tail.size)
    return kept


def _put_words(out: np.ndarray, word_bytes: int, flags: np.ndarray,
               payload: np.ndarray, pos: int) -> int:
    """Inverse of :func:`_kept_words`: fill the ``uint8`` array ``out``
    from the kept words at byte ``pos`` of ``payload``, which holds them;
    returns the position after them.  Nothing is sized by ``word_bytes``:
    a word wider than ``out`` is only ever its zero-padded tail."""
    out[:] = 0
    whole = out.size // word_bytes
    if whole:
        nonzero = flags[:whole]
        end = pos + int(np.count_nonzero(nonzero)) * word_bytes
        word = _word_dtype(word_bytes)
        out[:whole * word_bytes].view(word)[nonzero] = (
            payload[pos:end].view(word))
        pos = end
    tail = out[whole * word_bytes:]
    if tail.size and flags[whole]:
        tail[:] = payload[pos:pos + tail.size]
        pos += word_bytes
    return pos


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
    nwords = -(-orig_len // word_bytes)
    with span("kernel.dictionary.eliminate", words=nwords,
              bytes_in=orig_len) as sp:
        nonzero = np.empty(nwords, dtype=np.bool_)
        kept_words = _kept_words(data, word_bytes, nonzero)
        bitmap1_full = np.packbits(nonzero)
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


def _word_flags(bitmap2: bytes, bitmap1: bytes, nwords: int) -> np.ndarray:
    """The ``nwords`` word flags the bitmaps of an eliminated stream hold
    (``CodecError`` when their lengths do not fit ``nwords``)."""
    bitmap1_len = (nwords + 7) // 8
    if not bitmap2:  # single-level container: bitmap1 stored raw
        bitmap1_full = np.frombuffer(bitmap1, dtype=np.uint8)
        if bitmap1_full.size != bitmap1_len:
            raise CodecError("flat bitmap length mismatch")
    else:
        nz_bytes = np.unpackbits(np.frombuffer(bitmap2, dtype=np.uint8))
        if nz_bytes.size < bitmap1_len:
            raise CodecError("level-2 bitmap too short")
        nz_bytes = nz_bytes[:bitmap1_len].astype(bool)
        bitmap1_full = np.zeros(bitmap1_len, dtype=np.uint8)
        kept = np.frombuffer(bitmap1, dtype=np.uint8)
        if kept.size != int(nz_bytes.sum()):
            raise CodecError("level-1 bitmap length mismatch")
        bitmap1_full[nz_bytes] = kept
    return np.unpackbits(bitmap1_full, count=nwords).view(np.bool_)


def restore(z: ZeroEliminated) -> bytes:
    """Inverse of :func:`eliminate`."""
    word_bytes = z.word_bytes
    if word_bytes < 1 or z.orig_len < 0:
        raise CodecError("word_bytes must be >= 1 and orig_len >= 0")
    nwords = -(-z.orig_len // word_bytes)

    with span("kernel.dictionary.restore", words=nwords,
              bytes_in=z.nbytes(), bytes_out=z.orig_len) as sp:
        nonzero = _word_flags(z.bitmap2, z.bitmap1, nwords)
        payload = np.frombuffer(z.words, dtype=np.uint8)
        kept_words = int(np.count_nonzero(nonzero))
        if payload.size != kept_words * word_bytes:
            raise CodecError("compacted word payload length mismatch")
        sp.set(kept=kept_words)
        out = np.empty(z.orig_len, dtype=np.uint8)
        _put_words(out, word_bytes, nonzero, payload, 0)
        return out.tobytes()
