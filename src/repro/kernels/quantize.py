"""Error-controlled linear quantisation (the cuSZ "dual-quantization" core).

Two flavours are provided:

* :func:`prequantize` / :func:`dequantize` — map floats to an integer grid
  with spacing ``2*eb`` so that reconstruction error is ``<= eb`` per value.
  This is the *pre-quantization* step of cuSZ's dual-quantization scheme:
  quantising the data **before** prediction removes the serial dependency of
  classic predictive coders (the predictor then operates on exact integers,
  so prediction + inverse-prediction is lossless) and is what makes the
  Lorenzo kernel embarrassingly parallel.

* :func:`split_outliers` / :func:`merge_outliers` — bound quant-code
  magnitudes to a radius ``R`` so downstream entropy coders see a small
  alphabet (``2R`` symbols); values falling outside become sparse
  *outliers* carried in a side channel.  The streaming decompress
  scatters one shard's outliers while the next shard's Huffman stream
  decodes (the paper's §3.3.1 overlap), so outliers are a first-class
  artifact here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..runtime.memory import SANITIZER

#: Default quant-code radius, matching cuSZ's default dictionary size 1024.
DEFAULT_RADIUS = 512


def prequantize(data: np.ndarray, eb_abs: float, *,
                out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Quantise ``data`` onto the grid ``2*eb_abs * k`` (k integer).

    Returns an ``int64`` array of grid indices.  ``|data - 2*eb*k| <= eb``
    holds for every element (round-half-away semantics are irrelevant to the
    bound).  ``int64`` is wide enough for any float32/64 field with a sane
    error bound; overflow (astronomically tight bounds) raises.

    ``out`` (``int64``, data-shaped) receives the grid indices and
    ``scratch`` (``float64``, data-shaped) holds the scaled intermediate;
    passing pooled buffers for both makes the call allocation-free.
    """
    if eb_abs <= 0 or not np.isfinite(eb_abs):
        raise CodecError(f"absolute error bound must be positive, got {eb_abs}")
    if SANITIZER.enabled:
        SANITIZER.check_live("prequantize", data, out, scratch)
        SANITIZER.check_no_alias("prequantize", out, data=data,
                                 scratch=scratch)
        SANITIZER.check_no_alias("prequantize(scratch)", scratch, data=data)
    data = np.asarray(data)
    if scratch is None:
        scaled = np.asarray(data, dtype=np.float64) / (2.0 * eb_abs)
    else:
        # dtype= forces the float64 loop even for float32 inputs; without it
        # the division runs in float32 and half-point values round wrong
        scaled = np.divide(data, 2.0 * eb_abs, out=scratch, dtype=np.float64)
    if scaled.size and float(np.abs(scaled).max()) >= 2**62:
        raise CodecError("error bound too tight: quantization index overflows int64")
    np.rint(scaled, out=scaled)
    if out is None:
        return scaled.astype(np.int64)
    out[...] = scaled
    return out


def dequantize(codes: np.ndarray, eb_abs: float, dtype: np.dtype, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`prequantize` (up to the quantisation error).

    With ``out`` (an array of the target ``dtype``) the scale-back is
    computed straight into it, skipping the full-size ``float64``
    intermediate the allocating path pays.
    """
    if SANITIZER.enabled:
        SANITIZER.check_live("dequantize", codes, out)
        SANITIZER.check_no_alias("dequantize", out, codes=codes)
    if out is None:
        return (np.asarray(codes, dtype=np.float64) * (2.0 * eb_abs)).astype(dtype)
    np.multiply(codes, 2.0 * eb_abs, out=out, casting="unsafe")
    return out


@dataclass(frozen=True)
class OutlierSet:
    """Sparse side channel for unpredictable values.

    Attributes
    ----------
    indices:
        flat positions (``int64``) into the C-order flattened code array.
    values:
        the true (signed) integer deltas at those positions.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise CodecError("outlier indices/values shape mismatch")

    @property
    def count(self) -> int:
        return int(self.indices.size)

    def nbytes(self) -> int:
        """Serialised footprint (used by ratio accounting)."""
        return int(self.indices.nbytes + self.values.nbytes)


def split_outliers(deltas: np.ndarray, radius: int = DEFAULT_RADIUS, *,
                   in_place: bool = False) -> tuple[np.ndarray, OutlierSet]:
    """Separate predictable codes from outliers.

    Parameters
    ----------
    deltas:
        signed integer prediction residuals (any shape).
    radius:
        codes with ``-radius <= delta < radius`` are *predictable* and are
        rebased to the unsigned alphabet ``[0, 2*radius)`` (zero residual
        maps to ``radius``, as in cuSZ).  Everything else is emitted as an
        outlier and its slot in the dense array is set to the sentinel
        ``radius`` (i.e. zero residual) so the dense stream stays maximally
        compressible.
    in_place:
        rebase inside ``deltas`` itself instead of a fresh temporary
        (clobbers the input; used by callers whose residual buffer is
        pooled scratch).  The returned ``codes`` array is fresh either way.

    Returns
    -------
    (codes, outliers):
        ``codes`` is ``uint16`` when ``2*radius <= 65536`` else ``uint32``,
        same shape as ``deltas``.
    """
    if radius < 1 or radius > 2**30:
        raise CodecError(f"radius out of range: {radius}")
    deltas = np.asarray(deltas)
    flat = deltas.reshape(-1)
    mask = (flat >= radius) | (flat < -radius)
    idx = np.flatnonzero(mask).astype(np.int64)
    out = OutlierSet(indices=idx, values=flat[idx].astype(np.int64))
    if in_place and flat.dtype == np.int64:
        rebased = flat
        np.add(rebased, radius, out=rebased)
        rebased[idx] = radius
    else:
        rebased = flat + radius
        rebased = np.where(mask, radius, rebased)
    dtype = np.uint16 if 2 * radius <= 65536 else np.uint32
    return rebased.astype(dtype).reshape(deltas.shape), out


def merge_outliers(codes: np.ndarray, outliers: OutlierSet,
                   radius: int = DEFAULT_RADIUS, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`split_outliers`: recover signed residuals.

    ``out`` (``int64``, at least ``codes.size`` elements) receives the
    residuals, making the call allocation-free for pooled callers.
    """
    if SANITIZER.enabled:
        SANITIZER.check_live("merge_outliers", codes, out,
                             outliers.indices, outliers.values)
        SANITIZER.check_no_alias("merge_outliers", out, codes=codes,
                                 outlier_values=outliers.values,
                                 allow_identical=False)
    if out is None:
        flat = codes.reshape(-1).astype(np.int64)
    else:
        flat = out.reshape(-1)[:codes.size]
        flat[...] = codes.reshape(-1)
    np.subtract(flat, radius, out=flat)
    if outliers.count:
        if int(outliers.indices.max()) >= flat.size:
            raise CodecError("outlier index out of bounds")
        flat[outliers.indices] = outliers.values
    return flat.reshape(codes.shape)


def pack_outliers(out: OutlierSet) -> tuple[bytes, bytes, int]:
    """Compactly serialise an outlier set.

    Indices are strictly increasing, so they are delta-coded (minus one) and
    fixed-length block-packed; values are zigzag-mapped and packed the same
    way.  Dense outlier regimes (hard-to-quantise data at tight bounds) then
    cost ~2-3 bytes per outlier instead of 16, which is what keeps the
    HACC-at-1e-6 compression ratios near the paper's ~2x instead of
    expanding the data.

    Returns ``(idx_payload, val_payload, count)``.
    """
    from . import bitshuffle as _bs
    from . import fixedlen as _fl
    if out.count == 0:
        return b"", b"", 0
    deltas = np.empty(out.count, dtype=np.int64)
    deltas[0] = out.indices[0]
    np.subtract(out.indices[1:], out.indices[:-1] + 1, out=deltas[1:])
    if int(deltas.min()) < 0:
        raise CodecError("outlier indices must be strictly increasing")
    if int(deltas.max()) >= 2**32:
        raise CodecError("outlier index gap too wide for packed serialisation")
    import struct as _struct

    def _fl_blob(e: _fl.FixedLenEncoded) -> bytes:
        return _struct.pack("<QI", e.count, len(e.widths)) + e.widths + e.payload

    idx_enc = _fl.encode(deltas.astype(np.uint32))
    zz = _bs.zigzag(out.values)
    # values normally fit 32 bits; astronomically tight bounds need the
    # 64-bit path (low and high halves packed separately, marked by a flag)
    if int(zz.max()) < 2**32:
        val_blob = b"\x00" + _fl_blob(_fl.encode(zz.astype(np.uint32)))
    else:
        lo = (zz & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        hi = (zz >> np.uint64(32)).astype(np.uint32)
        val_blob = (b"\x01" + _fl_blob(_fl.encode(lo))
                    + _fl_blob(_fl.encode(hi)))
    return _fl_blob(idx_enc), val_blob, out.count


def unpack_outliers(idx_payload: bytes, val_payload: bytes, count: int
                    ) -> OutlierSet:
    """Inverse of :func:`pack_outliers`.

    Every fixed-length table must declare ``count`` values in a width
    table of that length: both are checked before the table sizes
    anything.
    """
    from . import bitshuffle as _bs
    from . import fixedlen as _fl
    import struct as _struct
    if count == 0:
        return OutlierSet(indices=np.zeros(0, dtype=np.int64),
                          values=np.zeros(0, dtype=np.int64))

    def _fl_parse(blob: bytes, what: str, offset: int = 0
                  ) -> tuple[_fl.FixedLenEncoded, int]:
        off = offset + _struct.calcsize("<QI")
        if len(blob) < off:
            raise CodecError("outlier payload shorter than its own header")
        n, wlen = _struct.unpack_from("<QI", blob, offset)
        block = _fl.BLOCK_VALUES
        if n != count:
            raise CodecError(f"outlier {what} count mismatch")
        if wlen != -(-n // block):
            raise CodecError("width table length mismatch")
        widths = blob[off:off + wlen]
        bytes_per = (np.frombuffer(widths, dtype=np.uint8).astype(np.int64)
                     * block + 7) // 8
        plen = int(bytes_per.sum())
        payload = blob[off + wlen:off + wlen + plen]
        return (_fl.FixedLenEncoded(widths=widths, payload=payload, count=n),
                off + wlen + plen)

    enc_idx, _ = _fl_parse(idx_payload, "index")
    deltas = _fl.decode(enc_idx).astype(np.int64)
    indices = np.cumsum(deltas + 1) - 1

    if not val_payload:
        raise CodecError("missing outlier value payload")
    flag, rest = val_payload[0], val_payload[1:]
    if flag == 0:
        enc_lo, _ = _fl_parse(rest, "value")
        zz = _fl.decode(enc_lo).astype(np.uint64)
    elif flag == 1:
        enc_lo, end = _fl_parse(rest, "value")
        enc_hi, _ = _fl_parse(rest, "value", end)
        lo = _fl.decode(enc_lo).astype(np.uint64)
        hi = _fl.decode(enc_hi).astype(np.uint64)
        zz = lo | (hi << np.uint64(32))
    else:
        raise CodecError(f"unknown outlier value packing flag {flag}")
    values = _bs.unzigzag(zz)
    return OutlierSet(indices=indices, values=values)
