"""The standard module library shipped with the framework (§3.2).

Preprocessors
    ``abs-eb`` / ``rel-eb`` — absolute vs value-range-relative bounds.
Predictors
    ``lorenzo`` (cuSZ) and ``interp`` (G-Interp, cuSZ-i).
Statistics
    ``histogram`` (standard) and ``histogram-topk``.
Encoders
    ``huffman`` (CPU canonical Huffman, needs a histogram) and
    ``bitshuffle`` (FZ-GPU zigzag + bit-plane shuffle + zero elimination).
Secondary
    ``deflate`` (stdlib ``zlib`` in the paper's zstd role) and ``none``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..kernels import (bitshuffle, deflate, dictionary, histogram as khist,
                       huffman, interp, lorenzo)
from ..kernels.histogram import HistogramResult
from ..kernels.quantize import OutlierSet
from ..types import EbMode, ErrorBound
from .header import as_bytes_view
from .module import (EncodedStream, EncoderModule, PredictorArtifacts,
                     PredictorModule, PreprocessModule, PreprocessResult,
                     SecondaryModule, StatisticsModule)


# ---------------------------------------------------------------------- #
# preprocess                                                              #
# ---------------------------------------------------------------------- #
class AbsEbPreprocess(PreprocessModule):
    """Pass-through preprocessor for absolute error bounds."""

    name = "abs-eb"

    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        return PreprocessResult(data=data, eb_abs=eb.absolute(0.0, 0.0),
                                meta={"mode": EbMode.ABS.value})


class RelEbPreprocess(PreprocessModule):
    """Value-range-relative bounds: scans min/max and scales the bound.

    This is the paper's evaluation mode ("value-range-based relative error
    bound"); the range scan is the single extra pass this module costs.
    """

    name = "rel-eb"

    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        lo = float(data.min())
        hi = float(data.max())
        # ErrorBound.absolute honours the bound's own mode, so an ABS bound
        # passes through unchanged even in the range-scanning preprocessor.
        return PreprocessResult(data=data, eb_abs=eb.absolute(lo, hi),
                                meta={"mode": eb.mode.value,
                                      "min": lo, "max": hi})


# ---------------------------------------------------------------------- #
# predictors                                                              #
# ---------------------------------------------------------------------- #
class LorenzoPredictor(PredictorModule):
    """cuSZ multidimensional Lorenzo predictor + dual quantisation."""

    name = "lorenzo"

    def encode(self, data: np.ndarray, eb_abs: float, radius: int
               ) -> PredictorArtifacts:
        res = lorenzo.compress(data, eb_abs, radius)
        return PredictorArtifacts(codes=res.codes.reshape(-1),
                                  outliers=res.outliers, anchors=None,
                                  meta={})

    def decode(self, artifacts: PredictorArtifacts, shape: tuple[int, ...],
               dtype: np.dtype, eb_abs: float, radius: int) -> np.ndarray:
        return lorenzo.decompress_parts(
            codes=artifacts.codes.reshape(shape), outliers=artifacts.outliers,
            radius=radius, eb_abs=eb_abs, shape=shape, dtype=dtype)


class InterpPredictor(PredictorModule):
    """G-Interp multilevel spline interpolation predictor (cuSZ-i)."""

    name = "interp"

    def __init__(self, max_level: int | None = None) -> None:
        self.max_level = max_level

    def encode(self, data: np.ndarray, eb_abs: float, radius: int
               ) -> PredictorArtifacts:
        res = interp.compress(data, eb_abs, radius, max_level=self.max_level)
        return PredictorArtifacts(codes=res.codes, outliers=res.outliers,
                                  anchors=res.anchors,
                                  meta={"max_level": res.max_level})

    def decode(self, artifacts: PredictorArtifacts, shape: tuple[int, ...],
               dtype: np.dtype, eb_abs: float, radius: int) -> np.ndarray:
        if artifacts.anchors is None:
            raise CodecError("interp artifacts missing anchors")
        # ``max_level`` goes through as stored: the kernel checks it, the
        # anchor count and the stream length (CodecError) before any of
        # them sizes an array
        res = interp.InterpResult(
            codes=artifacts.codes, outliers=artifacts.outliers,
            anchors=artifacts.anchors.astype(dtype, copy=False),
            radius=radius, eb_abs=eb_abs,
            max_level=artifacts.meta.get("max_level"),
            shape=shape, dtype=np.dtype(dtype))
        return interp.decompress(res)


# ---------------------------------------------------------------------- #
# statistics                                                              #
# ---------------------------------------------------------------------- #
class StandardHistogram(StatisticsModule):
    """Dense GPU-style histogram of the quant codes."""

    name = "histogram"

    def collect(self, codes: np.ndarray, num_bins: int) -> HistogramResult:
        return khist.histogram(codes, num_bins)


class TopKHistogram(StatisticsModule):
    """Sparsity-aware top-k histogram (preferred after high-quality
    prediction, per §3.2)."""

    name = "histogram-topk"

    def __init__(self, k: int = 16) -> None:
        self.k = k

    def collect(self, codes: np.ndarray, num_bins: int) -> HistogramResult:
        return khist.histogram_topk(codes, num_bins, k=self.k)


# ---------------------------------------------------------------------- #
# encoders                                                                #
# ---------------------------------------------------------------------- #
class HuffmanEncoder(EncoderModule):
    """Chunked canonical Huffman over quant codes (CPU stage of
    FZMod-Default/Quality); optimal-ratio, slower than bitshuffle."""

    name = "huffman"
    needs_statistics = True

    def __init__(self, chunk: int = huffman.DEFAULT_CHUNK,
                 max_len: int = huffman.DEFAULT_MAX_LEN, *,
                 fixed_lengths: np.ndarray | None = None,
                 emit_lengths: bool = True) -> None:
        self.chunk = chunk
        self.max_len = max_len
        self.fixed_lengths = (None if fixed_lengths is None
                              else np.asarray(fixed_lengths, dtype=np.uint8))
        self.emit_lengths = emit_lengths
        if self.fixed_lengths is not None:
            # shadow the class attribute: a pinned codebook needs no
            # histogram, so the pipeline skips the statistics stage
            self.needs_statistics = False

    def with_fixed_codebook(self, lengths: np.ndarray) -> "HuffmanEncoder":
        """A clone that encodes with a pinned canonical codebook.

        The clone neither collects statistics nor stores the lengths in
        its containers (``emit_lengths=False``) — the caller owns the
        codebook and must supply it again at decode time.  Used by the
        shared-codebook sharding mode; the registry instance itself is
        never mutated (modules must stay stateless).
        """
        return HuffmanEncoder(chunk=self.chunk, max_len=self.max_len,
                              fixed_lengths=lengths, emit_lengths=False)

    def encode(self, codes: np.ndarray, num_bins: int,
               hist: HistogramResult | None) -> EncodedStream:
        if self.fixed_lengths is None and hist is None:
            raise CodecError("huffman encoder requires a statistics stage")
        if codes.size == 0:
            enc = huffman.encode_empty(num_bins, max_len=self.max_len)
        else:
            book = (huffman.build_codebook(hist.counts, max_len=self.max_len)
                    if self.fixed_lengths is None else
                    huffman.Codebook(lengths=self.fixed_lengths,
                                     max_len=self.max_len))
            enc = huffman.encode(codes, book, chunk=self.chunk)
        sections = {
            "enc.payload": enc.payload,
            "enc.chunk_syms": as_bytes_view(enc.chunk_symbols),
            "enc.chunk_bits": as_bytes_view(enc.chunk_bits),
        }
        if self.emit_lengths:
            sections["enc.lengths"] = as_bytes_view(enc.lengths)
        return EncodedStream(
            sections=sections,
            meta={"count": enc.count, "max_len": enc.max_len,
                  "nchunks": int(enc.chunk_symbols.size)})

    def decode(self, stream: EncodedStream, count: int, num_bins: int
               ) -> np.ndarray:
        # all of it comes from the container: check the values against
        # each other before any of them sizes a read
        nchunks, total, max_len = (stream.meta.get(key)
                                   for key in ("nchunks", "count", "max_len"))
        if any(type(value) is not int for value in (nchunks, total, max_len)):
            raise CodecError("huffman nchunks/count/max_len must be integers")
        payload, chunk_syms, chunk_bits, lengths = (
            stream.sections.get(f"enc.{name}")
            for name in ("payload", "chunk_syms", "chunk_bits", "lengths"))
        if payload is None or lengths is None or len(lengths) != num_bins:
            raise CodecError("huffman payload or num_bins-long codebook missing")
        if nchunks < 0 or any(table is None or len(table) != 8 * nchunks
                              for table in (chunk_syms, chunk_bits)):
            raise CodecError("huffman chunk tables do not hold nchunks entries")
        enc = huffman.HuffmanEncoded(
            payload=payload, count=total, max_len=max_len,
            chunk_symbols=np.frombuffer(chunk_syms, dtype=np.int64),
            chunk_bits=np.frombuffer(chunk_bits, dtype=np.int64),
            lengths=np.frombuffer(lengths, dtype=np.uint8))
        out = huffman.decode(enc)
        if out.size != count:
            raise CodecError("huffman decode count mismatch")
        return out.astype(np.uint16 if num_bins <= 65536 else np.uint32)


def _shuffle_width(num_bins: int) -> int:
    """Bit width of a zigzagged code: 16 while the alphabet fits, else 32."""
    if not 1 <= num_bins <= 1 << 32:
        raise CodecError("bitshuffle needs an alphabet of 1 to 2**32 codes")
    return 16 if num_bins <= 65536 else 32


class BitshuffleEncoder(EncoderModule):
    """FZ-GPU-style encoder: recentre + zigzag + bit-plane shuffle +
    hierarchical zero elimination.  Much faster than Huffman on a GPU,
    lower ratio (the FZMod-Speed trade)."""

    name = "bitshuffle"
    needs_statistics = False

    def __init__(self, word_bytes: int = dictionary.WORD_BYTES) -> None:
        self.word_bytes = word_bytes

    def encode(self, codes: np.ndarray, num_bins: int,
               hist: HistogramResult | None) -> EncodedStream:
        width = _shuffle_width(num_bins)
        # codes of at most 16 bits recentre and zigzag without leaving int32
        narrow = width == 16 and codes.dtype.itemsize <= 2
        signed = codes.astype(np.int32 if narrow else np.int64)
        signed -= num_bins // 2
        zz = bitshuffle.zigzag(signed)
        if zz.size and int(zz.max()) >> width:
            raise CodecError("zigzagged code exceeds shuffle width")
        shuffled = bitshuffle.shuffle(zz.astype(np.uint16 if width == 16
                                                else np.uint32), width)
        # Flat (single-level) bitmap, as in the staged FZ-GPU port: cheaper
        # to produce but caps the ratio on near-constant data (the paper's
        # FZMod-Speed posts visibly lower CRs than fused FZ-GPU).
        z = dictionary.eliminate(shuffled, word_bytes=self.word_bytes,
                                 two_level=False)
        return EncodedStream(
            sections={"enc.bitmap2": z.bitmap2, "enc.bitmap1": z.bitmap1,
                      "enc.words": z.words},
            meta={"count": int(codes.size), "orig_len": z.orig_len,
                  "word_bytes": z.word_bytes, "width": width})

    def decode(self, stream: EncodedStream, count: int, num_bins: int
               ) -> np.ndarray:
        # all of it comes from the container: check it against the header
        # before any of it sizes an array
        orig_len, word_bytes, width = (stream.meta.get(key) for key in
                                       ("orig_len", "word_bytes", "width"))
        if any(type(value) is not int
               for value in (orig_len, word_bytes, width)):
            raise CodecError(
                "bitshuffle orig_len/word_bytes/width must be integers")
        if width != _shuffle_width(num_bins) or word_bytes < 1:
            raise CodecError("bitshuffle width or word_bytes out of range")
        if orig_len != bitshuffle.shuffled_size(count, width):
            raise CodecError("bitshuffle orig_len does not match the count")
        bitmap2, bitmap1, words = (stream.sections.get(f"enc.{name}")
                                   for name in ("bitmap2", "bitmap1", "words"))
        if bitmap2 is None or bitmap1 is None or words is None:
            raise CodecError("bitshuffle stream is missing a section")
        shuffled = dictionary.restore(dictionary.ZeroEliminated(
            bitmap2=bitmap2, bitmap1=bitmap1, words=words,
            orig_len=orig_len, word_bytes=word_bytes))
        zz = bitshuffle.unshuffle(shuffled, count, width)
        # zigzag maps [-radius, num_bins - radius) onto [0, num_bins), so
        # the range check needs no recentred copy
        if zz.size and int(zz.max()) >= num_bins:
            raise CodecError("bitshuffle decode produced out-of-range code")
        out = bitshuffle.unzigzag(zz).view(zz.dtype)
        # modulo 2**width, which is exact: the sum is a code below num_bins
        out += num_bins // 2
        return out


# ---------------------------------------------------------------------- #
# secondary                                                               #
# ---------------------------------------------------------------------- #
class DeflateSecondary(SecondaryModule):
    """Generic lossless pass: stdlib DEFLATE in the paper's zstd role."""

    name = "deflate"

    def encode(self, body: bytes) -> bytes:
        return deflate.compress(body)

    def decode(self, body: bytes) -> bytes:
        return deflate.decompress(body)


class NoSecondary(SecondaryModule):
    """Identity secondary stage (the default for speed-oriented pipelines)."""

    name = "none"

    def encode(self, body: bytes) -> bytes:
        return body

    def decode(self, body: bytes) -> bytes:
        return body
