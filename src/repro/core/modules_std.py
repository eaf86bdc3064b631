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

import math

import numpy as np

from ..errors import CodecError
from ..kernels import (bitshuffle, deflate, dictionary, histogram as khist,
                       huffman, interp, lorenzo)
from ..kernels.histogram import HistogramResult
from ..kernels.quantize import OutlierSet
from ..obs.spans import span
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


#: predictor-meta marker of the storage-dtype G-Interp walk; a container
#: without it was written by the float64 walk and decodes on it
_WALK = "storage"


class InterpPredictor(PredictorModule):
    """G-Interp multilevel spline interpolation predictor (cuSZ-i)."""

    name = "interp"

    def __init__(self, max_level: int | None = None) -> None:
        self.max_level = max_level

    def encode(self, data: np.ndarray, eb_abs: float, radius: int
               ) -> PredictorArtifacts:
        res = interp.compress(data, eb_abs, radius, max_level=self.max_level)
        meta: dict = {"max_level": res.max_level}
        if res.walk_dtype == res.dtype:
            meta["walk"] = _WALK
        aux = {}
        if res.patch_index.size:
            aux = {"patch_index": res.patch_index,
                   "patch_value": res.patch_value}
        return PredictorArtifacts(codes=res.codes, outliers=res.outliers,
                                  anchors=res.anchors, aux=aux, meta=meta)

    def decode(self, artifacts: PredictorArtifacts, shape: tuple[int, ...],
               dtype: np.dtype, eb_abs: float, radius: int) -> np.ndarray:
        if artifacts.anchors is None:
            raise CodecError("interp artifacts missing anchors")
        walk = artifacts.meta.get("walk")
        if "walk" in artifacts.meta and walk != _WALK:
            raise CodecError(f"unknown interp walk marker {walk!r}")
        aux = artifacts.aux
        if set(aux) - {"patch_index", "patch_value"}:
            raise CodecError(f"unknown interp aux channels {sorted(aux)}")
        # ``max_level`` and the patches go through as stored: the kernel
        # checks them, the anchor count and the stream length (CodecError)
        # before any of them sizes an array
        res = interp.InterpResult(
            codes=artifacts.codes, outliers=artifacts.outliers,
            anchors=artifacts.anchors.astype(dtype, copy=False),
            radius=radius, eb_abs=eb_abs,
            max_level=artifacts.meta.get("max_level"),
            shape=shape, dtype=np.dtype(dtype),
            patch_index=aux.get("patch_index"),
            patch_value=aux.get("patch_value"),
            walk_dtype=None if walk else np.float64)
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


#: Codes per pass of the bitshuffle tail: a whole number of shuffle
#: blocks whose scratch (about 8 bytes a 16-bit code) stays in L2 from
#: recentring to compaction, in passes long enough to amortise the ~40
#: NumPy calls each makes.  Encode / decode of a 983 k-code field, 2
#: cores, 2 MiB L2: 9.0 / 6.4 ms as whole-field passes; in chunks of
#: 2**14 7.6 / 7.3, 2**15 5.5 / 5.1, 2**16 4.5 / 4.0, 2**17 4.1 / 3.7,
#: 2**18 4.1 / 3.8.
_TAIL_VALUES = 1 << 17


def _tail_scratch(width: int, word_bytes: int, orig_len: int) -> tuple:
    """``(codes per pass, two code arrays, two byte arrays, flip
    scratch)``: one pass's scratch, sized for the longest pass of a
    stream of ``orig_len`` shuffled bytes.

    A pass is the smallest multiple of :data:`_TAIL_VALUES` codes whose
    shuffled bytes are a whole number of words, so that every pass owns
    its words and only the last one has a partial block or word.
    """
    lanes = width // 8
    step = _TAIL_VALUES * (word_bytes
                           // math.gcd(word_bytes, _TAIL_VALUES * lanes))
    nbytes = min(step * lanes, orig_len)
    return (step, *(np.empty(nbytes // lanes, f"<u{lanes}") for _ in range(2)),
            *(np.empty(nbytes, np.uint8) for _ in range(2)),
            np.empty(min(nbytes // 8, bitshuffle._FLIP_WORDS), np.uint64))


class BitshuffleEncoder(EncoderModule):
    """FZ-GPU-style encoder: recentre + zigzag + bit-plane shuffle +
    hierarchical zero elimination.  Much faster than Huffman on a GPU,
    lower ratio (the FZMod-Speed trade).

    Both directions run as one loop over chunks of the codes (see
    :func:`_tail_scratch`), FZ-GPU's fused kernel at cache scale: each
    chunk goes from codes to kept words while its scratch is L2-resident.
    The shuffle is block-major, so a chunk owns one run of shuffled
    bytes, of words and of word flags, and the sections are the in-order
    concatenation of the chunks' pieces: the bytes of
    ``dictionary.eliminate(bitshuffle.shuffle(zigzag(codes - centre)),
    two_level=False)``.
    """

    name = "bitshuffle"
    needs_statistics = False

    def __init__(self, word_bytes: int = dictionary.WORD_BYTES) -> None:
        self.word_bytes = word_bytes

    def encode(self, codes: np.ndarray, num_bins: int,
               hist: HistogramResult | None) -> EncodedStream:
        width = _shuffle_width(num_bins)
        word_bytes = self.word_bytes
        if word_bytes < 1:
            raise CodecError("word_bytes must be >= 1")
        codes = np.asarray(codes).reshape(-1)
        count = codes.size
        orig_len = bitshuffle.shuffled_size(count, width)
        lanes, block = width // 8, bitshuffle.BLOCK_VALUES
        step, zz, tmp, planes, shuffled, flip = _tail_scratch(
            width, word_bytes, orig_len)
        # code - centre fits the shuffle exactly when zigzag maps it below
        # 2**width; in that range the arithmetic may wrap modulo 2**width.
        # An unsigned code cannot be below centre - half <= 0.
        half, centre = 1 << (width - 1), num_bins // 2
        recentre = np.asarray(centre, zz.dtype)
        signed = np.dtype(f"<i{lanes}")
        check_low = codes.dtype.kind != "u"
        nwords = -(-orig_len // word_bytes)
        flags = np.empty(nwords, np.bool_)
        pieces = []
        with span("kernel.bitshuffle.encode", values=count, width=width,
                  blocks=orig_len // (lanes * block),
                  chunks=-(-count // step), words=nwords,
                  bytes_in=int(codes.nbytes)) as sp:
            for lo in range(0, count, step):
                chunk = codes[lo:lo + step]
                n = chunk.size
                if int(chunk.max()) >= centre + half or (
                        check_low and int(chunk.min()) < centre - half):
                    raise CodecError("zigzagged code exceeds shuffle width")
                z, t = zz[:n], tmp[:n].view(signed)
                np.subtract(chunk, recentre, out=z, casting="unsafe")
                v = z.view(signed)
                np.right_shift(v, width - 1, out=t)
                v <<= 1
                v ^= t
                # byte planes above the largest zigzagged code's are zero:
                # they are written as such, and neither split nor flipped
                live = max(1, (int(z.max()).bit_length() + 7) // 8)
                nblocks = -(-n // block)
                raw = shuffled[:nblocks * block * lanes]
                by_plane = raw.reshape(nblocks, lanes, block)
                by_plane[:, :lanes - live] = 0
                view = bitshuffle._planes(
                    z, block,
                    planes[:live * nblocks * block].reshape(live, -1), flip)
                np.copyto(by_plane[:, lanes - live:].reshape(view.shape), view)
                pieces.append(dictionary._kept_words(
                    raw, word_bytes, flags[lo * lanes // word_bytes:]))
            words = b"".join(pieces)
            sp.set(kept=len(words) // word_bytes, bytes_out=len(words))
        # Flat (single-level) bitmap, as in the staged FZ-GPU port: cheaper
        # to produce but caps the ratio on near-constant data (the paper's
        # FZMod-Speed posts visibly lower CRs than fused FZ-GPU).
        return EncodedStream(
            sections={"enc.bitmap2": b"",
                      "enc.bitmap1": np.packbits(flags).tobytes(),
                      "enc.words": words},
            meta={"count": int(count), "orig_len": orig_len,
                  "word_bytes": word_bytes, "width": width})

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
        nwords = -(-orig_len // word_bytes)
        flags = dictionary._word_flags(bitmap2, bitmap1, nwords)
        payload = np.frombuffer(words, dtype=np.uint8)
        kept = int(np.count_nonzero(flags))
        if payload.size != kept * word_bytes:
            raise CodecError("compacted word payload length mismatch")
        lanes, block = width // 8, bitshuffle.BLOCK_VALUES
        step, zz, tmp, planes, shuffled, flip = _tail_scratch(
            width, word_bytes, orig_len)
        centre = np.asarray(num_bins // 2, zz.dtype)
        out = np.empty(count, zz.dtype)
        pos = 0
        with span("kernel.bitshuffle.decode", values=count, width=width,
                  blocks=orig_len // (lanes * block),
                  chunks=-(-count // step), words=nwords, kept=kept,
                  bytes_in=payload.size, bytes_out=int(out.nbytes)):
            for lo in range(0, count, step):
                n = min(step, count - lo)
                nblocks = -(-n // block)
                raw = shuffled[:nblocks * block * lanes]
                pos = dictionary._put_words(
                    raw, word_bytes, flags[lo * lanes // word_bytes:],
                    payload, pos)
                # as in encode: zero planes at the top are skipped
                by_plane = raw.reshape(nblocks, lanes, block)
                dead = 0
                while dead < lanes - 1 and not by_plane[:, dead].any():
                    dead += 1
                z = bitshuffle._values(
                    by_plane[:, dead:].reshape(nblocks, lanes - dead, 8, -1),
                    planes[:(lanes - dead) * nblocks * block],
                    zz[:nblocks * block], flip)[:n]
                # zigzag maps [-centre, num_bins - centre) onto
                # [0, num_bins), so the range check needs no recentring
                if int(z.max()) >= num_bins:
                    raise CodecError(
                        "bitshuffle decode produced out-of-range code")
                # unzigzag, (z >> 1) ^ -(z & 1), and the centre back,
                # modulo 2**width: exact, the sum is a code below num_bins
                t, o = tmp[:n], out[lo:lo + n]
                np.bitwise_and(z, 1, out=t)
                np.negative(t, out=t)
                np.right_shift(z, 1, out=o)
                o ^= t
                o += centre
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
