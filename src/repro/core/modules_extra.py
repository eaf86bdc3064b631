"""Extended module library (§5: "expand the supported GPU and CPU modules").

Beyond the paper's shipped set, these modules cover the adjacent design
space its related-work section draws on:

* ``pwr-eb`` — point-wise *relative* error bounds via a log-domain
  transform (the eb mode SZ/FZ tools call PW_REL);
* ``regression`` — SZ3-style per-block linear regression predictor;
* ``fixedlen`` — cuSZp2-style per-block fixed-length encoder as a primary
  codec module (so a "cuSZp2-like" pipeline is composable inside the
  framework).
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ConfigError
from ..kernels import bitshuffle as bs
from ..kernels import fixedlen as fl
from ..kernels import quantize as q
from ..kernels.histogram import HistogramResult
from ..types import EbMode, ErrorBound
from .module import (EncodedStream, EncoderModule, PredictorArtifacts,
                     PredictorModule, PreprocessModule, PreprocessResult)


# ---------------------------------------------------------------------- #
# point-wise relative bounds                                              #
# ---------------------------------------------------------------------- #
class PwRelPreprocess(PreprocessModule):
    """Point-wise relative error bounds via a log transform.

    For strictly positive data, bounding the *absolute* error of
    ``log(x)`` by ``log(1 + eb)`` guarantees a point-wise relative bound:
    ``|x' / x - 1| <= eb`` for every value.  This is how SZ-family tools
    implement their PW_REL mode, and it is the natural mode for fields
    with huge dynamic range (Nyx baryon density).
    """

    name = "pwr-eb"

    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        if float(data.min()) <= 0.0:
            raise ConfigError("pwr-eb requires strictly positive data "
                              "(log-domain transform)")
        if eb.value >= 1.0:
            raise ConfigError("point-wise relative bound must be < 1")
        transformed = np.log(data.astype(np.float64)).astype(data.dtype)
        eb_abs = float(np.log1p(eb.value))
        return PreprocessResult(data=transformed, eb_abs=eb_abs,
                                meta={"mode": "pwr", "transform": "log"})

    def backward(self, data: np.ndarray, meta: dict) -> np.ndarray:
        if meta.get("transform") != "log":  # pragma: no cover - guard
            raise CodecError("pwr-eb container missing transform marker")
        return np.exp(data.astype(np.float64)).astype(data.dtype)


class AbsAndRelPreprocess(PreprocessModule):
    """Combined bound: the effective tolerance is the *tighter* of an
    absolute bound and a value-range-relative bound.

    SZ-family tools call this ABS_AND_REL: "never worse than eb_abs, and
    never worse than eb_rel of the range".  The module interprets the
    user bound value as the relative part and takes ``abs_cap`` at
    construction for the absolute part.
    """

    name = "abs-and-rel"

    def __init__(self, abs_cap: float = np.inf) -> None:
        if abs_cap <= 0:
            raise ConfigError("abs_cap must be positive")
        self.abs_cap = float(abs_cap)

    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        lo, hi = float(data.min()), float(data.max())
        rel_abs = ErrorBound(eb.value, EbMode.REL).absolute(lo, hi)
        eb_abs = min(rel_abs, self.abs_cap)
        return PreprocessResult(data=data, eb_abs=eb_abs,
                                meta={"mode": "abs-and-rel", "min": lo,
                                      "max": hi, "abs_cap": self.abs_cap})


# ---------------------------------------------------------------------- #
# regression predictor                                                    #
# ---------------------------------------------------------------------- #
class RegressionPredictor(PredictorModule):
    """SZ3-style block-wise linear-regression predictor.

    The field is cut into fixed blocks (edge blocks are padded by
    replication); each block is fitted with a first-order model
    ``f(i) = c0 + sum_a c_a * i_a`` via one batched matrix product with the
    precomputed pseudo-inverse of the (shared) design matrix.  The fitted
    coefficients are themselves quantised — the decoder must use exactly
    the coefficients the encoder used — and shipped as an aux stream;
    residuals go through the shared error-controlled quantiser.

    Strong on locally-linear data (ramps, gradients); weaker than
    interpolation on curved smooth fields — which is why SZ3 *selects*
    between them per block.
    """

    name = "regression"

    def __init__(self, block: int = 4) -> None:
        if block < 2:
            raise ConfigError("regression block must be >= 2")
        self.block = block

    # -- shared geometry helpers ------------------------------------------
    def _design(self, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        """Design matrix X (block^ndim x (ndim+1)) and its pseudo-inverse."""
        b = self.block
        grids = np.meshgrid(*[np.arange(b)] * ndim, indexing="ij")
        cols = [np.ones(b ** ndim)] + [g.reshape(-1).astype(np.float64)
                                       for g in grids]
        X = np.stack(cols, axis=1)
        return X, np.linalg.pinv(X)

    def _blockify(self, data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Pad to block multiples (edge replication) and reshape to
        (nblocks, block**ndim)."""
        b = self.block
        pads = [(0, (-n) % b) for n in data.shape]
        padded = np.pad(data, pads, mode="edge")
        nb = [n // b for n in padded.shape]
        # split each axis into (outer, block)
        shape = []
        for n_out in nb:
            shape.extend([n_out, b])
        arr = padded.reshape(shape)
        # bring all outer axes first, then all block axes
        ndim = data.ndim
        order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
        arr = arr.transpose(order).reshape(int(np.prod(nb)), b ** ndim)
        return arr, tuple(padded.shape)

    def _unblockify(self, blocks: np.ndarray, padded_shape: tuple[int, ...],
                    shape: tuple[int, ...]) -> np.ndarray:
        b = self.block
        nb = [n // b for n in padded_shape]
        ndim = len(shape)
        arr = blocks.reshape(nb + [b] * ndim)
        # inverse of the transpose in _blockify
        order = []
        for i in range(ndim):
            order.extend([i, ndim + i])
        arr = arr.transpose(order).reshape(padded_shape)
        return arr[tuple(slice(0, n) for n in shape)]

    # -- codec --------------------------------------------------------------
    def encode(self, data: np.ndarray, eb_abs: float, radius: int
               ) -> PredictorArtifacts:
        work = data.astype(np.float64)
        blocks, padded_shape = self._blockify(work)
        _, pinv = self._design(data.ndim)
        coeffs = blocks @ pinv.T                        # (nblocks, ndim+1)
        # coefficient quantisation: intercept at eb, slopes at 2*eb/block
        quanta = np.array([eb_abs] + [2.0 * eb_abs / self.block] * data.ndim)
        coeff_codes = np.rint(coeffs / quanta).astype(np.int64)
        coeffs_q = coeff_codes * quanta
        X, _ = self._design(data.ndim)
        pred = coeffs_q @ X.T                           # (nblocks, block^d)
        scaled = (blocks - pred) / (2.0 * eb_abs)
        if scaled.size and float(np.abs(scaled).max()) >= 2**62:
            raise CodecError("error bound too tight for regression codes")
        codes64 = np.rint(scaled).astype(np.int64)
        dense, outliers = q.split_outliers(codes64.reshape(-1), radius)
        return PredictorArtifacts(
            codes=dense, outliers=outliers,
            aux={"coeffs": coeff_codes.astype(np.int32)},
            meta={"block": self.block,
                  "padded_shape": list(padded_shape),
                  # edge blocks are padded, so the code stream is longer
                  # than the element count; the container needs to know
                  "stream_length": int(dense.size)})

    def decode(self, artifacts: PredictorArtifacts, shape: tuple[int, ...],
               dtype: np.dtype, eb_abs: float, radius: int) -> np.ndarray:
        block = int(artifacts.meta["block"])
        if block != self.block:
            # the registry instance may use a different default; honour the
            # container's block size
            self = RegressionPredictor(block=block)
        padded_shape = tuple(int(x) for x in artifacts.meta["padded_shape"])
        ndim = len(shape)
        coeff_codes = artifacts.aux["coeffs"].astype(np.float64)
        quanta = np.array([eb_abs] + [2.0 * eb_abs / block] * ndim)
        coeffs_q = coeff_codes * quanta
        X, _ = self._design(ndim)
        pred = coeffs_q @ X.T
        codes64 = q.merge_outliers(artifacts.codes, artifacts.outliers,
                                   radius)
        recon_blocks = pred + codes64.reshape(pred.shape) * (2.0 * eb_abs)
        out = self._unblockify(recon_blocks, padded_shape, shape)
        return out.astype(dtype)


class AutoTransposePreprocess(PreprocessModule):
    """Axis-reordering preprocessor (the SZ dimension-ordering trick).

    Prediction quality depends on which axis is fastest-varying in memory;
    simulation output is often written with the smooth axis first.  This
    module samples the mean absolute first difference along every axis and
    transposes the field so the *smoothest* axis comes last (contiguous),
    recording the permutation for the backward pass.  Bound semantics are
    value-range relative, as for ``rel-eb`` (a transpose changes no
    values).
    """

    name = "auto-transpose"

    def forward(self, data: np.ndarray, eb: ErrorBound) -> PreprocessResult:
        lo, hi = float(data.min()), float(data.max())
        if data.ndim == 1:
            perm = (0,)
            out = data
        else:
            rough = [float(np.abs(np.diff(data, axis=a)).mean())
                     if data.shape[a] > 1 else np.inf
                     for a in range(data.ndim)]
            # roughest axes first, smoothest last
            perm = tuple(int(a) for a in np.argsort(rough)[::-1])
            out = np.ascontiguousarray(data.transpose(perm))
        return PreprocessResult(data=out, eb_abs=eb.absolute(lo, hi),
                                meta={"mode": eb.mode.value,
                                      "perm": list(perm)})

    def backward(self, data: np.ndarray, meta: dict) -> np.ndarray:
        perm = [int(p) for p in meta.get("perm", range(data.ndim))]
        inverse = np.argsort(perm)
        return np.ascontiguousarray(data.transpose(inverse))


# ---------------------------------------------------------------------- #
# fixed-length encoder module                                             #
# ---------------------------------------------------------------------- #
class FixedLenEncoder(EncoderModule):
    """cuSZp2-style per-block fixed-length primary codec.

    Recentres the unsigned quant codes, zigzag-maps them, and packs each
    32-value block at its own bit width.  No entropy coding, no global
    statistics — the throughput-first choice, composable with any
    predictor."""

    name = "fixedlen"
    needs_statistics = False

    def __init__(self, block: int = fl.BLOCK_VALUES) -> None:
        self.block = block

    def encode(self, codes: np.ndarray, num_bins: int,
               hist: HistogramResult | None) -> EncodedStream:
        radius = num_bins // 2
        zz = bs.zigzag(codes.astype(np.int64) - radius)
        enc = fl.encode(zz.astype(np.uint32), block=self.block)
        return EncodedStream(
            sections={"enc.widths": enc.widths, "enc.payload": enc.payload},
            meta={"count": enc.count, "block": enc.block})

    def decode(self, stream: EncodedStream, count: int, num_bins: int
               ) -> np.ndarray:
        enc = fl.FixedLenEncoded(widths=stream.sections["enc.widths"],
                                 payload=stream.sections["enc.payload"],
                                 count=int(stream.meta["count"]),
                                 block=int(stream.meta["block"]))
        zz = fl.decode(enc)
        signed = bs.unzigzag(zz.astype(np.uint64))
        out = signed + num_bins // 2
        if out.size != count:
            raise CodecError("fixedlen decode count mismatch")
        if out.size and (int(out.min()) < 0 or int(out.max()) >= num_bins):
            raise CodecError("fixedlen decode produced out-of-range code")
        return out.astype(np.uint16 if num_bins <= 65536 else np.uint32)
