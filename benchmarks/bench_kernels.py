"""Kernel microbenchmarks.

Wall-clock of every data-parallel kernel on a fixed 1M-element workload —
the numbers a contributor checks before/after touching a kernel (the asv
role).  Not compared to the paper: these are NumPy, not CUDA.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.fused import (fused_decode_reconstruct,
                                 fused_predict_quantize)
from repro.core.modules_std import BitshuffleEncoder
from repro.kernels import (bitshuffle, delta, dictionary, fixedlen,
                           histogram, huffman, interp, lorenzo, quantize)

N = 1 << 20


@pytest.fixture(scope="module")
def field3d() -> np.ndarray:
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.standard_normal((64, 128, 128)), axis=0)
    return base.astype(np.float32)


@pytest.fixture(scope="module")
def codes(field3d) -> np.ndarray:
    eb = float(np.ptp(field3d)) * 1e-4
    return lorenzo.compress(field3d, eb).codes.reshape(-1)


#: 1M elements at each rank the interp predictor supports: the schedule is
#: 8 one-axis levels in 1-D, 5 x 2 batches in 2-D and 4 x 3 in 3-D, and a
#: batch's inner loops run along the last axis, so the ranks time
#: differently; float64 is the path without the widening reads and without
#: the final cast.
INTERP_SHAPES = {"1d": (N,), "2d": (1024, 1024), "3d": (64, 128, 128)}


@pytest.fixture(scope="module",
                params=[(rank, dtype) for rank in sorted(INTERP_SHAPES)
                        for dtype in ("float32", "float64")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def interp_field(request) -> np.ndarray:
    rank, dtype = request.param
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.standard_normal(INTERP_SHAPES[rank]), axis=0)
    return base.astype(dtype)


#: Laplace scale of synthetic quantisation codes, named by the Huffman
#: bits/symbol it gives: the bench workloads ``default_3d`` (2.5) and
#: ``stream_1d_file`` (4.1).  Decode time should follow the bits.
HUFFMAN_STREAMS = {"2.5bit": 0.95, "4.1bit": 3.1}


def _laplace_symbols(scale: float, n: int = N) -> np.ndarray:
    noise = np.random.default_rng(1).laplace(0, scale, n)
    return np.clip(np.rint(noise) + 512, 0, 1023).astype(np.uint16)


@pytest.fixture(scope="module", params=sorted(HUFFMAN_STREAMS))
def huffman_stream(request) -> tuple[np.ndarray, huffman.Codebook]:
    symbols = _laplace_symbols(HUFFMAN_STREAMS[request.param])
    return symbols, huffman.build_codebook(
        np.bincount(symbols, minlength=1024))


#: (symbols, Laplace scale, live bins, deeper than ``max_len`` 16?) of the
#: histograms ``build_codebook`` is timed on, named by what they exercise:
#: a small field whose Huffman tree stays under the limit (the merge loop
#: only), a ``default_3d``-like one whose thin tails go past it (merge
#: loop, then package-merge over few leaves), and a ``stream_1d_file``-like
#: shard with most bins live (the same over many).
HUFFMAN_HISTOGRAMS = {"24-live-unlimited": (1 << 17, 1.0, 24, False),
                      "41-live-limited": (1 << 20, 1.55, 41, True),
                      "626-live-limited": (1 << 19, 33.0, 626, True)}


def _hard_stream(name: str) -> tuple[np.ndarray, huffman.Codebook]:
    """Decode streams that take the walker's other paths.

    ``all-3bit``: every code is 3 bits, so every lane is in step from its
    first code.  ``exit-table``: ``110`` and then ``01`` over and over
    under the book 00, 01, 10, 110, 111; a lead-in that starts on an even
    bit reads ``10`` for ever, so no lane falls into step by itself and
    all but a few go through the exit table.
    """
    if name == "all-3bit":
        symbols = np.random.default_rng(1).integers(0, 8, N)
        return symbols.astype(np.uint32), huffman.Codebook(np.full(8, 3))
    symbols = np.ones(N, dtype=np.uint32)
    symbols[0] = 3
    return symbols, huffman.Codebook(np.array([2, 2, 2, 3, 3]))


class TestPredictorKernels:
    def test_lorenzo_compress(self, benchmark, field3d):
        eb = float(np.ptp(field3d)) * 1e-4
        benchmark(lorenzo.compress, field3d, eb)

    def test_lorenzo_decompress(self, benchmark, field3d):
        eb = float(np.ptp(field3d)) * 1e-4
        res = lorenzo.compress(field3d, eb)
        benchmark(lorenzo.decompress, res)

    def test_interp_compress(self, benchmark, interp_field):
        eb = float(np.ptp(interp_field)) * 1e-4
        benchmark(interp.compress, interp_field, eb)

    def test_interp_decompress(self, benchmark, interp_field):
        eb = float(np.ptp(interp_field)) * 1e-4
        res = interp.compress(interp_field, eb)
        out = benchmark(interp.decompress, res)
        assert out.dtype == interp_field.dtype

    # the compiled plans' write pass: prequantize + Lorenzo + outlier
    # split, and with counts the histogram too, in one blocked pass
    @pytest.mark.parametrize("collect_counts", [False, True],
                             ids=["codes", "counts"])
    def test_fused_predict_quantize(self, benchmark, field3d, collect_counts):
        eb = float(np.ptp(field3d)) * 1e-4
        radius = quantize.DEFAULT_RADIUS
        codes, _, counts = benchmark(
            fused_predict_quantize, field3d, eb, radius, 2 * radius,
            collect_counts=collect_counts)
        assert np.array_equal(codes, lorenzo.compress(field3d, eb)
                              .codes.reshape(-1))
        assert (counts is not None) == collect_counts

    # the compiled plans' read pass: rebase, outlier scatter, inverse
    # Lorenzo sweep and dequantise over one int32 grid
    def test_fused_decode_reconstruct(self, benchmark, field3d):
        eb = float(np.ptp(field3d)) * 1e-4
        res = lorenzo.compress(field3d, eb)
        out = benchmark(fused_decode_reconstruct, res.codes, res.outliers,
                        res.radius, eb, field3d.shape, field3d.dtype)
        assert np.array_equal(out, lorenzo.decompress(res))

    def test_prequantize(self, benchmark, field3d):
        benchmark(quantize.prequantize, field3d, 0.01)


class TestStatisticsKernels:
    def test_histogram(self, benchmark, codes):
        benchmark(histogram.histogram, codes, 1024)

    def test_histogram_topk(self, benchmark, codes):
        benchmark(histogram.histogram_topk, codes, 1024, 16)


class TestEncoderKernels:
    # one chunk or two of the same 1M symbols: the decoder splits a chunk
    # into lanes itself, so the chunk count should not matter
    @pytest.mark.parametrize("histogram_name", sorted(HUFFMAN_HISTOGRAMS))
    def test_huffman_build_codebook(self, benchmark, histogram_name):
        n, scale, live, limited = HUFFMAN_HISTOGRAMS[histogram_name]
        counts = np.bincount(_laplace_symbols(scale, n), minlength=1024)
        assert np.count_nonzero(counts) == live
        book = benchmark(huffman.build_codebook, counts)
        # a tree cut down by package-merge has codes at the limit
        assert (int(book.lengths.max()) == book.max_len) == limited

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_huffman_encode(self, benchmark, huffman_stream, chunks):
        symbols, book = huffman_stream
        enc = benchmark(huffman.encode, symbols, book, N // chunks)
        assert enc.chunk_bits.size == chunks

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_huffman_decode(self, benchmark, huffman_stream, chunks):
        symbols, book = huffman_stream
        enc = huffman.encode(symbols, book, N // chunks)
        benchmark.extra_info["bits_per_symbol"] = round(
            float(enc.chunk_bits.sum()) / N, 2)
        out = benchmark(huffman.decode, enc)
        assert np.array_equal(out, symbols)

    @pytest.mark.parametrize("stream", ["all-3bit", "exit-table"])
    def test_huffman_decode_hard_stream(self, benchmark, stream):
        symbols, book = _hard_stream(stream)
        enc = huffman.encode(symbols, book)
        out = benchmark(huffman.decode, enc)
        assert np.array_equal(out, symbols)

    def test_bitshuffle(self, benchmark, codes):
        benchmark(bitshuffle.shuffle, codes.astype(np.uint16), 16)

    def test_bitunshuffle(self, benchmark, codes):
        values = codes.astype(np.uint16)
        payload = bitshuffle.shuffle(values, 16)
        out = benchmark(bitshuffle.unshuffle, payload, values.size, 16)
        assert np.array_equal(out, values)

    def test_zero_elimination(self, benchmark, codes):
        payload = bitshuffle.shuffle(codes.astype(np.uint16), 16)
        benchmark(dictionary.eliminate, payload)

    def test_bitshuffle_encoder_encode(self, benchmark, codes):
        """``fzmod-speed``'s whole tail, chunk by chunk: recentre, zigzag,
        shuffle and zero-word elimination."""
        benchmark(BitshuffleEncoder().encode, codes.astype(np.uint16), 1024,
                  None)

    def test_bitshuffle_encoder_decode(self, benchmark, codes):
        values = codes.astype(np.uint16)
        enc = BitshuffleEncoder()
        stream = enc.encode(values, 1024, None)
        out = benchmark(enc.decode, stream, values.size, 1024)
        assert np.array_equal(out, values)

    def test_fixedlen_encode(self, benchmark, codes):
        zz = bitshuffle.zigzag(codes.astype(np.int64) - 512)
        benchmark(fixedlen.encode, zz.astype(np.uint32))

    def test_delta(self, benchmark, codes):
        benchmark(delta.delta_forward, codes)


class TestThroughputSanity:
    def test_lorenzo_vectorisation_floor(self, field3d):
        """The hot path must stay vectorised: > 100 MB/s on any machine
        (a per-element Python loop would be ~1000x slower)."""
        import time
        eb = float(np.ptp(field3d)) * 1e-4
        t0 = time.perf_counter()
        lorenzo.compress(field3d, eb)
        dt = time.perf_counter() - t0
        assert field3d.nbytes / dt > 100e6
