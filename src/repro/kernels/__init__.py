"""High-performance data-reduction kernels.

Every kernel is formulated data-parallel (whole-array NumPy operations,
never per-element Python loops on hot paths), mirroring the CUDA kernels of
the systems being reproduced:

================  =====================================================
module            models
================  =====================================================
``bitio``         shared bit-packing primitives
``quantize``      cuSZ dual-quantization pre-quantiser + outlier channel
``lorenzo``       cuSZ multidimensional Lorenzo predictor (+ cuSZp2's
                  1-D offset predictor)
``interp``        cuSZ-i G-Interp multilevel spline interpolation
``histogram``     cuSZ GPU histogram modules (standard, top-k)
``huffman``       cuSZ chunked canonical Huffman (package-merge limited,
                  segment-parallel decode)
``bitshuffle``    FZ-GPU / PFPL bit-plane shuffle (+ zigzag mapping)
``dictionary``    FZ-GPU dictionary / PFPL hierarchical zero elimination
``delta``         PFPL delta coding
``fixedlen``      cuSZp2 per-block fixed-length encoding
``deflate``       stdlib DEFLATE, the zstd-role lossless backend
================  =====================================================
"""

from . import (bitio, bitshuffle, deflate, delta, dictionary, fixedlen,
               histogram, huffman, interp, lorenzo, quantize)

__all__ = [
    "bitio", "bitshuffle", "deflate", "delta", "dictionary", "fixedlen",
    "histogram", "huffman", "interp", "lorenzo", "quantize",
]
