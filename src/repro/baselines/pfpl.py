"""PFPL baseline: quantise + delta + bit-shuffle + zero elimination.

PFPL [Fallin et al., IPDPS'25] is the LC-framework-built portable
compressor: an efficient quantiser followed by delta coding, bit-shuffle
and zero elimination, with strictly enforced error bounds (its "NOA" bound
type equals the value-range-relative bound every other compressor uses
here, per §4.2 of the paper).

On smooth fields the delta stage turns pre-quantised values into near-zero
streams whose shuffled bit planes are almost entirely zero words — the
hierarchical elimination then yields the three-digit ratios PFPL posts at
loose bounds in Table 3 (best GPU-side CR in 9 of 12 cells).
"""

from __future__ import annotations

import numpy as np

from ..core.header import ContainerHeader
from ..errors import CodecError
from ..kernels import bitshuffle as bs
from ..kernels import delta, dictionary, quantize
from .base import Compressor
from .fzgpu import _unshuffled_codes


class PFPL(Compressor):
    """Portable CPU/GPU compressor with guaranteed bounds."""

    name = "pfpl"

    def __init__(self, word_bytes: int = 4, shuffle_block: int = 256) -> None:
        self.word_bytes = word_bytes
        self.shuffle_block = shuffle_block

    def _encode(self, data: np.ndarray, eb_abs: float
                ) -> tuple[dict[str, bytes], dict]:
        grid = quantize.prequantize(data, eb_abs)
        deltas = delta.delta_forward(grid)
        zz = bs.zigzag(deltas)
        if zz.size and int(zz.max()) >= 2**32:
            raise CodecError("error bound too tight for 32-bit bitshuffle")
        shuffled = bs.shuffle(zz.astype(np.uint32), width_bits=32,
                              block=self.shuffle_block)
        z = dictionary.eliminate(shuffled, word_bytes=self.word_bytes)
        return ({"bitmap2": z.bitmap2, "bitmap1": z.bitmap1, "words": z.words},
                {"count": int(zz.size), "orig_len": z.orig_len,
                 "word_bytes": z.word_bytes, "block": self.shuffle_block,
                 "code_fraction": z.nbytes() / data.nbytes})

    def _decode(self, sections: dict[str, bytes], meta: dict,
                header: ContainerHeader) -> np.ndarray:
        zz = _unshuffled_codes(sections, meta, header, self.name)
        deltas = bs.unzigzag(zz.astype(np.uint64))
        grid = delta.delta_inverse(deltas)
        out = quantize.dequantize(grid, header.eb_abs, header.np_dtype)
        return out.reshape(header.shape)
