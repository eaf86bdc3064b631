"""FZ-GPU baseline: fused Lorenzo + bitshuffle + dictionary encoding.

FZ-GPU [Zhang et al., HPDC'23] keeps cuSZ's multidimensional Lorenzo
predictor but replaces Huffman with a fused zigzag + bit-plane shuffle +
zero-block dictionary stage.  Working on full-width (32-bit) zigzagged
residuals avoids the outlier side channel entirely, and the fused kernel
eliminates zeros at fine (8-byte) word granularity — both of which give it
a better ratio than the staged FZMod-Speed pipeline built from the same
techniques (the module default is a coarser 32-byte compaction word), as
Table 3 shows.
"""

from __future__ import annotations

import numpy as np

from ..core.header import ContainerHeader
from ..errors import CodecError
from ..kernels import bitshuffle as bs
from ..kernels import dictionary, lorenzo, quantize
from .base import Compressor, _checked_ints, _checked_sections

#: the widest shuffle block a container may declare (the default is 1024)
_MAX_BLOCK = 1 << 20


class FZGPU(Compressor):
    """Fused bitshuffle/dictionary GPU compressor."""

    name = "fzgpu"

    def __init__(self, word_bytes: int = 8, shuffle_block: int = 1024) -> None:
        self.word_bytes = word_bytes
        self.shuffle_block = shuffle_block

    def _encode(self, data: np.ndarray, eb_abs: float
                ) -> tuple[dict[str, bytes], dict]:
        grid = quantize.prequantize(data, eb_abs)
        deltas = lorenzo.lorenzo_forward(grid)
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
        deltas = bs.unzigzag(zz.astype(np.uint64)).reshape(header.shape)
        grid = lorenzo.lorenzo_inverse(deltas)
        return quantize.dequantize(grid, header.eb_abs, header.np_dtype)


def _unshuffled_codes(sections: dict[str, bytes], meta: dict,
                     header: ContainerHeader, who: str) -> np.ndarray:
    """The zigzagged 32-bit codes of a shuffle + zero-elimination
    container (``fzgpu``, ``pfpl``): its sections and integer metadata
    are checked against the header before any of them sizes a read."""
    _checked_sections(sections, who, "bitmap2", "bitmap1", "words")
    n = header.element_count
    fields = _checked_ints(meta, who, count=(n, n), block=(8, _MAX_BLOCK),
                          word_bytes=(1, 1 << 16), orig_len=(0, 1 << 62))
    # a block that is not a multiple of 8 is refused here too
    if fields["orig_len"] != bs.shuffled_size(n, 32, fields["block"]):
        raise CodecError(f"{who} orig_len does not match count and block")
    z = dictionary.ZeroEliminated(
        bitmap2=sections["bitmap2"], bitmap1=sections["bitmap1"],
        words=sections["words"], orig_len=fields["orig_len"],
        word_bytes=fields["word_bytes"])
    return bs.unshuffle(dictionary.restore(z), n, width_bits=32,
                        block=fields["block"])
