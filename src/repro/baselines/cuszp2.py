"""cuSZp2 baseline: fused 1-D offset prediction + fixed-length encoding.

cuSZp2 [Huang et al., SC'24] optimises for end-to-end throughput with a
single fused kernel: pre-quantise, predict each value from its predecessor
in the flattened stream, zigzag the residual, and pack each 32-value block
at the block's maximal bit width.  No entropy coding, no outliers — every
residual width is representable — which is why it is the throughput leader
but rarely the ratio leader in Table 3.
"""

from __future__ import annotations

import numpy as np

from ..core.header import ContainerHeader
from ..errors import CodecError
from ..kernels import bitshuffle as bs
from ..kernels import fixedlen as fl
from ..kernels import lorenzo, quantize
from .base import Compressor, _checked_ints, _checked_sections

#: the widest block a container may declare: the decoder's scratch is
#: one block per width-table entry (the default block is 32 values)
_MAX_BLOCK = 1 << 20


class CuSZp2(Compressor):
    """Fused-kernel GPU compressor (throughput-optimised)."""

    name = "cuszp2"

    def __init__(self, block: int = fl.BLOCK_VALUES) -> None:
        self.block = block

    def _encode(self, data: np.ndarray, eb_abs: float
                ) -> tuple[dict[str, bytes], dict]:
        grid = quantize.prequantize(data, eb_abs)
        deltas = lorenzo.offset1d_forward(grid)
        zz = bs.zigzag(deltas)
        if zz.size and int(zz.max()) >= 2**32:
            raise CodecError("error bound too tight for 32-bit fixed-length "
                             "encoding")
        enc = fl.encode(zz.astype(np.uint32), block=self.block)
        return ({"widths": enc.widths, "payload": enc.payload},
                {"count": enc.count, "block": enc.block,
                 "code_fraction": enc.nbytes() / data.nbytes})

    def _decode(self, sections: dict[str, bytes], meta: dict,
                header: ContainerHeader) -> np.ndarray:
        _checked_sections(sections, self.name, "widths", "payload")
        n = header.element_count
        fields = _checked_ints(meta, self.name, count=(n, n),
                              block=(1, _MAX_BLOCK))
        enc = fl.FixedLenEncoded(widths=sections["widths"],
                                 payload=sections["payload"],
                                 count=n, block=fields["block"])
        zz = fl.decode(enc).astype(np.uint64)
        deltas = bs.unzigzag(zz)
        grid = lorenzo.offset1d_inverse(deltas)
        out = quantize.dequantize(grid, header.eb_abs, header.np_dtype)
        return out.reshape(header.shape)
