"""Allocation ceilings for compress and decode.

A wall-clock figure moves with the machine; what a call allocates does
not.  Each test runs its call once to warm caches, then asserts
the ``tracemalloc`` peak of a second run against a ceiling: the peak this
code measured, plus 10 %.  A change that makes a call allocate more fails
here, on any machine.  Lower a ceiling when a change lowers the peak.

The compress and decompress ceilings are taken at ``threads=1``, on a
field the size of the bench's 3-D fields (3.9 MB).  Compress of
``fzmod-speed`` peaks at 1.1x
the field: the bitshuffle tail adds one chunk of scratch and the kept
words to the codes, not field-sized passes.  Decompress of
``fzmod-default`` and ``fzmod-speed`` holds the output, the fused read
pass's ``int32`` grid and the decoded codes; the bitshuffle decode adds
one chunk of scratch and a flag per word.  ``fzmod-quality`` walks
G-Interp in the field's ``float32``: its compress peaks at 2.5x the field
in the Huffman encode, after the walk (a ``float32`` reconstruction, the
``uint16`` codes and slab scratch, 1.7x) has let go of its
reconstruction; its decompress peaks at 3.05x in the Huffman decode,
and the walk that follows holds the output and slab scratch (1.1x).

``compress_stream`` from a memory-mapped file holds a window of slabs and
the in-flight shards' scratch, never the field: its peak is checked
against half the field.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.presets import get_preset
from repro.data import get_dataset
from repro.kernels import huffman
from repro.streaming.engine import compress_stream

#: measured peak in bytes, and the 10 % over it a change may not exceed
CEILINGS = {
    "huffman.decode": int(10_757_086 * 1.1),
    "fzmod-default": int(1_219_556 * 1.1),
    "fzmod-quality": int(1_080_692 * 1.1),
}

#: compress peaks on the 3.9 MB field, plus 10 %
COMPRESS_CEILINGS = {
    "fzmod-default": int(5_224_584 * 1.1),
    "fzmod-speed": int(4_381_704 * 1.1),
    "fzmod-quality": int(9_838_972 * 1.1),
}

#: decompress peaks on the 3.9 MB field, plus 10 %
DECOMPRESS_CEILINGS = {
    "fzmod-default": int(10_443_401 * 1.1),
    "fzmod-speed": int(9_970_409 * 1.1),
    "fzmod-quality": int(11_984_832 * 1.1),
}


def _peak(call) -> int:
    """The ``tracemalloc`` peak of ``call()`` after one warm-up run."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huffman_decode_of_a_one_million_symbol_chunk():
    # quantisation codes around the middle bin, about 2.5 bits a code as
    # on the bench's 3-D fields
    rng = np.random.default_rng(0)
    syms = (np.rint(rng.laplace(0.0, 1.2, huffman.DEFAULT_CHUNK))
            .clip(-32, 31).astype(np.int64) + 32).astype(np.uint32)
    enc = huffman.encode(syms, huffman.build_codebook(np.bincount(syms)))
    assert enc.chunk_bits.size == 1
    assert _peak(lambda: huffman.decode(enc)) <= CEILINGS["huffman.decode"]


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    """A small field shaped like the bench's: two hurricane-like base
    fields mixed at 45 degrees."""
    spec = get_dataset("hurr")
    a, b = (spec.load(scale=0.15, seed=seed) for seed in (1000, 2000))
    return (np.cos(np.pi / 4) * a + np.sin(np.pi / 4) * b).astype(np.float32)


@pytest.mark.parametrize("preset", ["fzmod-default", "fzmod-quality"])
def test_decompress_of_a_small_field(field, preset):
    blob = repro.compress(field, preset, 1e-3)
    assert _peak(lambda: repro.decompress(blob)) <= CEILINGS[preset]


@pytest.fixture(scope="module")
def bench_field() -> np.ndarray:
    """The small field's mix at the bench's 3-D scale: 34 x 170 x 170."""
    spec = get_dataset("hurr")
    a, b = (spec.load(scale=0.34, seed=seed) for seed in (1000, 2000))
    return (np.cos(np.pi / 4) * a + np.sin(np.pi / 4) * b).astype(np.float32)


@pytest.mark.parametrize("preset", sorted(COMPRESS_CEILINGS))
def test_compress_of_a_bench_sized_field_unpooled(bench_field, preset):
    # pinned serial: under FZMOD_THREADS each slab holds its own block
    # scratch, and the ceiling is the serial pass's
    peak = _peak(lambda: repro.compress(bench_field, preset, 1e-3,
                                          threads=1))
    assert peak <= COMPRESS_CEILINGS[preset]


@pytest.mark.parametrize("preset", sorted(DECOMPRESS_CEILINGS))
def test_decompress_of_a_bench_sized_field_unpooled(bench_field, preset):
    blob = repro.compress(bench_field, preset, 1e-3, threads=1).blob
    peak = _peak(lambda: repro.decompress(blob, threads=1))
    assert peak <= DECOMPRESS_CEILINGS[preset]


def test_compress_stream_of_a_memmap_never_holds_the_field(tmp_path):
    # 1-D like the stream_1d_file workload: 8 MB of float32 in 32 shards
    rng = np.random.default_rng(3)
    field = np.cumsum(rng.standard_normal(1 << 21)).astype(np.float32)
    path = tmp_path / "field.f32"
    field.tofile(path)
    src = np.memmap(path, dtype=np.float32, mode="r", shape=field.shape)
    out = str(tmp_path / "field.fzms")
    pipe = get_preset("fzmod-default")

    def run():
        return compress_stream(src, pipe, 1e-3, out_path=out, workers=1,
                               shard_mb=0.25)

    assert run().shard_count >= 8
    assert _peak(run) <= 0.5 * field.nbytes
