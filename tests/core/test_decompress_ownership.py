"""Decompression returns exactly one writable, self-owned array.

The zero-copy section plumbing (memoryview slices through
``split_sections``) must never leak into the caller: the array handed
back by ``decompress`` is writable, owns its data, and is not a view
pinning the (potentially large) container blob alive.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import decompress, fzmod_default, get_preset
from repro.types import EbMode


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    y, x = np.mgrid[0:96, 0:64]
    return (np.sin(x / 9.0) * np.cos(y / 7.0) * 40.0).astype(np.float32)


def _assert_owned(out: np.ndarray, field: np.ndarray) -> None:
    assert out.flags.writeable
    assert out.base is None and out.flags.owndata
    out[...] = 0.0                                   # mutation must be legal
    assert out.shape == field.shape and out.dtype == field.dtype


@pytest.mark.parametrize("preset", ["fzmod-default", "fzmod-speed",
                                    "fzmod-quality"])
def test_single_container_output_is_owned(field, preset):
    pipe = get_preset(preset)
    cf = pipe.compress(field, 1e-3, EbMode.REL)
    _assert_owned(decompress(cf.blob), field)


def test_sharded_container_output_is_owned(field):
    cf = repro.compress(field, "fzmod-default", 1e-3, workers=2,
                        shard_mb=0.01)
    _assert_owned(decompress(cf.blob), field)


def test_mutating_the_output_does_not_corrupt_the_cache(field):
    """A second decompress of the same blob must not see the mutation."""
    blob = fzmod_default().compress(field, 1e-3, EbMode.REL).blob
    first = decompress(blob)
    reference = first.copy()
    first[...] = -1.0
    assert np.array_equal(decompress(blob), reference)


# --------------------------------------------------------------------- #
# custom modules returning awkward arrays: the reconstruct_field        #
# contract must normalise them to C-contiguous, header-dtype, owned     #
# --------------------------------------------------------------------- #

def _doctored_registry(backward):
    """A scratch registry whose rel-eb preprocessor has ``backward``."""
    from repro.core.modules_std import RelEbPreprocess
    from repro.core.registry import _build_default

    class Doctored(RelEbPreprocess):
        pass

    Doctored.backward = staticmethod(backward)
    reg = _build_default()
    reg.register(Doctored(), replace=True)
    return reg


def test_fortran_order_backward_is_made_c_contiguous(field):
    blob = fzmod_default().compress(field, 1e-3, EbMode.REL).blob
    reg = _doctored_registry(
        lambda data, meta: np.asfortranarray(data))
    out = decompress(blob, reg)
    assert out.flags.c_contiguous
    _assert_owned(out, field)
    assert np.array_equal(decompress(blob, reg), decompress(blob))


def test_foreign_dtype_backward_is_coerced_to_header_dtype(field):
    blob = fzmod_default().compress(field, 1e-3, EbMode.REL).blob
    reg = _doctored_registry(
        lambda data, meta: data.astype(np.float64))
    out = decompress(blob, reg)
    assert out.dtype == field.dtype          # header says float32
    assert out.flags.c_contiguous
    _assert_owned(out, field)
    assert np.array_equal(decompress(blob, reg), decompress(blob))


def test_sharded_reassembly_of_view_returning_backward_is_owned(field):
    """Shard reassembly must also normalise zero-copy shard views."""
    cf = repro.compress(field, "fzmod-default", 1e-3, workers=2,
                        shard_mb=0.01)
    reg = _doctored_registry(
        lambda data, meta: np.asfortranarray(data))
    out = decompress(cf.blob, reg)
    assert out.flags.c_contiguous
    _assert_owned(out, field)
    assert np.array_equal(decompress(cf.blob, reg), decompress(cf.blob))
