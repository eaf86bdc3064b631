"""The fused write pass at its block and slab seams.

``fused_predict_quantize`` walks axis-0 row ranges in blocks of
``max(1, _BLOCK_ELEMS // plane)`` rows, each block recomputing its ghost
row, and picks ``int32`` or ``int64`` grids from the width rule.  Every
field here spans at least three blocks with a ragged last one, and the
pass must agree exactly with the module calls it fuses:
``kernels.lorenzo.compress`` followed by ``np.bincount``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import fused
from repro.compile.fused import fused_predict_quantize, scaled_magnitude_bound
from repro.kernels import lorenzo
from repro.runtime.threads import slab_ranges

RADIUS = 512
THREADS = (1, 2, 3)
#: the axis-0 length is 3 1/2 blocks, so the last block is ragged
PLANES = {1: (), 2: (1000,), 3: (40, 50)}


def _rows(plane_shape: tuple[int, ...]) -> int:
    return max(1, fused._BLOCK_ELEMS // int(np.prod(plane_shape, dtype=int)))


def _seam_rows(n0: int, rows: int) -> set[int]:
    """First rows of every block after the first, at every width."""
    seams = set()
    for width in THREADS:
        for s0, e0 in slab_ranges(n0, width):
            seams.update(range(s0, e0, rows))
    seams.discard(0)
    return seams


def _field(ndim: int, rng) -> tuple[np.ndarray, float]:
    plane_shape = PLANES[ndim]
    rows = _rows(plane_shape)
    n0 = 3 * rows + rows // 2
    assert n0 % rows and n0 // rows >= 3
    data = np.cumsum(rng.standard_normal((n0,) + plane_shape), axis=0)
    eb = 1e-3 * float(np.ptp(data))
    # spikes on both sides of every seam: outliers straddle the blocks
    plane = data.reshape(n0, -1)
    for row in sorted(_seam_rows(n0, rows)):
        cols = rng.choice(plane.shape[1], min(5, plane.shape[1]),
                          replace=False)
        plane[row - 1, cols] += 5e3 * eb
        plane[row, cols[::2]] -= 7e3 * eb
    return data.astype(np.float32), eb


def _assert_matches_module_calls(data, eb, *, threads, collect_counts,
                                 scaled_bound):
    codes, outliers, counts = fused_predict_quantize(
        data, eb, RADIUS, 2 * RADIUS, collect_counts=collect_counts,
        scaled_bound=scaled_bound, threads=threads)
    ref = lorenzo.compress(data, eb, RADIUS)
    ref_codes = ref.codes.reshape(-1)
    assert codes.dtype == ref_codes.dtype
    np.testing.assert_array_equal(codes, ref_codes)
    np.testing.assert_array_equal(outliers.indices, ref.outliers.indices)
    np.testing.assert_array_equal(outliers.values, ref.outliers.values)
    assert outliers.values.dtype == np.int64
    if collect_counts:
        np.testing.assert_array_equal(
            counts, np.bincount(ref_codes, minlength=2 * RADIUS))
    else:
        assert counts is None
    return outliers


@pytest.mark.parametrize("collect_counts", [True, False])
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("ndim", sorted(PLANES))
def test_seams_match_module_calls(rng, ndim, threads, collect_counts):
    data, eb = _field(ndim, rng)
    bound = scaled_magnitude_bound(float(data.min()), float(data.max()), eb)
    outliers = _assert_matches_module_calls(
        data, eb, threads=threads, collect_counts=collect_counts,
        scaled_bound=bound)
    # the spikes did land on the seams
    rows_hit = set((outliers.indices // (data.size // data.shape[0]))
                   .tolist())
    seams = _seam_rows(data.shape[0], _rows(PLANES[ndim]))
    assert seams <= rows_hit and {s - 1 for s in seams} <= rows_hit


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("ndim", sorted(PLANES))
def test_tight_absolute_bound_takes_int64_grids(rng, ndim, threads):
    data, _ = _field(ndim, rng)
    data = data.astype(np.float64) * 1e3
    eb = 1e-7
    bound = scaled_magnitude_bound(float(data.min()), float(data.max()), eb)
    assert (bound + 1) * 2**ndim + RADIUS >= 2**31
    # absolute-bound mode: no precomputed bound
    _assert_matches_module_calls(data, eb, threads=threads,
                                 collect_counts=True, scaled_bound=None)


@pytest.mark.parametrize("excess", [0, 1, 1 << 20],
                         ids=["int32-edge", "int64-edge", "past-int32"])
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("ndim", sorted(PLANES))
def test_field_at_the_int32_limit(rng, ndim, threads, excess):
    # eb = 0.5 makes the scaled value the value itself; excess 0 is the
    # largest bound with (bound + 1) * 2**ndim + RADIUS < 2**31, 1 the
    # first past it, and 2**20 one whose deltas overflow int32
    top = (2**31 - 1 - RADIUS) // 2**ndim - 1 + excess
    assert ((top + 1) * 2**ndim + RADIUS < 2**31) is (excess == 0)
    shape = (3 * _rows(PLANES[ndim]) + 1,) + PLANES[ndim]
    # a +-top checkerboard gives every interior delta its extreme,
    # +-top * 2**ndim, so the grids are used right up to their edge
    sign = np.indices(shape).sum(axis=0) % 2 * 2 - 1
    data = (sign * top).astype(np.float64)
    noisy = rng.random(shape) < 0.1
    data[noisy] = rng.integers(-top, top + 1, int(noisy.sum()))
    _assert_matches_module_calls(data, 0.5, threads=threads,
                                 collect_counts=True, scaled_bound=float(top))
