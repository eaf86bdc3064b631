"""The fused read pass: its ``int32`` range proof and ``int64`` fallback.

``fused_decode_reconstruct`` sweeps an ``int32`` grid and keeps the
result only when two checks prove it equal to the exact integer sweep
(see the ``repro.compile.fused`` module docstring):

* check 0, before the sweep: every delta (outlier values, and codes
  wider than 16 bits) lies strictly inside ``(-2**31, 2**31)``;
* check 1, after it: ``max|r| <= (2**31 - 1) >> ndim``.

Failing check 0 goes straight to ``int64``; failing check 1 redoes the
sweep in ``int64``.  Every case is built from the deltas it feeds in and
compared bit for bit with ``kernels.lorenzo.decompress_parts``, the
module-call chain on an ``int64`` grid.  The width each call took is read
off the ``compile.fused_decode_grid`` counter, so a check that is off by
one, missing or too loose fails here even where it would only change the
width and not the values.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compile.fused import fused_decode_reconstruct
from repro.data import get_dataset
from repro.kernels import lorenzo
from repro.kernels.quantize import OutlierSet, split_outliers
from repro.obs.metrics import GLOBAL_METRICS

RADIUS = 512
EB = 0.25
THREADS = (1, 2, 3)
WIDTHS = ("int32", "int64", "int64_retry")
#: slab-splittable along axis 0 at every width in THREADS
SHAPES = {1: (50,), 2: (9, 11), 3: (6, 5, 7)}


def _bound(ndim: int) -> int:
    return (2**31 - 1) >> ndim


def _sums(shape, *points) -> np.ndarray:
    """Deltas whose exact sweep is zero except ``T[p] = v`` per point."""
    total = np.zeros(shape, dtype=np.int64)
    for where, value in points:
        total[where] = value
    return lorenzo.lorenzo_forward(total)


def _spike(shape, value) -> np.ndarray:
    """Deltas zero except one outlier of ``value`` at the last element."""
    deltas = np.zeros(shape, dtype=np.int64)
    deltas.reshape(-1)[-1] = value
    return deltas


def _aliasing(shape) -> np.ndarray:
    """Deltas that fit ``int32`` whose sums wrap it and land back inside
    ``(2**31 - 1) >> (ndim - 1)``: a ``±M`` checkerboard on the first
    ``2**ndim`` corner, whose Lorenzo corner value ``2**ndim * M`` is
    folded back into ``int32``.  Only a bound that is twice too loose
    lets the wrapped sweep through."""
    ndim = len(shape)
    m = (2**31 - 1) >> (ndim - 1)
    corner = np.indices((2,) * ndim).sum(axis=0)
    total = np.zeros(shape, dtype=np.int64)
    total[(slice(0, 2),) * ndim] = np.where(corner % 2, -m, m)
    deltas = lorenzo.lorenzo_forward(total)
    folded = (deltas + 2**31) % 2**32 - 2**31
    assert not np.array_equal(folded, deltas)
    return folded


def _at_bound(shape):
    b = _bound(len(shape))
    mid = tuple(n // 2 for n in shape)
    return _sums(shape, (mid, b), ((-1,) * len(shape), -b))


def _past_bound(sign):
    def deltas(shape):
        mid = tuple(n // 2 for n in shape)
        return _sums(shape, (mid, sign * (_bound(len(shape)) + 1)))
    return deltas


#: name -> (deltas for a shape, the width the pass must take)
CASES = {
    "at_bound": (_at_bound, "int32"),
    "past_bound": (_past_bound(1), "int64_retry"),
    "past_bound_negative": (_past_bound(-1), "int64_retry"),
    "outlier_int32_max": (lambda s: _spike(s, 2**31 - 1), "int64_retry"),
    "outlier_int32_min_plus_one": (lambda s: _spike(s, -(2**31 - 1)),
                                   "int64_retry"),
    "outlier_2_31": (lambda s: _spike(s, 2**31), "int64"),
    "outlier_minus_2_31": (lambda s: _spike(s, -2**31), "int64"),
    # wraps to a small int32 value: only check 0 keeps it off int32
    "outlier_2_32_plus_3": (lambda s: _spike(s, 2**32 + 3), "int64"),
    "outlier_minus_2_40": (lambda s: _spike(s, -2**40), "int64"),
    "wrapping_sums": (_aliasing, "int64_retry"),
}


def _parts(deltas: np.ndarray):
    codes, outliers = split_outliers(deltas, RADIUS)
    return codes.reshape(-1), outliers


def _steps(call) -> list[int]:
    """How far ``call()`` moved each width's counter."""
    def counts():
        return [GLOBAL_METRICS.value("compile.fused_decode_grid", width=w)
                or 0 for w in WIDTHS]
    before = counts()
    call()
    return [a - b for a, b in zip(counts(), before)]


def _decode(codes, outliers, shape, dtype, threads, radius=RADIUS):
    """The fused pass's output and the grid width it counted."""
    got = []
    steps = _steps(lambda: got.append(fused_decode_reconstruct(
        codes, outliers, radius, EB, shape, dtype, threads=threads)))
    assert sorted(steps) == [0, 0, 1]
    return got[0], WIDTHS[steps.index(1)]


def _assert_matches(codes, outliers, shape, dtype, width, radius=RADIUS):
    ref = lorenzo.decompress_parts(codes, outliers, radius, EB, shape,
                                   dtype)
    for threads in THREADS:
        out, got = _decode(codes, outliers, shape, dtype, threads, radius)
        assert out.tobytes() == ref.tobytes(), f"threads={threads}"
        assert got == width, f"threads={threads}"


@pytest.mark.parametrize("ndim", sorted(SHAPES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_width_and_values(case, ndim, dtype):
    build, width = CASES[case]
    shape = SHAPES[ndim]
    codes, outliers = _parts(build(shape))
    _assert_matches(codes, outliers, shape, dtype, width)


@pytest.mark.parametrize("ndim", sorted(SHAPES))
def test_honest_codes(ndim, dtype, rng):
    shape = SHAPES[ndim]
    data = np.cumsum(rng.standard_normal(shape), axis=0).astype(dtype)
    res = lorenzo.compress(data, 1e-3 * float(np.ptp(data)), RADIUS)
    _assert_matches(res.codes, res.outliers, shape, dtype, "int32")


@pytest.mark.parametrize("ndim", sorted(SHAPES))
def test_random_wide_deltas(ndim, rng):
    # any delta inside int32 is legal input; random ones wrap the sums
    shape = SHAPES[ndim]
    deltas = rng.integers(-2**31 + 1, 2**31, shape, dtype=np.int64)
    codes, outliers = _parts(deltas)
    _assert_matches(codes, outliers, shape, np.float64, "int64_retry")


def test_wide_codes_are_range_checked():
    # 32-bit codes are not bounded by the alphabet here: one that rebases
    # to 2**31 must keep the pass off int32 like an outlier would
    radius = 2**20
    shape = SHAPES[2]
    codes = np.full(int(np.prod(shape)), radius, dtype=np.uint32)
    empty = OutlierSet(indices=np.zeros(0, np.int64),
                       values=np.zeros(0, np.int64))
    _assert_matches(codes, empty, shape, np.float64, "int32", radius)
    codes[-1] = 2**31 + radius
    _assert_matches(codes, empty, shape, np.float64, "int64", radius)


def test_bench_shaped_decompress_stays_on_int32():
    spec = get_dataset("hurr")
    a, b = (spec.load(scale=0.34, seed=seed) for seed in (1000, 2000))
    field = (np.cos(np.pi / 4) * a + np.sin(np.pi / 4) * b) \
        .astype(np.float32)
    assert field.shape == (34, 170, 170)
    blob = repro.compress(field, "fzmod-speed", 1e-3).blob
    assert _steps(lambda: repro.decompress(blob)) == [1, 0, 0]


def test_negative_outlier_index_stays_on_one_slab():
    # a negative index wraps as in ``merge_outliers``; the slab split's
    # binary search cannot route it, so every width must fall back to
    # the one-slab scatter rather than drop it
    shape = SHAPES[3]
    codes = np.full(int(np.prod(shape)), RADIUS, dtype=np.uint16)
    outliers = OutlierSet(indices=np.array([-1, 3], dtype=np.int64),
                          values=np.array([9000, -700], dtype=np.int64))
    _assert_matches(codes, outliers, shape, np.float32, "int32")
