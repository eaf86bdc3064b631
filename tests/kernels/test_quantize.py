"""Tests for the error-controlled quantiser and outlier channel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CodecError
from repro.kernels import quantize as q


class TestPrequantize:
    def test_error_bound_holds(self, rng):
        data = rng.standard_normal(10000) * 100
        eb = 0.05
        grid = q.prequantize(data, eb)
        recon = q.dequantize(grid, eb, np.float64)
        assert np.abs(data - recon).max() <= eb * (1 + 1e-12)

    def test_constant_field(self):
        data = np.full(100, 7.5)
        grid = q.prequantize(data, 1.0)
        assert np.unique(grid).size == 1

    def test_rejects_nonpositive_eb(self):
        with pytest.raises(CodecError):
            q.prequantize(np.ones(4), 0.0)
        with pytest.raises(CodecError):
            q.prequantize(np.ones(4), -1.0)
        with pytest.raises(CodecError):
            q.prequantize(np.ones(4), float("nan"))

    def test_overflow_guard(self):
        with pytest.raises(CodecError):
            q.prequantize(np.array([1e30]), 1e-10)

    @given(hnp.arrays(np.float64, st.integers(1, 256),
                      elements=st.floats(-1e6, 1e6)),
           st.floats(1e-6, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_bound_property(self, data, eb):
        grid = q.prequantize(data, eb)
        recon = q.dequantize(grid, eb, np.float64)
        # values exactly on a half-grid point reach the bound exactly, so
        # allow one ulp of the data magnitude on top of the relative slack
        slack = np.spacing(np.abs(data).max())
        assert np.abs(data - recon).max() <= eb * (1 + 1e-9) + slack


class TestOutlierSplit:
    def test_partition_is_exact(self, rng):
        deltas = rng.integers(-5000, 5000, 4000)
        codes, out = q.split_outliers(deltas, radius=512)
        merged = q.merge_outliers(codes, out, radius=512)
        np.testing.assert_array_equal(merged, deltas)

    def test_no_outliers_for_small_deltas(self, rng):
        deltas = rng.integers(-511, 511, 1000)
        codes, out = q.split_outliers(deltas, radius=512)
        assert out.count == 0
        assert codes.dtype == np.uint16

    def test_all_outliers(self):
        deltas = np.array([10_000, -10_000, 99_999])
        codes, out = q.split_outliers(deltas, radius=512)
        assert out.count == 3
        # dense slots hold the sentinel (radius == zero residual)
        np.testing.assert_array_equal(codes, [512, 512, 512])

    def test_boundary_values(self):
        # radius-1 is predictable, radius is an outlier (code range [0, 2R))
        deltas = np.array([511, 512, -512, -513])
        codes, out = q.split_outliers(deltas, radius=512)
        assert out.count == 2
        assert set(out.values.tolist()) == {512, -513}

    def test_shape_preserved(self, rng):
        deltas = rng.integers(-100, 100, (13, 7))
        codes, _ = q.split_outliers(deltas)
        assert codes.shape == (13, 7)

    def test_rejects_bad_radius(self):
        with pytest.raises(CodecError):
            q.split_outliers(np.zeros(4, dtype=np.int64), radius=0)

    def test_merge_rejects_out_of_bounds_index(self):
        out = q.OutlierSet(indices=np.array([100], dtype=np.int64),
                           values=np.array([7], dtype=np.int64))
        with pytest.raises(CodecError):
            q.merge_outliers(np.zeros(10, dtype=np.uint16), out)

    @given(hnp.arrays(np.int64, st.integers(1, 512),
                      elements=st.integers(-2**40, 2**40)),
           st.integers(1, 4096))
    @settings(max_examples=100, deadline=None)
    def test_split_merge_property(self, deltas, radius):
        codes, out = q.split_outliers(deltas, radius=radius)
        merged = q.merge_outliers(codes, out, radius=radius)
        np.testing.assert_array_equal(merged, deltas)


class TestPackedOutliers:
    def test_round_trip(self, rng):
        idx = np.sort(rng.choice(10**6, 500, replace=False)).astype(np.int64)
        val = rng.integers(-2**20, 2**20, 500).astype(np.int64)
        out = q.OutlierSet(indices=idx, values=val)
        i, v, n = q.pack_outliers(out)
        back = q.unpack_outliers(i, v, n)
        np.testing.assert_array_equal(back.indices, idx)
        np.testing.assert_array_equal(back.values, val)

    def test_empty(self):
        out = q.OutlierSet(indices=np.zeros(0, dtype=np.int64),
                           values=np.zeros(0, dtype=np.int64))
        i, v, n = q.pack_outliers(out)
        assert n == 0 and i == b"" and v == b""
        back = q.unpack_outliers(i, v, 0)
        assert back.count == 0

    def test_resealed_width_above_32_refused(self):
        # a hand-edited index width byte (33) must raise, not unpack
        out = q.OutlierSet(indices=np.arange(32, dtype=np.int64),
                           values=np.full(32, 7, dtype=np.int64))
        i, v, n = q.pack_outliers(out)
        # one all-zero-delta block: a "<QI" header, one width byte (0),
        # no payload; widen it to 33 bits and supply that payload
        assert i[12] == 0 and len(i) == 13
        bad = i[:12] + bytes([33]) + b"\x5a" * (33 * 32 // 8)
        with pytest.raises(CodecError, match="exceeds 32 bits"):
            q.unpack_outliers(bad, v, n)

    def test_dense_outliers_are_compact(self):
        """Every element an outlier must cost far less than 16 B each."""
        n = 10_000
        out = q.OutlierSet(indices=np.arange(n, dtype=np.int64),
                           values=np.full(n, 123, dtype=np.int64))
        i, v, _ = q.pack_outliers(out)
        assert len(i) + len(v) < 3 * n

    def test_scatter_adds_values(self):
        out = q.OutlierSet(indices=np.array([1, 3], dtype=np.int64),
                           values=np.array([50, -7], dtype=np.int64))
        arr = np.zeros(5, dtype=np.int64)
        q.scatter_outliers_into(arr, out)
        np.testing.assert_array_equal(arr, [0, 50, 0, -7, 0])

    def test_wide_values_use_64bit_path(self):
        """Values beyond 32-bit zigzag range must round-trip (flag=1)."""
        idx = np.array([3, 10, 11], dtype=np.int64)
        val = np.array([2**40, -(2**45), 7], dtype=np.int64)
        out = q.OutlierSet(indices=idx, values=val)
        i, v, n = q.pack_outliers(out)
        assert v[0] == 1  # wide flag
        back = q.unpack_outliers(i, v, n)
        np.testing.assert_array_equal(back.indices, idx)
        np.testing.assert_array_equal(back.values, val)

    def test_narrow_values_use_32bit_path(self):
        out = q.OutlierSet(indices=np.array([0], dtype=np.int64),
                           values=np.array([100], dtype=np.int64))
        _, v, _ = q.pack_outliers(out)
        assert v[0] == 0  # narrow flag

    @given(st.lists(st.tuples(st.integers(0, 10**7),
                              st.integers(-2**60, 2**60 - 1)),
                    min_size=1, max_size=100, unique_by=lambda t: t[0]))
    @settings(max_examples=40, deadline=None)
    def test_pack_property_wide(self, pairs):
        pairs.sort()
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        val = np.array([p[1] for p in pairs], dtype=np.int64)
        out = q.OutlierSet(indices=idx, values=val)
        i, v, n = q.pack_outliers(out)
        back = q.unpack_outliers(i, v, n)
        np.testing.assert_array_equal(back.indices, idx)
        np.testing.assert_array_equal(back.values, val)

    @given(st.lists(st.tuples(st.integers(0, 10**7),
                              st.integers(-2**30, 2**30 - 1)),
                    min_size=1, max_size=200, unique_by=lambda t: t[0]))
    @settings(max_examples=50, deadline=None)
    def test_pack_property(self, pairs):
        pairs.sort()
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        val = np.array([p[1] for p in pairs], dtype=np.int64)
        out = q.OutlierSet(indices=idx, values=val)
        i, v, n = q.pack_outliers(out)
        back = q.unpack_outliers(i, v, n)
        np.testing.assert_array_equal(back.indices, idx)
        np.testing.assert_array_equal(back.values, val)
