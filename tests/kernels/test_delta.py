"""Tests for PFPL delta coding."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import delta


class TestDelta:
    def test_roundtrip(self, rng):
        v = rng.integers(-10**9, 10**9, 5000)
        np.testing.assert_array_equal(delta.delta_inverse(delta.delta_forward(v)), v)

    def test_second_order_roundtrip(self, rng):
        v = rng.integers(-10**6, 10**6, 1000)
        np.testing.assert_array_equal(
            delta.delta2_inverse(delta.delta2_forward(v)), v)

    def test_smooth_data_becomes_small(self):
        v = np.arange(0, 10000, dtype=np.int64)  # linear ramp
        d = delta.delta_forward(v)
        assert (d[1:] == 1).all()
        d2 = delta.delta2_forward(v)
        assert (d2[2:] == 0).all()

    def test_empty(self):
        assert delta.delta_forward(np.zeros(0, dtype=np.int64)).size == 0

    def test_multidim_flattened(self, rng):
        v = rng.integers(-5, 5, (3, 4))
        assert delta.delta_forward(v).shape == (12,)

    @given(st.lists(st.integers(-2**50, 2**50), min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        v = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(
            delta.delta_inverse(delta.delta_forward(v)), v)
